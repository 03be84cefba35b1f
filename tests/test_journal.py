"""The one-pass journal decode reads every journal as a per-line loop would."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ca_engine.errors import IntegrityViolationError
from ca_engine.journal import Journal
from ca_engine.util import canonical_json
from helpers import catch_up_append

ROWS = st.fixed_dictionaries(
    {"id": st.integers(0, 6), "v": st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)}
)
LINES = st.one_of(
    ROWS.map(canonical_json),
    ROWS.map(canonical_json),
    ROWS.map(lambda row: " " + canonical_json(row) + "\t "),
    st.sampled_from(
        ["", "   ", "{not json", "[1, 2]", "1, 2", '{"a":1} {"b":2}', '{"id":7}, {"id":8}', '{"v": 1}']
    ),
)


def by_id(row):
    return row["id"]


def reference(lines: list[str]) -> dict | int:
    """First row per id from a plain per-line loop, or the number of the first bad line."""
    rows = {}
    for number, raw in enumerate(lines, 1):
        if not raw.strip():
            continue
        try:
            row = json.loads(raw)
            key = by_id(row)
        except (ValueError, KeyError, TypeError):
            return number
        rows.setdefault(key, row)
    return rows


def check(journal: Journal, expected: dict | int) -> None:
    if isinstance(expected, int):
        with pytest.raises(IntegrityViolationError, match=rf"\.jsonl: line {expected}:"):
            journal.rows()
    else:
        assert journal.rows() == expected


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(LINES, max_size=12), cut=st.integers(0, 12))
def test_one_pass_decode_matches_a_per_line_loop(lines, cut):
    cut = min(cut, len(lines))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_text("".join(line + "\n" for line in lines[:cut]), encoding="utf-8")
        journal = Journal(path, by_id)
        before = reference(lines[:cut])
        check(journal, before)
        if isinstance(before, int):
            return
        # Lines appended later are numbered after the ones already read.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines[cut:]))
        check(journal, reference(lines))


def test_a_read_that_hits_a_bad_line_leaves_no_row_readable(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id":1}\n{not json\n', encoding="utf-8")
    journal = Journal(path, by_id)
    for _ in range(2):
        with pytest.raises(IntegrityViolationError, match=r"\.jsonl: line 2:"):
            journal.get(1)


def _lines(rows) -> bytes:
    return "".join(canonical_json(row) + "\n" for row in rows).encode("utf-8")


FRAGMENT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=12)


@settings(max_examples=300, deadline=None)
@given(
    state=st.sampled_from(["fresh", "partly read", "current"]),
    before=st.lists(ROWS, max_size=5),
    seen_torn=FRAGMENT | st.none(),
    later=st.lists(ROWS, max_size=3),
    torn=FRAGMENT,
    new=st.lists(ROWS, min_size=1, max_size=3),
)
def test_an_append_writes_and_reads_back_as_a_catch_up_append(state, before, seen_torn, later, torn, new):
    """Appends from fresh, partly read and current handles, with and without torn tails.

    ``before`` and a torn ``seen_torn`` are there when the handle first
    reads; another writer then cuts that tail and appends ``later`` and a
    torn ``torn``; the handle appends ``new``. A ``seen_torn`` of None is as
    long as ``later`` and ``new`` together, so the file ends where the
    handle once saw it end.
    """
    if seen_torn is None:
        seen_torn = "x" * (len(_lines(later)) + len(_lines(new)))
    results = []
    for append in (Journal.append, catch_up_append):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.jsonl"
            head = _lines(before)
            path.write_bytes(head + seen_torn.encode("utf-8"))
            journal = Journal(path, by_id)
            if state != "fresh":
                journal.rows()
            with open(path, "r+b") as fh:
                fh.truncate(len(head))
                fh.seek(len(head))
                fh.write(_lines(later) + torn.encode("utf-8"))
            if state == "current":
                journal.rows()
            appended = append(journal, new)
            data = path.read_bytes()
            fresh_rows = Journal(path, by_id).rows()
            assert journal.rows() == fresh_rows
            results.append((appended, data, fresh_rows))
    assert results[0] == results[1]
    appended, data, fresh_rows = results[0]
    assert {row["id"] for row in new} <= set(fresh_rows)  # each new key has a row, an older one or its own
    if appended:
        assert data.endswith(_lines([row for row in fresh_rows.values() if row in new][-appended:]))


def test_a_torn_tail_cut_and_overwritten_to_the_same_length_is_read(tmp_path):
    path = tmp_path / "rows.jsonl"
    head = _lines([{"id": 1, "v": ""}])
    later = _lines([{"id": 0, "v": ""}])
    path.write_bytes(head + b"x" * (len(later) + 3))
    journal = Journal(path, by_id)
    assert list(journal.rows()) == [1]
    # Another writer cuts the torn tail, appends a row and leaves a torn tail of its own: the size is unchanged.
    path.write_bytes(head + later + b"abc")
    assert list(journal.rows()) == [1, 0]
    assert journal.append([{"id": 2, "v": ""}]) == 1
    assert list(Journal(path, by_id).rows()) == [1, 0, 2]
