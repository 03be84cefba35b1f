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
