"""``__ray_entry__.queries()`` runs the least recently verified queries
first, so a correctness run cut short by its time budget still gives
them a fresh oracle row."""

import json
from pathlib import Path

import __ray_entry__ as entry


def test_queries_without_a_round_5_oracle_row_run_first():
    verified = json.loads((Path(__file__).resolve().parents[1] / "CORRECTNESS_r05.json").read_text())
    names = list(entry.queries())
    unverified = [n for n in names if n not in verified]
    assert len(unverified) == 20
    assert names[:20] == unverified
