"""Tier-1 replay of the checked-in chaos regression corpus.

The nightly Hypothesis sweep (``tests/test_chaos_properties.py``)
explores the chaos seed space; plans it surfaced as interesting are
promoted into ``tests/corpus/*.json`` (see its README).  This fast test
replays every corpus entry on every run: the journal must hash to the
recorded value byte-for-byte and the NVX contract must still hold.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults.chaos import run_plan

# Every epoll scan and wakeup is checked against the brute-force scan.
pytestmark = pytest.mark.usefixtures("epoll_shadow")

CORPUS_DIR = Path(__file__).parent / "corpus"
ENTRIES = sorted(CORPUS_DIR.glob("chaos-*.json"))


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _entry_id(path: Path) -> str:
    return path.stem


class TestChaosCorpus:
    def test_corpus_is_nonempty(self):
        assert len(ENTRIES) >= 5

    @pytest.mark.parametrize("path", ENTRIES, ids=_entry_id)
    def test_replay_matches_recorded_journal(self, path):
        entry = _load(path)
        lines, mismatches, violations = run_plan(
            entry["seed"], entry["index"],
            placement=entry.get("placement", "local"))
        text = "\n".join(lines) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        expect = entry["expect"]
        assert mismatches == expect["mismatches"], text
        assert violations == expect["violations"], text
        assert digest == expect["journal_sha256"], (
            f"{path.name}: chaos journal drifted:\n{text}")
