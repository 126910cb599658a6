"""Regression corpus: every shrunk failure the fuzzer ever checked in
replays cleanly through the full oracle — every optimized engine against
its reference (symbolic vs explicit-state Bebop, allsat vs fresh-query
cubes, incremental vs stateless theory, serial vs ``--jobs``) plus the
Theorem-1 trace replay."""

import os

import pytest

from repro.fuzz import SoundnessOracle, load_corpus

pytestmark = pytest.mark.fuzz_smoke

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_corpus(CORPUS_DIR)


def test_corpus_is_seeded():
    """The corpus ships with at least the call/global-return regression
    and the shrunk BMC phi-merge reproducer."""
    names = [case.name for case in CORPUS]
    assert "call-global-return-binding" in names
    assert "bmc-phi-merge-first-edge" in names


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: case.name)
def test_corpus_entry_replays_clean(case):
    report = SoundnessOracle().check(case, check_jobs=True)
    assert report.ok, "%s: %s" % (report.kind, report.detail)
    assert report.replays > 0 or report.assert_trips > 0
