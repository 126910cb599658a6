"""Regression corpus: every shrunk failure the fuzzer ever checked in
replays cleanly through the full oracle — every optimized engine against
its reference (symbolic vs explicit-state Bebop, allsat vs fresh-query
cubes, incremental vs stateless theory, uncached vs ``--cache-dir``) plus the
Theorem-1 trace replay."""

import json
import os

import pytest

from repro.fuzz import SoundnessOracle, load_corpus
from repro.fuzz import oracle

pytestmark = pytest.mark.fuzz_smoke

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_corpus(CORPUS_DIR)


def test_corpus_is_seeded():
    """The corpus ships with at least the call/global-return regression
    and the shrunk BMC phi-merge reproducer."""
    names = [case.name for case in CORPUS]
    assert "call-global-return-binding" in names
    assert "bmc-phi-merge-first-edge" in names


def test_corpus_kinds_are_oracle_kinds():
    """Each entry records the failure kind it was found as; that must be
    a kind the oracle still reports."""
    kinds = {
        value for name, value in vars(oracle).items() if name.startswith("KIND_")
    }
    for filename in sorted(os.listdir(CORPUS_DIR)):
        if filename.endswith(".json"):
            with open(os.path.join(CORPUS_DIR, filename)) as handle:
                assert json.load(handle)["kind"] in kinds, filename


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: case.name)
def test_corpus_entry_replays_clean(case):
    report = SoundnessOracle().check(case)
    assert report.ok, "%s: %s" % (report.kind, report.detail)
    assert report.replays > 0 or report.assert_trips > 0
