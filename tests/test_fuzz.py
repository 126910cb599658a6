"""The fuzzing subsystem itself: smoke, determinism, and the meta-test
that the oracle actually catches (and the shrinker actually minimizes)
an injected soundness bug.

The injected bug is the real one the fuzzer found during development:
reverting the caller-side return-binding fix in ``repro.core.calls``
(``g = helper(...)`` with a global result target must re-strengthen
global predicates) makes seed-0 case 7 fail again.
"""

import pytest

import repro.core.calls as calls_module
from repro.fuzz import (
    KIND_SOUNDNESS,
    FuzzSession,
    ProgramGenerator,
    SoundnessOracle,
    shrink_case,
)

pytestmark = pytest.mark.fuzz_smoke


def test_fuzz_smoke_is_clean():
    """A fixed-seed batch: no soundness violations, no divergences."""
    session = FuzzSession(seed="smoke")
    result = session.run(10)
    assert result.ok, "\n".join(result.summary_lines())
    assert result.cases == 10
    assert result.replays > 0
    assert result.prover_calls > 0


def test_fuzz_generation_is_deterministic():
    """Same seed, same cases — byte-identical sources and predicates."""
    first = [ProgramGenerator("det").generate(i) for i in range(8)]
    second = [ProgramGenerator("det").generate(i) for i in range(8)]
    assert [c.fingerprint() for c in first] == [c.fingerprint() for c in second]
    assert [c.source for c in first] == [c.source for c in second]


def test_fuzz_session_digest_is_reproducible():
    """Two sessions with the same seed agree on the session digest (the
    property the CI fuzz-smoke job and the nightly job key on)."""
    a = FuzzSession(seed="digest").run(4)
    b = FuzzSession(seed="digest").run(4)
    assert a.ok and b.ok
    assert a.digest() == b.digest()


def test_fuzz_cli_subcommand():
    """``python -m repro fuzz`` end to end: exit code 0 and a summary."""
    import io

    from repro.cli import main

    out = io.StringIO()
    code = main(
        ["fuzz", "--count", "2", "--fuzz-seed", "cli"],
        out=out,
    )
    text = out.getvalue()
    assert code == 0, text
    assert "fuzz: digest" in text
    assert "no soundness violations" in text


@pytest.mark.slow
def test_fuzz_extended_batch():
    """The nightly-scale tier (excluded from the default run)."""
    result = FuzzSession(seed="extended").run(60)
    assert result.ok, "\n".join(result.summary_lines())


def test_fuzzer_finds_and_shrinks_injected_soundness_bug(monkeypatch):
    """Reverting the return-binding fix must be caught and minimized."""
    monkeypatch.setattr(
        calls_module,
        "_binding_affected_globals",
        lambda proc_abs, stmt, already_affected: [],
    )
    monkeypatch.setattr(
        calls_module,
        "_binding_clobbers_meaning",
        lambda proc_abs, stmt, predicate_expr, signature: False,
    )
    oracle = SoundnessOracle()
    case = ProgramGenerator("0").generate(7)
    report = oracle.check(case)
    assert report.kind == KIND_SOUNDNESS, report.detail

    shrunk = shrink_case(
        case,
        KIND_SOUNDNESS,
        lambda c: oracle.check(c).kind,
    )
    assert shrunk.attempts > 0
    # The minimized case still exhibits the bug ...
    assert oracle.check(shrunk.case).kind == KIND_SOUNDNESS
    # ... and is no larger than the original.
    assert len(shrunk.case.source) <= len(case.source)
    assert len(shrunk.case.predicate_text) <= len(case.predicate_text)
    # The shrunk program keeps the essential shape: a call binding a
    # return value into the global.
    assert "g = helper(" in shrunk.case.source


def test_oracle_reference_abstractions_translate_every_statement(monkeypatch):
    """The strengthen and theory differentials each abstract under a fresh
    engine context, so no reuse-level hit can stand in for the reference
    engine: both reference runs translate every statement themselves."""
    references = []
    abstract = SoundnessOracle._abstract

    def recording(self, facts, predicates, options, store=None,
                  strategy=None, backend=None):
        tool, boolean_program = abstract(
            self, facts, predicates, options, store=store,
            strategy=strategy, backend=backend,
        )
        if strategy is not None or backend is not None:
            references.append(tool)
        return tool, boolean_program

    monkeypatch.setattr(SoundnessOracle, "_abstract", recording)
    oracle = SoundnessOracle()
    generator = ProgramGenerator("reference")
    for index in range(3):
        report = oracle.check(generator.generate(index))
        assert report.ok, report
    assert len(references) == 6
    for tool in references:
        stats = tool.context.analysis_stats
        assert stats.c2bp_stmts_reused == 0
        assert stats.c2bp_stmts_retranslated > 0
        assert tool.stats.prover_calls > 0
