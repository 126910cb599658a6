"""The strengthening-strategy layer and the persistent worker pool.

Four groups of guarantees:

- **Strategy differential** — :class:`AllSatStrategy` classifies exactly
  the cube sets the fresh-query :class:`CubeEnumerationStrategy`
  reference does, on randomized instances (hypothesis) and on real
  corpus programs, and the printed boolean programs are byte-identical;
- **Core policy** — sessions opened with ``want_cores=False`` (the
  reference's throwaway path) skip unsat-core mapping entirely;
- **Pool lifecycle** — the persistent :class:`StatementPool` shuts down
  deterministically (no zombie processes after ``close()``), survives
  reuse across runs on one context, re-raises a failing worker
  statement with the original traceback, and merges the workers' prover
  statistics;
- **Oracle coverage** — an injected catalog bug and an injected session
  core bug are caught by the fuzz oracle as ``strengthen-divergence``.
"""

import io
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro import C2bp, parse_c_program, parse_predicate_file
from repro.boolprog.printer import print_bool_program
from repro.cfront import parse_expression
from repro.core import C2bpOptions
from repro.core import abstractor as abstractor_module
from repro.core.cubes import (
    AllSatStrategy,
    CubeEnumerationStrategy,
    CubeSearch,
    make_strategy,
)
from repro.core.pool import WorkerError
from repro.engine import EngineContext
from repro.fuzz.gen import ProgramGenerator
from repro.fuzz.oracle import KIND_STRENGTHEN, SoundnessOracle
from repro.programs import get_program
from repro.prover import Prover
from repro.prover import allsat as allsat_module
from repro.prover.incremental import IncrementalCubeSession


class _Cand:
    def __init__(self, text):
        self.expr = parse_expression(text)
        self.name = text.replace(" ", "")


def _search(strengthen, **overrides):
    options = C2bpOptions(
        syntactic_heuristics=False, strengthen=strengthen, **overrides
    )
    return CubeSearch(Prover(), options)


# -- strategy selection --------------------------------------------------------------


def test_make_strategy_resolution():
    assert isinstance(make_strategy(None), AllSatStrategy)
    assert isinstance(make_strategy("allsat"), AllSatStrategy)
    strategy = make_strategy("cubes")
    assert isinstance(strategy, CubeEnumerationStrategy)
    assert not isinstance(strategy, AllSatStrategy)
    assert make_strategy(strategy) is strategy
    with pytest.raises(ValueError):
        make_strategy("nope")


def test_default_options_select_allsat():
    search = CubeSearch(Prover(), C2bpOptions())
    assert isinstance(search.strategy, AllSatStrategy)


# -- differential: allsat vs cubes ----------------------------------------------------


_VARS = ("x", "y")


@st.composite
def _atom(draw):
    var = draw(st.sampled_from(_VARS))
    op = draw(st.sampled_from(["<", "<=", "==", ">", ">=", "!="]))
    constant = draw(st.integers(min_value=-3, max_value=3))
    if draw(st.booleans()):
        return "%s %s %d" % (var, op, constant)
    return "x + y %s %d" % (op, constant)


@st.composite
def _instance(draw):
    candidates = draw(st.lists(_atom(), min_size=1, max_size=3, unique=True))
    goal = draw(_atom())
    return candidates, goal


@settings(max_examples=40, deadline=None)
@given(_instance())
def test_allsat_matches_cubes_on_random_instances(instance):
    candidate_texts, goal_text = instance
    candidates = [_Cand(t) for t in candidate_texts]
    goal = parse_expression(goal_text)
    assert _search("allsat").implicant_cubes(candidates, goal) == _search(
        "cubes"
    ).implicant_cubes(candidates, goal)


@settings(max_examples=25, deadline=None)
@given(_instance())
def test_allsat_matches_cubes_inconsistent(instance):
    candidate_texts, _ = instance
    candidates = [_Cand(t) for t in candidate_texts]
    assert _search("allsat").inconsistent_cubes(candidates, 3) == _search(
        "cubes"
    ).inconsistent_cubes(candidates, 3)


@pytest.mark.parametrize("name", ["partition", "listfind"])
def test_allsat_bool_program_byte_identical(name):
    study = get_program(name)
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    texts = {
        label: print_bool_program(
            C2bp(
                program,
                predicates,
                options=C2bpOptions(strengthen=label),
            ).run()
        )
        for label in ("allsat", "cubes")
    }
    assert texts["allsat"] == texts["cubes"]


# -- the want_cores policy ------------------------------------------------------------


def test_want_cores_false_skips_core_mapping():
    prover = Prover()
    session = prover.cube_session(
        [parse_expression("x < 5"), parse_expression("x == 2")],
        parse_expression("x < 10"),
        want_cores=False,
    )
    result, core = session.implies_cube(((0, True), (1, True)))
    assert result is True
    assert core is None
    assert prover.stats.core_shrinks == 0


def test_want_cores_default_still_shrinks():
    prover = Prover()
    session = prover.cube_session(
        [parse_expression("x < 5"), parse_expression("x == 2")],
        parse_expression("x < 10"),
    )
    result, core = session.implies_cube(((0, True), (1, True)))
    assert result is True
    assert core in (((0, True),), ((1, True),))
    assert prover.stats.core_shrinks == 1


# -- pool lifecycle -------------------------------------------------------------------


def _study_inputs(name):
    study = get_program(name)
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    return program, predicates


def test_pool_persists_across_runs_and_closes_clean():
    program, predicates = _study_inputs("partition")
    serial = print_bool_program(
        C2bp(program, predicates, options=C2bpOptions(jobs=1)).run()
    )
    with EngineContext(options=C2bpOptions(jobs=2)) as context:
        first = print_bool_program(C2bp(program, predicates, context=context).run())
        pool = context._worker_pool
        assert pool is not None
        second = print_bool_program(C2bp(program, predicates, context=context).run())
        # Same long-lived pool served both runs.
        assert context._worker_pool is pool
        assert first == serial and second == serial
    assert context._worker_pool is None
    for process in multiprocessing.active_children():
        process.join(timeout=5)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_merged_prover_stats_engage(jobs):
    """Serial and pooled runs both report real prover work — queries,
    time attribution, incremental-session solves and AllSAT catalog
    answers — with the workers' counters merged into the parent's."""
    program, predicates = _study_inputs("partition")
    with EngineContext(options=C2bpOptions(jobs=jobs)) as context:
        C2bp(program, predicates, context=context).run()
        stats = context.prover.stats
    assert stats.queries > 0 and stats.calls > 0
    assert stats.time_in_encode + stats.time_in_solve + stats.time_in_generalize > 0
    assert stats.assumption_solves > 0
    assert stats.allsat_sweeps > 0 and stats.allsat_models > 0
    assert stats.allsat_model_hits > 0


def test_pool_closed_after_private_context_run():
    program, predicates = _study_inputs("partition")
    tool = C2bp(program, predicates, options=C2bpOptions(jobs=2))
    tool.run()
    # The run created (and must have closed) its own pool.
    assert tool.context._worker_pool is None
    for process in multiprocessing.active_children():
        process.join(timeout=5)
    assert multiprocessing.active_children() == []


def test_failing_worker_statement_surfaces_traceback(monkeypatch):
    program, predicates = _study_inputs("partition")

    def boom(self, stmt):
        raise RuntimeError("injected worker failure")

    # The pool forks after the patch, so workers inherit it.
    monkeypatch.setattr(
        abstractor_module._ProcedureAbstractor, "_abstract_stmt", boom
    )
    with EngineContext(options=C2bpOptions(jobs=2)) as context:
        with pytest.raises(WorkerError) as excinfo:
            C2bp(program, predicates, context=context).run()
        assert "injected worker failure" in str(excinfo.value)
        assert "RuntimeError" in excinfo.value.remote_traceback
    for process in multiprocessing.active_children():
        process.join(timeout=5)
    assert multiprocessing.active_children() == []


# -- oracle coverage ------------------------------------------------------------------


def test_oracle_catches_injected_catalog_bug(monkeypatch):
    """A catalog that misreports coverage flips SAT answers; the oracle
    must flag the divergence with the strengthen-specific kind."""

    def lying_covers(self, cube):
        self.hits += 1
        return True

    monkeypatch.setattr(allsat_module.ModelCatalog, "covers", lying_covers)
    oracle = SoundnessOracle()
    for seed in range(8):
        case = ProgramGenerator("strengthen").generate(seed)
        report = oracle.check(case, check_jobs=False)
        if report.kind == KIND_STRENGTHEN:
            return
    raise AssertionError("no generated case exposed the injected catalog bug")


def test_oracle_catches_injected_session_core_bug(monkeypatch):
    """A session that reports an empty assumption core for every valid
    cube over-prunes the allsat search; the fresh-query reference ignores
    cores, so the oracle flags the strengthen-specific kind."""
    decide = IncrementalCubeSession.decide

    def empty_core(self, cube):
        outcome, core = decide(self, cube)
        return outcome, (() if core else core)

    monkeypatch.setattr(IncrementalCubeSession, "decide", empty_core)
    oracle = SoundnessOracle()
    for seed in range(8):
        case = ProgramGenerator("strengthen").generate(seed)
        report = oracle.check(case, check_jobs=False)
        if report.kind == KIND_STRENGTHEN:
            return
    raise AssertionError("no generated case exposed the injected core bug")


# -- CLI flag -------------------------------------------------------------------------


def test_cli_strengthen_flag(tmp_path):
    from repro.cli import main

    study = get_program("partition")
    c_path = tmp_path / "p.c"
    p_path = tmp_path / "p.preds"
    c_path.write_text(study.source)
    p_path.write_text(study.predicate_text)
    outputs = {}
    for flag in ("allsat", "cubes"):
        out = io.StringIO()
        code = main(
            [
                "abstract",
                str(c_path),
                str(p_path),
                "--strengthen",
                flag,
            ],
            out=out,
        )
        assert code == 0
        # Strip the trailing stats comment (timings differ run to run).
        outputs[flag] = out.getvalue().rsplit("//", 1)[0]
    assert outputs["allsat"] == outputs["cubes"]
