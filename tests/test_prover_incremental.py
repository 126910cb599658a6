"""The incremental assumption-based cube engine and parallel abstraction.

Three layers of guarantees:

- :class:`SatSolver` assumption handling: persistent solver state across
  ``solve()`` calls and a sound unsat-core-lite (the subset of assumptions
  in the final conflict);
- differential identity: the incremental session classifies exactly the
  cubes a fresh solver per cube does, on randomized instances
  (hypothesis), and the default strengthening prints the same boolean
  program as the fresh-query ``cubes`` reference on real programs;
- ``--jobs``: the parallel statement abstraction emits a byte-identical
  boolean program and merged accounting.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro import C2bp, parse_c_program, parse_predicate_file
from repro.boolprog.printer import print_bool_program
from repro.cfront import cast as C
from repro.cfront import parse_expression
from repro.core import C2bpOptions
from repro.core.cubes import CubeSearch
from repro.engine import EngineContext
from repro.programs import get_program
from repro.prover import DpllTBackend, Prover, Satisfiability
from repro.prover import sat as sat_module
from repro.prover.sat import SatSolver


class _Cand:
    def __init__(self, text):
        self.expr = parse_expression(text)
        self.name = text.replace(" ", "")


# -- SatSolver assumptions and persistence -------------------------------------------


def test_assumptions_respected_in_model():
    solver = SatSolver()
    solver.add_clause([1, 2])
    result = solver.solve(assumptions=[-1])
    assert result.sat and result.model[1] is False and result.model[2] is True


def test_assumption_core_single_failed_assumption():
    solver = SatSolver()
    solver.add_clause([-1])
    result = solver.solve(assumptions=[1, 2])
    assert not result.sat
    assert result.core == (1,)


def test_assumption_core_joint_conflict():
    solver = SatSolver()
    solver.add_clause([-1, -2])
    assert solver.solve(assumptions=[1]).sat
    result = solver.solve(assumptions=[1, 2])
    assert not result.sat
    assert set(result.core) <= {1, 2} and len(result.core) >= 1


def test_assumption_core_through_propagation():
    # 1 -> 3, 2 -> -3: assuming 1 and 2 conflicts via propagation; 4 is
    # irrelevant and must not appear in the core.
    solver = SatSolver()
    solver.add_clause([-1, 3])
    solver.add_clause([-2, -3])
    result = solver.solve(assumptions=[4, 1, 2])
    assert not result.sat
    assert 4 not in result.core
    assert set(result.core) <= {1, 2}


def test_solver_state_persists_across_solves():
    sat_module.reset_counters()
    solver = SatSolver()
    solver.add_clause([1, 2])
    solver.add_clause([-1, 2])
    assert solver.solve(assumptions=[1]).sat
    assert solver.solve(assumptions=[-2, 1]).sat is False
    assert solver.solve().sat
    assert sat_module.COUNTERS["solver_states"] == 1
    assert sat_module.COUNTERS["solves"] == 3


def test_clauses_added_between_solves():
    solver = SatSolver()
    solver.add_clause([1, 2])
    assert solver.solve().sat
    solver.add_clause([-1])
    solver.add_clause([-2])
    assert not solver.solve().sat
    # The solver is now permanently unsat, with or without assumptions.
    assert not solver.solve(assumptions=[3]).sat


# -- differential identity: incremental vs fresh-per-cube ----------------------------


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


def _all_cubes(size):
    for length in range(size + 1):
        for indices in itertools.combinations(range(size), length):
            for polarities in itertools.product((True, False), repeat=length):
                yield tuple(zip(indices, polarities))


def _session_verdicts(candidates, goal, incremental):
    """Every cube's verdict on one session (incremental: one solver for
    all of them; otherwise a fresh solver per cube)."""
    session = Prover().cube_session(candidates, goal, incremental=incremental)
    return [
        session.implies_cube(cube)[0] for cube in _all_cubes(len(candidates))
    ]


@settings(max_examples=40, deadline=None)
@given(_instance())
def test_incremental_matches_fresh_on_random_instances(instance):
    candidate_texts, goal_text = instance
    candidates = [parse_expression(t) for t in candidate_texts]
    goal = parse_expression(goal_text)
    assert _session_verdicts(candidates, goal, True) == _session_verdicts(
        candidates, goal, False
    )


@settings(max_examples=25, deadline=None)
@given(_instance())
def test_incremental_matches_fresh_inconsistent_cubes(instance):
    candidate_texts, _ = instance
    candidates = [parse_expression(t) for t in candidate_texts]
    goal = C.IntLit(0)
    assert _session_verdicts(candidates, goal, True) == _session_verdicts(
        candidates, goal, False
    )


def test_incremental_matches_fresh_on_partition():
    study = get_program("partition")
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    with_sessions = C2bp(program, predicates, options=C2bpOptions())
    fresh = C2bp(program, predicates, options=C2bpOptions(strengthen="cubes"))
    assert print_bool_program(with_sessions.run()) == print_bool_program(fresh.run())
    # The default really runs on sessions; the reference never does.
    assert with_sessions.prover.stats.assumption_solves > 0
    assert fresh.prover.stats.assumption_solves == 0


# -- session accounting --------------------------------------------------------------


def test_session_counters_track_reuse():
    prover = Prover()
    session = prover.cube_session(
        [parse_expression("x < 5"), parse_expression("x == 2"),
         parse_expression("y > 0")],
        parse_expression("x < 4"),
    )
    for cube in _all_cubes(3):
        session.implies_cube(cube)
    stats = prover.stats
    assert stats.cube_sessions == 1
    assert stats.assumption_solves > 0
    # Every decide after a session's first reuses that session's encoding.
    assert stats.cnf_encodings_saved > 0
    assert stats.calls == stats.valid + stats.invalid + stats.unknown


def test_allsat_counters_track_catalog():
    prover = Prover()
    search = CubeSearch(
        prover, C2bpOptions(syntactic_heuristics=False, strengthen="allsat")
    )
    candidates = [_Cand("x < 5"), _Cand("x == 2"), _Cand("y > 0")]
    search.implicant_cubes(candidates, parse_expression("x < 4"))
    stats = prover.stats
    assert stats.allsat_sweeps >= 2  # one per direction (=> phi, => !phi)
    assert stats.allsat_models > 0
    # The SAT-side cube answers come from the swept model catalog.
    assert stats.allsat_model_hits > 0
    assert stats.allsat_sweep_solves > 0
    assert stats.calls == stats.valid + stats.invalid + stats.unknown


def test_unsat_core_shrinks_recorded_cube():
    prover = Prover()
    session = prover.cube_session(
        [parse_expression("x < 5"), parse_expression("x == 2")],
        parse_expression("x < 10"),
    )
    result, core = session.implies_cube(((0, True), (1, True)))
    assert result is True
    # Either literal alone implies x < 10, so the core keeps just one.
    assert core in (((0, True),), ((1, True),))
    assert prover.stats.core_shrinks == 1


def test_fresh_fallback_reports_no_core():
    prover = Prover()
    session = prover.cube_session(
        [parse_expression("x < 5"), parse_expression("x == 2")],
        parse_expression("x < 10"),
        incremental=False,
    )
    result, core = session.implies_cube(((0, True), (1, True)))
    assert result is True and core is None
    assert prover.stats.assumption_solves == 0


class _IncrementalTheoryOnlyBackend(DpllTBackend):
    """A backend whose sessions cannot pin the stateless theory checker."""

    def open_cube_session(
        self, candidates, goal, want_cores=True, theory_incremental=True
    ):
        if not theory_incremental:
            raise TypeError("no stateless theory sessions")
        return super().open_cube_session(candidates, goal, want_cores=want_cores)


def test_unsupported_session_policy_raises():
    """A backend rejecting a session policy fails the run instead of
    silently opening a session on the incremental theory."""
    study = get_program("listfind")
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    context = EngineContext(
        options=C2bpOptions(theory_incremental=False),
        backend=_IncrementalTheoryOnlyBackend(),
    )
    with pytest.raises(TypeError, match="no stateless theory sessions"):
        C2bp(program, predicates, context=context).run()


def test_cube_session_shares_query_cache_with_implies():
    prover = Prover()
    expr = parse_expression("x < 5")
    goal = parse_expression("x < 10")
    assert prover.implies([expr], goal) is True
    session = prover.cube_session([expr], goal)
    hits_before = prover.stats.cache_hits
    result, _ = session.implies_cube(((0, True),))
    assert result is True
    assert prover.stats.cache_hits == hits_before + 1


# -- parallel statement abstraction --------------------------------------------------


def _abstract_qsort(options):
    study = get_program("qsort")
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    context = EngineContext(options=options)
    tool = C2bp(program, predicates, context=context)
    return tool, tool.run()


def test_parallel_abstraction_is_deterministic():
    serial_tool, serial_bp = _abstract_qsort(C2bpOptions(jobs=1))
    parallel_tool, parallel_bp = _abstract_qsort(C2bpOptions(jobs=3))
    # qsort has two procedures and call-site temporaries, so this covers
    # the worker temp renaming (__rw<stmt>_<k> -> __r<N>) and body merge.
    serial_text = print_bool_program(serial_bp)
    assert "__r0" in serial_text
    assert serial_text == print_bool_program(parallel_bp)
    assert serial_tool.temp_meanings == parallel_tool.temp_meanings


def test_parallel_merges_stats_cache_and_events():
    tool, _ = _abstract_qsort(C2bpOptions(jobs=3))
    assert tool.stats.prover_calls > 0
    assert tool.stats.per_procedure and all(
        calls >= 0 for calls in tool.stats.per_procedure.values()
    )
    assert tool.prover.stats.calls == tool.stats.prover_calls
    assert len(tool.prover.cache) > 0
    kinds = {event["kind"] for event in tool.context.events.events}
    assert "cube-test" in kinds and "c2bp-procedure" in kinds
    snapshot = tool.context.stats.snapshot()
    assert snapshot["c2bp"]["prover_calls"] == tool.stats.prover_calls


def test_parallel_stats_match_serial_totals():
    serial_tool, _ = _abstract_qsort(C2bpOptions(jobs=1))
    parallel_tool, _ = _abstract_qsort(C2bpOptions(jobs=3))
    # Counters that do not depend on cache hit distribution must agree.
    assert serial_tool.stats.assignments_abstracted == (
        parallel_tool.stats.assignments_abstracted
    )
    assert serial_tool.stats.conditionals_abstracted == (
        parallel_tool.stats.conditionals_abstracted
    )
    assert serial_tool.stats.calls_abstracted == parallel_tool.stats.calls_abstracted
    assert set(serial_tool.stats.per_procedure) == set(
        parallel_tool.stats.per_procedure
    )


def test_incremental_session_decides_consistently():
    # Direct IncrementalCubeSession use: decisions match plain implies().
    prover_a = Prover()
    prover_b = Prover()
    candidates = [parse_expression("x < 5"), parse_expression("y == 1")]
    goal = parse_expression("x < 9")
    session = prover_a.cube_session(candidates, goal)
    for cube in [((0, True),), ((0, False),), ((1, True),), ((0, True), (1, False))]:
        result, _ = session.implies_cube(cube)
        exprs = [
            candidates[i] if pol else C.negate(candidates[i]) for i, pol in cube
        ]
        assert result == prover_b.implies(exprs, goal)


def test_satisfiability_enum_reexported():
    assert Satisfiability.UNSAT.name == "UNSAT"
