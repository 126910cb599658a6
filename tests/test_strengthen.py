"""The strengthening-strategy layer.

Four groups of guarantees:

- **Strategy differential** — :class:`AllSatStrategy` classifies exactly
  the cube sets the fresh-query :class:`CubeEnumerationStrategy`
  reference does, on randomized instances (hypothesis) and on real
  corpus programs, and the printed boolean programs are byte-identical;
- **Core policy** — backend sessions opened with ``want_cores=False``
  (the reference's throwaway path) skip unsat-core mapping entirely;
- **Prover statistics** — a real abstraction run reports its prover
  work: queries, time attribution, session solves and catalog answers;
- **Oracle coverage** — an injected catalog bug and an injected session
  core bug are caught by the fuzz oracle as ``strengthen-divergence``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import C2bp, parse_c_program, parse_predicate_file
from repro.boolprog.printer import print_bool_program
from repro.cfront import parse_expression
from repro.core import C2bpOptions
from repro.core.cubes import AllSatStrategy, CubeEnumerationStrategy, CubeSearch
from repro.engine import EngineContext
from repro.fuzz.gen import ProgramGenerator
from repro.fuzz.oracle import KIND_STRENGTHEN, SoundnessOracle
from repro.programs import get_program
from repro.prover import DpllTBackend, Prover, Satisfiability
from repro.prover import allsat as allsat_module
from repro.prover.incremental import IncrementalCubeSession


class _Cand:
    def __init__(self, text):
        self.expr = parse_expression(text)
        self.name = text.replace(" ", "")


def _search(strengthen):
    search = CubeSearch(Prover(), C2bpOptions(syntactic_heuristics=False))
    if strengthen == "cubes":
        search.strategy = CubeEnumerationStrategy()
    return search


# -- strategy selection --------------------------------------------------------------


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
    """The default prints the fresh-query reference's bytes; the default
    really runs on sessions, and the reference never does."""
    study = get_program(name)
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    allsat = C2bp(program, predicates)
    cubes = C2bp(program, predicates)
    cubes.search.strategy = CubeEnumerationStrategy()
    assert print_bool_program(allsat.run()) == print_bool_program(cubes.run())
    assert allsat.prover.stats.assumption_solves > 0
    assert cubes.prover.stats.assumption_solves == 0


# -- the want_cores policy ------------------------------------------------------------


def test_want_cores_false_skips_core_mapping():
    session = DpllTBackend().open_cube_session(
        [parse_expression("x < 5"), parse_expression("x == 2")],
        parse_expression("x < 10"),
        want_cores=False,
    )
    outcome, core = session.decide(((0, True), (1, True)))
    assert outcome is Satisfiability.UNSAT
    assert core is None


# -- prover statistics ----------------------------------------------------------------


def _study_inputs(name):
    study = get_program(name)
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    return program, predicates


def test_prover_stats_engage():
    """An abstraction run reports real prover work — queries, time
    attribution, incremental-session solves and AllSAT catalog answers."""
    program, predicates = _study_inputs("partition")
    with EngineContext() as context:
        C2bp(program, predicates, context=context).run()
        stats = context.prover.stats
    assert stats.queries > 0 and stats.calls > 0
    assert stats.time_in_encode + stats.time_in_solve + stats.time_in_generalize > 0
    assert stats.assumption_solves > 0
    assert stats.allsat_sweeps > 0 and stats.allsat_models > 0
    assert stats.allsat_model_hits > 0


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
        report = oracle.check(case)
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
        report = oracle.check(case)
        if report.kind == KIND_STRENGTHEN:
            return
    raise AssertionError("no generated case exposed the injected core bug")
