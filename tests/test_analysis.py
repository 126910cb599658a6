"""The static-analysis subsystem: hand-checked mod/ref and liveness
facts, interval fixpoints and the query discharger, boolean-program
dead-variable elimination (with a simulation-equivalence property test),
and the cross-iteration abstraction reuse."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    WILDCARD,
    AnalysisStats,
    ModRefSummaries,
    TouchOracle,
    eliminate_dead_variables,
    location_keyset,
)
from repro.analysis.intervals import (
    FunctionIntervals,
    IntervalDischarger,
    interval_candidate_predicates,
)
from repro.bebop import Bebop
from repro.boolprog.interp import (
    AssumeBlocked,
    BoolAssertionFailure,
    BoolInterpError,
    BoolProgramInterpreter,
)
from repro.boolprog.printer import print_bool_program
from repro.cfront import parse_c_program
from repro.cfront.cfg import build_program_cfgs
from repro.cfront.parser import parse_expression
from repro.cfront.pretty import pretty_expr
from repro.core import C2bp, C2bpOptions, parse_predicate_file
from repro.engine import EngineContext
from repro.fuzz import ProgramGenerator
from repro.prover import Prover
from repro.slam.cegar import _interval_fallback_predicates, cegar_loop


def _abstract(source, predicate_text, **options):
    program = parse_c_program(source, name="test")
    predicates = parse_predicate_file(predicate_text, program)
    context = EngineContext(options=C2bpOptions(**options))
    tool = C2bp(program, predicates, context=context)
    return program, tool, tool.run()


# -- mod/ref ------------------------------------------------------------------------

MODREF_SOURCE = """
int g;
int helper(int p, int *q) {
    *q = p;
    g = g + 1;
    return 0;
}
void main(void) {
    int a, b;
    a = 0;
    b = helper(1, &a);
}
"""


def test_modref_assignment_summary():
    program = parse_c_program(MODREF_SOURCE, name="modref")
    summaries = ModRefSummaries(program)
    helper = program.functions["helper"]
    increment = helper.body[1]  # g = g + 1
    summary = summaries.statement_summary(increment, "helper")
    assert set(summary.mod) == {"g"}
    assert "g" in summary.ref
    assert not summary.has_call


def test_modref_call_folds_callee_effects():
    program = parse_c_program(MODREF_SOURCE, name="modref")
    summaries = ModRefSummaries(program)
    main = program.functions["main"]
    call = main.body[1]  # b = helper(1, &a)
    summary = summaries.statement_summary(call, "main")
    assert summary.has_call and summary.callees == {"helper"}
    # The callee's global write is caller-visible by name; its store
    # through the pointer argument is only representable as a wildcard.
    assert "g" in summary.mod
    assert WILDCARD in summary.mod
    assert "b" in summary.mod
    # helper's function-level summary records the pointer store itself.
    assert "*q" in summaries.function_mod["helper"]


def test_touch_oracle_matches_pairwise_semantics():
    calls = []

    def may_alias(a, b):
        calls.append((pretty_expr(a), pretty_expr(b)))
        return "*p" in (pretty_expr(a), pretty_expr(b))

    oracle = TouchOracle(may_alias)
    left = location_keyset(parse_expression("x + 1"))
    right = location_keyset(parse_expression("x * y"))
    assert oracle.touch(left, right)  # text-equal fast path, no oracle call
    assert not calls
    assert not oracle.touch({}, right)  # empty sets never touch
    starred = location_keyset(parse_expression("*p"))
    other = location_keyset(parse_expression("y"))
    assert oracle.touch(starred, other)
    first_calls = len(calls)
    assert first_calls > 0
    assert oracle.touch(starred, other)  # memoized: no new oracle calls
    assert len(calls) == first_calls
    # Without an alias oracle, nonempty keysets conservatively touch.
    assert TouchOracle(None).touch(starred, other)


# -- live predicates ----------------------------------------------------------------

LIVE_SOURCE = """
void main(int x) {
    int a, b;
    a = x + 1;
    b = 0;
    a = 1;
    b = x;
    assert(b != 0 || x == 0);
}
"""

LIVE_PREDICATES = """
main
a == 0, b != 0, x == 0
"""


def test_live_predicates_prune_dead_slots():
    # {a==0} is overwritten at `a = 1` before anything can observe it, so
    # its slot at `a = x + 1` (a real cube search: the WP `x + 1 == 0`
    # is not syntactically a candidate) is dead:
    # it must become unknown() and skip the search.
    program, tool, bp = _abstract(LIVE_SOURCE, LIVE_PREDICATES)
    printed = print_bool_program(bp)
    assert tool.analysis is not None
    assert tool.analysis.stats.predicates_skipped_dead > 0
    assert "{a==0} = unknown()" in printed

    _, off_tool, off_bp = _abstract(
        LIVE_SOURCE, LIVE_PREDICATES, live_predicates=False
    )
    off_printed = print_bool_program(off_bp)
    assert "{a==0} = unknown()" not in off_printed
    # Pruning must not change the model-checking verdict.
    assert (
        Bebop(bp).run().error_reached == Bebop(off_bp).run().error_reached
    )
    # The dead slots' cube searches were skipped, not just rewritten.
    assert tool.stats.prover_calls < off_tool.stats.prover_calls


def test_live_predicates_keep_observed_slots():
    program, tool, bp = _abstract(LIVE_SOURCE, LIVE_PREDICATES)
    liveness = tool.analysis.liveness("main")
    assert liveness is not None
    func = program.functions["main"]
    assign_b = func.body[3]  # b = x — {b!=0} is read by the assert below
    assert liveness.is_live(assign_b, "b!=0")
    # {a==0} dies at `a = x + 1`: it is overwritten at `a = 1` before any
    # observation point (the function-exit label anchor sits *after* the
    # second write, so only the first write's slot is dead).
    assign_a = func.body[0]  # a = x + 1
    assert not liveness.is_live(assign_a, "a==0")
    assign_a2 = func.body[2]  # a = 1 — live: the exit label observes it
    assert liveness.is_live(assign_a2, "a==0")


# -- intervals ----------------------------------------------------------------------

LOOP_SOURCE = """
void main(void) {
    int i;
    i = 0;
    while (i < 10) {
        i = i + 1;
    }
    assert(i >= 10);
}
"""


def test_interval_fixpoint_bounds_loop_counter():
    program = parse_c_program(LOOP_SOURCE, name="loop")
    cfg = build_program_cfgs(program)["main"]
    intervals = FunctionIntervals(cfg)
    facts = intervals.loop_head_facts()
    assert facts, "the while loop must produce a loop-head fact"
    # Widening then narrowing should recover i ∈ [0, 10] at the head.
    bounds = {
        name: interval
        for _node, env in facts
        for name, interval in env.items()
    }
    assert bounds["i"][0] == 0
    assert bounds["i"][1] == 10

    candidates = [
        pretty_expr(e) for e in interval_candidate_predicates(cfg)
    ]
    assert "i >= 0" in candidates
    assert "i <= 10" in candidates


def test_interval_discharger_units():
    discharger = IntervalDischarger()

    def decide(antecedent_texts, goal_text):
        return discharger.decide(
            [parse_expression(t) for t in antecedent_texts],
            parse_expression(goal_text),
        )

    assert decide(["x > 5"], "x > 1")
    assert not decide(["x > 0"], "x > 5")
    # Contradictory antecedents discharge any goal (the cube is empty).
    assert decide(["x > 2", "x < 1"], "x == 99")
    # `!=` goals are non-convex: an unconstrained box must NOT entail
    # them (regression: the constraint translation models `!=` as
    # no-information, which is vacuously true when read back as a goal).
    assert not decide([], "x != 0")
    assert not decide(["y > 0"], "x != 0")
    # ... but integer tightening can put the box on one side.
    assert decide(["x > 0"], "x != 0")
    # Zero coefficients (`0 * y` is affine with an empty form) must not
    # reach the propagator's divisions (regression: fuzz-found
    # ZeroDivisionError in constraint propagation).
    assert decide(["x > 0 * y", "x < 2"], "x == 1")
    assert not decide(["x <= 0 * y"], "x < 0")


def test_interval_discharger_is_not_weaker_than_the_prover():
    # The shape of generated case fuzz-0-40: the discharger's affine forms
    # fold a product with a zero factor to 0, while the prover keeps the
    # product of two non-numeral terms opaque.  The implication is valid,
    # so the discharger is sound here, but it decides a query the prover
    # cannot: turning it off can change a printed boolean program.
    antecedents = [parse_expression("a == 0")]
    goal = parse_expression("a == (n0 * 0) * (b * 3)")
    assert IntervalDischarger().decide(antecedents, goal)
    assert not Prover().implies(antecedents, goal)


def test_interval_discharger_memoizes_per_expression():
    stats = AnalysisStats()
    discharger = IntervalDischarger(stats)

    def decide(antecedent_texts, goal_text):
        return discharger.decide(
            [parse_expression(t) for t in antecedent_texts],
            parse_expression(goal_text),
        )

    # A partly-modelled conjunction keeps its modelled conjunct, on the
    # first decision and on the memoized ones after it.
    for _ in range(2):
        assert decide(["x > 5 && y * z > 0"], "x > 1")
        assert not decide(["x > 5 && y * z > 0"], "y * z > 0")
        # Structurally equal goals share one compiled form, whatever the
        # antecedents.
        assert decide(["x > 2"], "x > 1 && x != 0")
        assert not decide(["x > 0"], "x > 1 && x != 0")
        assert decide([], "1 < 2")
        assert not decide(["x > 0"], "1 > 2")
        assert decide(["x > 0", "x < 0"], "1 > 2")
    assert stats.queries_discharged_interval == 8
    assert len(discharger._antecedents) == 4
    assert len(discharger._goals) == 5


def test_newton_stall_interval_fallback_predicates():
    program, tool, _ = _abstract(LOOP_SOURCE, "main\ni == 99\n")
    predicates = tool.predicates
    fallback = _interval_fallback_predicates(program, tool, predicates)
    texts = {pretty_expr(p.expr) for p in fallback}
    assert "i >= 0" in texts
    assert "i <= 10" in texts
    for predicate in fallback:
        predicates.add(predicate)
    # Deduplication: a second stall must not re-propose the same bounds.
    assert _interval_fallback_predicates(program, tool, predicates) == []


# -- boolean-program dead-variable elimination --------------------------------------


class KeyedChooser:
    """Deterministic chooser keyed by *what* is being chosen rather than
    by call order, so two structurally different translations of the same
    program (e.g. before/after DCE) draw identical values for the choices
    they share while skipped choices consume nothing."""

    def __init__(self, seed):
        self.seed = seed
        self._counts = {}

    def choose(self, stmt, what):
        key = repr(what)
        occurrence = self._counts.get(key, 0)
        self._counts[key] = occurrence + 1
        return bool(hash((self.seed, key, occurrence)) & 1)


def _simulate(bool_program, seed, entry):
    chooser = KeyedChooser(seed)
    interp = BoolProgramInterpreter(bool_program, chooser=chooser)
    # Formal parameter lists survive DCE (interface stability), so the
    # keyed entry-argument draws line up between the two programs.
    formals = bool_program.procedures[entry].formals
    args = [chooser.choose(None, ("entry", entry, name)) for name in formals]
    try:
        interp.call(entry, args)
    except BoolAssertionFailure as failure:
        return ("assert", failure.stmt.source_sid, failure.stmt.comment)
    except AssumeBlocked:
        return ("blocked",)
    except BoolInterpError:
        return ("limit",)
    return ("done",)


@settings(max_examples=25, deadline=None)
@given(index=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_bp_dce_preserves_simulation(index, seed):
    """DCE'd boolean programs simulate identically: same outcome (normal
    return / blocked assume / failing assert, by source site) under the
    same keyed resolution of nondeterminism."""
    bp, entry = _DCE_CASES[index]
    slim, removed = eliminate_dead_variables(bp)
    assert _simulate(bp, seed, entry) == _simulate(slim, seed, entry)


def _dce_cases():
    cases = []
    generator = ProgramGenerator(seed="dce-roundtrip")
    index = 0
    while len(cases) < 6:
        case = generator.generate(index)
        index += 1
        program = parse_c_program(case.source, name=case.name)
        predicates = parse_predicate_file(case.predicate_text, program)
        tool = C2bp(program, predicates, context=EngineContext(options=C2bpOptions()))
        cases.append((tool.run(), case.entry))
    return cases


_DCE_CASES = _dce_cases()


def test_bp_dce_removes_dead_variable():
    # {a==0} is dead in the liveness example: its boolean variable is
    # written but never read, so DCE must drop it.
    _, _, bp = _abstract(LIVE_SOURCE, LIVE_PREDICATES, live_predicates=False)
    assert "{a==0}" in print_bool_program(bp)
    slim, removed = eliminate_dead_variables(bp)
    assert removed >= 1
    assert "{a==0}" not in print_bool_program(slim)
    assert (
        Bebop(bp).run().error_reached == Bebop(slim).run().error_reached
    )


@pytest.mark.parametrize("bp_dce, eliminates", [(True, True), (False, False)])
def test_check_reads_bp_dce_from_the_context_options(bp_dce, eliminates):
    # `run_check` (the CLI and daemon `check` core) takes DCE from the
    # context's options, so an in-process caller and a daemon request
    # that carry `bp_dce=False` get the full boolean program checked.
    from repro.cli import run_check

    context = EngineContext(options=C2bpOptions(bp_dce=bp_dce))
    out = io.StringIO()
    run_check(context, LIVE_SOURCE, LIVE_PREDICATES, out)
    assert (context.analysis_stats.bp_vars_eliminated > 0) is eliminates


# -- cross-iteration abstraction reuse ----------------------------------------------

REFINE_SOURCE = """
void main(int x) {
    int i, z;
    z = 7;
    z = z + 1;
    i = 0;
    if (x > 0) {
        i = 1;
    }
    if (x > 0) {
        assert(i == 1);
    }
}
"""


def test_reuse_across_cegar_iterations():
    program = parse_c_program(REFINE_SOURCE, name="refine")
    context = EngineContext(options=C2bpOptions())
    result = cegar_loop(program, max_iterations=6, context=context)
    assert result.verdict == "safe"
    assert result.iterations >= 2
    stats = context.analysis_stats
    # The z-statements' mod/ref closures never meet the discovered
    # predicates, so later iterations replay their translations.
    assert stats.c2bp_stmts_reused > 0
    assert stats.c2bp_stmts_retranslated > 0

    # The analysis passes must not change the verdict.
    off = cegar_loop(
        program,
        max_iterations=6,
        context=EngineContext(options=C2bpOptions(use_analysis=False)),
    )
    assert off.verdict == result.verdict


def test_cegar_final_program_matches_one_shot_abstraction(monkeypatch):
    """The loop's last boolean program, partly assembled from statements
    reused from earlier iterations, is byte-identical to a one-shot C2bp
    run at the loop's final predicate set that translates every statement
    afresh, and so are the call-site temporaries' meanings."""
    from repro.programs import get_driver
    from repro.slam import SafetySpec, check_property
    from repro.slam import cegar as cegar_module

    runs = []

    class RecordingC2bp(C2bp):
        def run(self):
            stats = self.context.analysis_stats
            reused = stats.c2bp_stmts_reused
            boolean_program = super().run()
            runs.append((self, boolean_program, stats.c2bp_stmts_reused - reused))
            return boolean_program

    monkeypatch.setattr(cegar_module, "C2bp", RecordingC2bp)
    driver = get_driver("floppy")
    result = check_property(
        driver.source,
        SafetySpec.complete_exactly_once("IoCompleteRequest"),
        entry=driver.entry,
        context=EngineContext(),
    )
    assert result.cegar.iterations == len(runs) >= 2
    loop_tool, loop_bp, reused = runs[-1]
    assert reused > 0
    assert loop_tool.temp_meanings

    one_shot = C2bp(
        loop_tool.program, loop_tool.predicates, context=EngineContext()
    )
    assert one_shot.reuse is None
    one_shot_bp = one_shot.run()
    assert print_bool_program(one_shot_bp) == print_bool_program(loop_bp)
    assert one_shot.temp_meanings == loop_tool.temp_meanings


# -- program facts and the per-predicate-set memo -------------------------------


def test_cegar_growth_leaves_memoized_analyses_alone():
    """The loop adds predicates to its own set after each C2bp run; the
    analyses memoized for an earlier set keep that set's snapshot, and a
    later run under the earlier set hits them and prints the fresh bytes."""
    from repro.analysis import ProgramFacts

    program = parse_c_program(REFINE_SOURCE, name="refine")
    facts = ProgramFacts(program)
    text = "main\nz == 8\n"
    predicates = parse_predicate_file(text, program)
    first = C2bp(
        program, predicates, context=EngineContext(options=C2bpOptions()),
        facts=facts,
    )
    first.run()
    memoized = first.analysis
    assert memoized.predicates is not predicates
    result = cegar_loop(
        program, initial_predicates=predicates, max_iterations=6,
        context=EngineContext(options=C2bpOptions()), facts=facts,
    )
    # The loop grew the very set the memoized entry was built from.
    assert result.iterations >= 2 and result.predicates is predicates
    assert len(predicates) > 1
    assert [p.name for p in memoized.predicates.all_predicates()] == ["z==8"]

    again = C2bp(
        program, parse_predicate_file(text, program),
        context=EngineContext(options=C2bpOptions()), facts=facts,
    )
    assert again.analysis is memoized
    assert print_bool_program(again.run()) == print_bool_program(
        C2bp(
            program, parse_predicate_file(text, program),
            context=EngineContext(),
        ).run()
    )
    grown = C2bp(
        program, result.predicates, context=EngineContext(), facts=facts
    )
    assert grown.analysis is not memoized
    assert print_bool_program(grown.run()) == print_bool_program(
        C2bp(program, result.predicates, context=EngineContext()).run()
    )


def test_memoized_analyses_count_into_the_current_context():
    from repro.analysis import ProgramFacts

    program = parse_c_program(LIVE_SOURCE, name="live")
    facts = ProgramFacts(program)
    contexts, counts = [], []
    for _ in range(2):
        context = EngineContext(options=C2bpOptions())
        predicates = parse_predicate_file(LIVE_PREDICATES, program)
        C2bp(program, predicates, context=context, facts=facts).run()
        contexts.append(context)
        counts.append(context.analysis_stats.snapshot())
    first, second = counts
    # The hit reuses liveness but still decides (and counts) its slots.
    assert second["predicates_skipped_dead"] == first["predicates_skipped_dead"] > 0
    # Touch queries of the second run land in its own context: the first
    # context's counters were final once its run was over.
    assert second["modref_touch_queries"] > 0
    assert contexts[0].analysis_stats.snapshot() == first
