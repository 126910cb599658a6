"""The SLAM iterative refinement loop (Section 6.1).

    abstraction (C2bp)  ->  model checking (Bebop)  ->
    predicate discovery (Newton)  ->  abstraction ...

Termination is not guaranteed (assertion-violation checking is
undecidable); the loop is bounded by ``max_iterations`` and returns
"unknown" if the bound is hit or refinement stalls for good.

A :class:`PredicateAbstraction` holds one run behind three calls:
``check`` abstracts and model-checks at the current predicates,
``concretise`` maps a boolean error path to C and asks Newton about it,
and ``add_predicates`` grows the set.  :func:`cegar_loop` drives them,
and walks :data:`STALL_STRATEGIES` when Newton finds nothing new.

The loop threads one :class:`repro.engine.EngineContext` through every
layer, so all iterations share a single prover and its canonical-form
query cache: cube tests whose answers did not change with the new
predicates are cache hits, not fresh decision-procedure runs.  Each
iteration record holds the *per-iteration delta* of the run's counters
(:meth:`PredicateAbstraction.counters`), which is how the
cross-iteration reuse shows up in ``--stats-json`` output.
"""

import time

from repro.analysis import (
    ProgramFacts,
    eliminate_dead_variables,
    ensure_analysis_stats,
)
from repro.bebop import Bebop, BebopReuse, ExplicitEngine, reachability_key
from repro.bmc import VERDICT_UNSAFE, VERDICT_UNSUPPORTED, replay_witness, run_bmc
from repro.bmc.driver import REPLAY_ASSERT_FAILED
from repro.cfront import cast as C
from repro.cfront.exprutils import variables
from repro.core import C2bp, PredicateSet
from repro.core.predicates import Predicate, PredicateParseError
from repro.engine import EngineContext
from repro.newton import analyze_path, path_from_boolean_steps


class CegarResult:
    """Outcome of the refinement loop."""

    def __init__(
        self, verdict, iterations, predicates, trace=None, boolean_program=None,
        unknown_reason=None,
    ):
        self.verdict = verdict  # "safe" | "unsafe" | "unknown"
        self.iterations = iterations
        self.predicates = predicates
        self.trace = trace  # feasible C error path (for "unsafe")
        self.boolean_program = boolean_program
        # Why an "unknown" is one: "max_iterations", "explicit_budget",
        # "explicit_search_empty" or "stalled"; None for other verdicts.
        self.unknown_reason = unknown_reason
        self.iteration_stats = []  # one record dict per iteration
        self.total_prover_calls = 0
        self.seconds = 0.0
        # Filled when the divergence fallback ran the bounded model
        # checker: the BMC verdict ("unsafe" / "safe" / "safe-up-to-k")
        # and the unwinding depth it used.  A replay-validated "unsafe"
        # also upgrades ``verdict`` itself.
        self.bounded_verdict = None
        self.bmc_depth = None

    @property
    def is_safe(self):
        return self.verdict == "safe"

    def __repr__(self):
        return "CegarResult(%s after %d iterations, %d predicates)" % (
            self.verdict,
            self.iterations,
            len(self.predicates),
        )


class Undecided(Exception):
    """A check that cannot decide the run; ``reason`` names why."""

    def __init__(self, reason):
        Exception.__init__(self, reason)
        self.reason = reason


class PredicateAbstraction:
    """One CEGAR run: the program, its growing predicate set, and what
    the last :meth:`check` built."""

    def __init__(self, program, predicates, main, ctx, facts):
        self.program = program
        self.predicates = predicates
        self.main = main
        self.ctx = ctx
        # Only the predicate set changes between iterations: points-to,
        # CFGs and mod/ref come from the run's one ProgramFacts.
        self.facts = facts
        # One BDD manager + compiled-transfer cache for the whole run:
        # each refinement changes a few procedures; the rest check with
        # the transfer relations compiled in earlier iterations (and,
        # with a --cache-dir store, Bebop loads tables compiled by
        # earlier runs).
        self.reuse = BebopReuse()
        ctx.stats.register("bebop_loop", self.reuse.snapshot)
        self.analysis_stats = ensure_analysis_stats(ctx)
        self.tool = None
        self.boolean_program = None
        self.error_reached = None
        # This run's checks answered by the reuse level's answer memo (a
        # daemon's level counts hits across requests).
        self.answers_reused = 0

    def counters(self):
        """The running totals an iteration record takes deltas of."""
        prover = self.ctx.prover.stats
        analysis = self.analysis_stats
        return {
            "prover_calls": prover.calls,
            "prover_queries": prover.queries,
            "cache_hits": prover.cache_hits,
            "bebop_transfers_compiled": self.reuse.transfers_compiled,
            "bebop_transfers_reused": self.reuse.transfers_reused,
            "bebop_answers_reused": self.answers_reused,
            "predicates_skipped_dead": analysis.predicates_skipped_dead,
            "queries_discharged_interval": analysis.queries_discharged_interval,
            "bp_vars_eliminated": analysis.bp_vars_eliminated,
            "modref_summary_hits": analysis.modref_summary_hits,
        }

    def check(self):
        """Abstract and model-check at the current predicates: a boolean
        path to a failing assert, or None when none is reachable.

        Raises :class:`Undecided` when Bebop reaches a failing assert but
        the explicit search finds no path to one."""
        ctx = self.ctx
        self.tool = C2bp(self.program, self.predicates, context=ctx, facts=self.facts)
        self.boolean_program = self.tool.run()
        # Model-check the DCE'd program; the result carries the full
        # translation (its label invariants name every predicate).
        checked = self.boolean_program
        if ctx.options.bp_dce:
            checked, _ = eliminate_dead_variables(checked, stats=self.analysis_stats)
        # Bebop's answers sit on the context's reuse level by
        # reachability key: a daemon meets the same checked program again.
        key = reachability_key(checked, self.main)
        self.error_reached = ctx.reuse_level.answer(key)
        if self.error_reached is None:
            bebop = Bebop(checked, main=self.main, context=ctx, reuse=self.reuse)
            self.error_reached = bebop.run().error_reached
            ctx.reuse_level.record_answer(key, self.error_reached)
        else:
            self.answers_reused += 1
        if not self.error_reached:
            return None
        engine = ExplicitEngine(checked, main=self.main)
        path = engine.find_assertion_failure()
        if path is None:
            # Give up rather than guess, and say which way the search
            # ended: out of budget, or complete without a failing assert
            # (the two engines disagree).
            if engine.configs_explored > engine.max_configs:
                raise Undecided("explicit_budget")
            raise Undecided("explicit_search_empty")
        return path

    def concretise(self, path):
        """Map a boolean error path to C and ask Newton about it:
        ``(trace, predicates)``, the C path when it is feasible (else
        None) and the predicates Newton found."""
        trace = path_from_boolean_steps(self.program, path)
        newton = analyze_path(
            self.program, trace, existing_predicates=self.predicates, context=self.ctx
        )
        return (trace if newton.feasible else None), newton.new_predicates

    def add_predicates(self, predicates):
        """Grow the predicate set for the next check, and reclaim the
        finished check's path edges and summaries.  A run that ends with
        a verdict never gets here, so its last check keeps its BDDs."""
        for predicate in predicates:
            self.predicates.add(predicate)
        self.reuse.end_iteration()

    def result(self, verdict, iteration, **fields):
        return CegarResult(
            verdict, iteration, self.predicates,
            boolean_program=self.boolean_program, **fields
        )


def _interval_fallback_predicates(program, tool, predicates):
    """Candidate predicates from the interval analysis' loop-head
    invariants, deduplicated against the current set (Newton-stall
    fallback; empty when intervals are disabled)."""
    existing = set()
    for p in predicates.all_predicates():
        existing.add((p.scope, p.expr))
        existing.add((p.scope, C.negate(p.expr)))
    global_names = set(program.global_names())
    found = []
    for func in program.defined_functions():
        for expr in tool.analysis.newton_fallback_predicates(func.name):
            scope = None if variables(expr) <= global_names else func.name
            if (scope, expr) in existing or (scope, C.negate(expr)) in existing:
                continue
            try:
                predicate = Predicate(expr, scope)
            except PredicateParseError:
                continue
            existing.add((scope, expr))
            found.append(predicate)
    return found


def _bounded_fallback(program, main, predicates, ctx, iteration, boolean_program):
    """CEGAR diverged (no new predicates, interval fallback exhausted):
    run the bounded model checker for an independent verdict.  A witness
    that concretely fails an assert under the *unbounded* interpreter
    upgrades the verdict to "unsafe"; anything else stays "unknown" but
    records the bounded verdict (``safe-up-to-k`` / ``safe`` at the
    checked width) so callers see how far the program was explored."""
    depth = ctx.options.bmc_depth
    width = ctx.options.bmc_width
    with ctx.phase("bmc-fallback"):
        bmc = run_bmc(program, entry=main, depth=depth, width=width, context=ctx)
    # Only a concrete failure under the paper's mathematical-integer
    # semantics may override the pipeline (a wrap-only overflow failure
    # is not an error the logical model recognizes).
    failed = (
        bmc.verdict == VERDICT_UNSAFE
        and bmc.witness is not None
        and replay_witness(program, main, bmc.witness, width=None)
        == REPLAY_ASSERT_FAILED
    )
    result = CegarResult(
        "unsafe" if failed else "unknown", iteration, predicates,
        boolean_program=boolean_program,
        unknown_reason=None if failed else "stalled",
    )
    if bmc.verdict != VERDICT_UNSUPPORTED:
        result.bounded_verdict = bmc.verdict
        result.bmc_depth = depth
        ctx.events.emit(
            "cegar.bmc_fallback", verdict=bmc.verdict, depth=depth, width=width
        )
    return result


def _interval_stall(run, iteration):
    # A diverging counter often needs exactly the bound the intervals
    # hand out for free.
    return _interval_fallback_predicates(run.program, run.tool, run.predicates)


def _bounded_stall(run, iteration):
    # Diverged for good: a bounded verdict from the bit-precise model
    # checker instead of a bare unknown.
    return _bounded_fallback(
        run.program, run.main, run.predicates, run.ctx, iteration,
        run.boolean_program,
    )


#: What the driver tries, in order and each at most once per run, when
#: Newton finds no new predicate.  A strategy returns predicates to add
#: (an empty list moves on to the next) or the run's result; the last
#: always returns a result.
STALL_STRATEGIES = (_interval_stall, _bounded_stall)


def cegar_loop(
    program,
    initial_predicates=None,
    main="main",
    max_iterations=10,
    context=None,
    facts=None,
):
    """Run abstraction/check/refine until a verdict or the bound.

    ``facts`` is the program's :class:`repro.analysis.ProgramFacts` when
    the caller keeps one (a warm daemon does); otherwise the loop builds
    its own, once for all iterations."""
    ctx = context if context is not None else EngineContext()
    try:
        return _cegar_loop(
            PredicateAbstraction(
                program, initial_predicates or PredicateSet(), main, ctx,
                facts if facts is not None else ProgramFacts(program),
            ),
            max_iterations,
        )
    finally:
        if context is None:
            # The loop owns this private context; close it on every
            # exit path.
            ctx.close()


def _cegar_loop(run, max_iterations):
    ctx = run.ctx
    records = []
    ctx.stats.register("iterations", lambda: [dict(record) for record in records])
    stalls = list(STALL_STRATEGIES)
    started = time.perf_counter()
    for iteration in range(1, max_iterations + 1):
        before = run.counters()
        iteration_started = time.perf_counter()
        result = _iterate(run, iteration, stalls)
        after = run.counters()
        record = {
            "iteration": iteration,
            "predicates": len(run.predicates),
            "error_reached": run.error_reached,
            "seconds": round(time.perf_counter() - iteration_started, 6),
        }
        record.update((name, after[name] - before[name]) for name in after)
        records.append(record)
        ctx.events.emit("cegar-iteration", **record)
        if result is not None:
            break
    else:
        result = run.result("unknown", max_iterations, unknown_reason="max_iterations")
    result.iteration_stats = records
    result.total_prover_calls = ctx.prover.stats.calls
    result.seconds = time.perf_counter() - started
    ctx.stats.register(
        "cegar",
        {
            "verdict": result.verdict,
            "iterations": result.iterations,
            "predicates": len(result.predicates),
            "total_prover_calls": result.total_prover_calls,
            "seconds": round(result.seconds, 6),
            "bounded_verdict": result.bounded_verdict,
            "bmc_depth": result.bmc_depth,
            "unknown_reason": result.unknown_reason,
        },
    )
    return result


def _iterate(run, iteration, stalls):
    """One check / concretise / refine round: the run's result, or None
    once the predicate set has grown."""
    try:
        path = run.check()
    except Undecided as undecided:
        return run.result("unknown", iteration, unknown_reason=undecided.reason)
    if path is None:
        return run.result("safe", iteration)
    trace, predicates = run.concretise(path)
    if trace is not None:
        return run.result("unsafe", iteration, trace=trace)
    while not predicates:  # Newton stalled
        outcome = stalls.pop(0)(run, iteration)
        if isinstance(outcome, CegarResult):
            return outcome
        predicates = outcome
    run.add_predicates(predicates)
    return None
