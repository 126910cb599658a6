"""The SLAM iterative refinement loop (Section 6.1).

    abstraction (C2bp)  ->  model checking (Bebop)  ->
    predicate discovery (Newton)  ->  abstraction ...

Termination is not guaranteed (assertion-violation checking is
undecidable); the loop is bounded by ``max_iterations`` and returns
"unknown" if the bound is hit or Newton cannot find new predicates.

The loop threads one :class:`repro.engine.EngineContext` through every
layer, so all iterations share a single prover and its canonical-form
query cache: cube tests whose answers did not change with the new
predicates are cache hits, not fresh decision-procedure runs.  Each
:class:`IterationStats` records the *per-iteration delta* of raw prover
calls, total queries, and cache hits, which is how the cross-iteration
reuse shows up in ``--stats-json`` output.
"""

import time

from repro.analysis import (
    AbstractionReuse,
    ProgramFacts,
    eliminate_dead_variables,
    ensure_analysis_stats,
)
from repro.bebop import Bebop, BebopReuse, ExplicitEngine, reachability_key
from repro.cfront import cast as C
from repro.cfront.exprutils import variables
from repro.core import C2bp, PredicateSet
from repro.core.predicates import Predicate, PredicateParseError
from repro.engine import EngineContext, IterationLog
from repro.newton import analyze_path, path_from_boolean_steps


class IterationStats:
    """One CEGAR iteration's accounting.

    ``prover_calls``/``prover_queries``/``cache_hits`` are deltas for this
    iteration only (C2bp plus Newton), not running totals.
    ``bebop_answers_reused`` is 1 when the store's memo answered the
    iteration's reachability question and Bebop did not run (its
    transfer counters are then 0).
    """

    __slots__ = (
        "iteration",
        "predicates",
        "prover_calls",
        "prover_queries",
        "cache_hits",
        "error_reached",
        "seconds",
        "bebop_transfers_compiled",
        "bebop_transfers_reused",
        "bebop_answers_reused",
        "predicates_skipped_dead",
        "queries_discharged_interval",
        "bp_vars_eliminated",
        "modref_summary_hits",
    )

    def __init__(
        self,
        predicates,
        prover_calls,
        error_reached,
        seconds,
        iteration=0,
        prover_queries=0,
        cache_hits=0,
        bebop_transfers_compiled=0,
        bebop_transfers_reused=0,
        bebop_answers_reused=0,
        predicates_skipped_dead=0,
        queries_discharged_interval=0,
        bp_vars_eliminated=0,
        modref_summary_hits=0,
    ):
        self.iteration = iteration
        self.predicates = predicates
        self.prover_calls = prover_calls
        self.prover_queries = prover_queries
        self.cache_hits = cache_hits
        self.error_reached = error_reached
        self.seconds = seconds
        self.bebop_transfers_compiled = bebop_transfers_compiled
        self.bebop_transfers_reused = bebop_transfers_reused
        self.bebop_answers_reused = bebop_answers_reused
        self.predicates_skipped_dead = predicates_skipped_dead
        self.queries_discharged_interval = queries_discharged_interval
        self.bp_vars_eliminated = bp_vars_eliminated
        self.modref_summary_hits = modref_summary_hits

    def snapshot(self):
        return {
            "iteration": self.iteration,
            "predicates": self.predicates,
            "prover_calls": self.prover_calls,
            "prover_queries": self.prover_queries,
            "cache_hits": self.cache_hits,
            "error_reached": self.error_reached,
            "seconds": round(self.seconds, 6),
            "bebop_transfers_compiled": self.bebop_transfers_compiled,
            "bebop_transfers_reused": self.bebop_transfers_reused,
            "bebop_answers_reused": self.bebop_answers_reused,
            "predicates_skipped_dead": self.predicates_skipped_dead,
            "queries_discharged_interval": self.queries_discharged_interval,
            "bp_vars_eliminated": self.bp_vars_eliminated,
            "modref_summary_hits": self.modref_summary_hits,
        }

    def __repr__(self):
        return (
            "IterationStats(predicates=%d, prover_calls=%d, error=%r, %.2fs)"
            % (self.predicates, self.prover_calls, self.error_reached, self.seconds)
        )


class CegarResult:
    """Outcome of the refinement loop."""

    def __init__(self, verdict, iterations, predicates, trace=None, boolean_program=None):
        self.verdict = verdict  # "safe" | "unsafe" | "unknown"
        self.iterations = iterations
        self.predicates = predicates
        self.trace = trace  # feasible C error path (for "unsafe")
        self.boolean_program = boolean_program
        self.iteration_stats = []
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


def _interval_fallback_predicates(program, tool, predicates):
    """Candidate predicates from the interval analysis' loop-head
    invariants, deduplicated against the current set (Newton-stall
    fallback; empty when intervals are disabled)."""
    if tool.analysis is None:
        return []
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
    result = CegarResult(
        "unknown", iteration, predicates, boolean_program=boolean_program
    )
    from repro.bmc import (
        VERDICT_UNSAFE,
        VERDICT_UNSUPPORTED,
        replay_witness,
        run_bmc,
    )
    from repro.bmc.driver import REPLAY_ASSERT_FAILED

    depth = getattr(ctx.options, "bmc_depth", 16)
    width = getattr(ctx.options, "bmc_width", 16)
    with ctx.phase("bmc-fallback"):
        bmc = run_bmc(program, entry=main, depth=depth, width=width, context=ctx)
    if bmc.verdict == VERDICT_UNSUPPORTED:
        return result
    if bmc.verdict == VERDICT_UNSAFE and bmc.witness is not None:
        # Only a concrete failure under the paper's mathematical-integer
        # semantics may override the pipeline (a wrap-only overflow
        # failure is not an error the logical model recognizes).
        replay = replay_witness(program, main, bmc.witness, width=None)
        if replay == REPLAY_ASSERT_FAILED:
            result = CegarResult(
                "unsafe", iteration, predicates,
                boolean_program=boolean_program,
            )
    result.bounded_verdict = bmc.verdict
    result.bmc_depth = depth
    ctx.events.emit(
        "cegar.bmc_fallback", verdict=bmc.verdict, depth=depth, width=width
    )
    return result


def cegar_loop(
    program,
    initial_predicates=None,
    main="main",
    max_iterations=10,
    options=None,
    prover=None,
    context=None,
    facts=None,
):
    """Run abstraction/check/refine until a verdict or the bound.

    ``facts`` is the program's :class:`repro.analysis.ProgramFacts` when
    the caller keeps one (a warm daemon does); otherwise the loop builds
    its own, once for all iterations."""
    ctx = EngineContext.ensure(context, options=options, prover=prover)
    try:
        return _cegar_loop(
            program, initial_predicates, main, max_iterations, ctx,
            facts if facts is not None else ProgramFacts(program),
        )
    finally:
        if context is None:
            # The loop owns this private context (and any store it
            # opened); close it on every exit path.
            ctx.close()


def _cegar_loop(program, initial_predicates, main, max_iterations, ctx, facts):
    predicates = initial_predicates or PredicateSet()
    engine_prover = ctx.prover
    # One BDD manager + compiled-transfer cache for the whole loop: each
    # refinement changes a few procedures; the rest check with the
    # transfer relations compiled in earlier iterations.
    persistent_tables = None
    # Bebop's answers by reachability key, kept on the store's reuse level
    # (a daemon meets the same checked program again; a store-less loop
    # never does, so it keeps no memo).
    answers = None
    if getattr(ctx, "store", None) is not None:
        answers = ctx.store.reuse_level
        # A --cache-dir run: compiled tables also come from / go to the
        # content-addressed store, so unchanged procedures skip
        # recompilation across *runs*, not just across iterations.
        from repro.serve import BebopTableStore

        persistent_tables = BebopTableStore(ctx.store)
    reuse = BebopReuse(persistent=persistent_tables)
    ctx.stats.register("bebop_loop", reuse.snapshot)
    # Cross-iteration statement-abstraction cache.
    abstraction_reuse = None
    analysis_stats = None
    if getattr(ctx.options, "use_analysis", True):
        analysis_stats = ensure_analysis_stats(ctx)
        if getattr(ctx, "store", None) is not None:
            from repro.serve import PersistentAbstractionReuse

            abstraction_reuse = PersistentAbstractionReuse(
                ctx.store, ctx.options, stats=analysis_stats
            )
        else:
            abstraction_reuse = AbstractionReuse(stats=analysis_stats)
    started = time.perf_counter()
    stats = []
    iteration_log = IterationLog()
    ctx.stats.register("iterations", iteration_log)
    result = None
    boolean_program = None
    interval_fallback_done = False
    for iteration in range(1, max_iterations + 1):
        iter_start = time.perf_counter()
        calls_before = engine_prover.stats.calls
        queries_before = engine_prover.stats.queries
        hits_before = engine_prover.stats.cache_hits
        analysis_before = (
            analysis_stats.snapshot() if analysis_stats is not None else {}
        )
        # Only the predicate set changes between iterations: points-to,
        # CFGs and mod/ref come from the loop's one ProgramFacts.
        tool = C2bp(
            program, predicates, context=ctx, reuse=abstraction_reuse,
            facts=facts,
        )
        boolean_program = tool.run()
        # Model-check the DCE'd program; the result object carries the
        # full translation (its label invariants name every predicate).
        checked_program = boolean_program
        if tool.analysis is not None and getattr(ctx.options, "bp_dce", True):
            checked_program, _ = eliminate_dead_variables(
                boolean_program, stats=analysis_stats
            )
        bebop = error_reached = None
        if answers is not None:
            answer_key = reachability_key(checked_program, main)
            error_reached = answers.answer(answer_key)
        if error_reached is None:
            bebop = Bebop(checked_program, main=main, context=ctx, reuse=reuse)
            error_reached = bebop.run().error_reached
            if answers is not None:
                answers.record_answer(answer_key, error_reached)
        if not error_reached:
            result = CegarResult("safe", iteration, predicates,
                                 boolean_program=boolean_program)
        else:
            # A reachable failing assert: extract a concrete boolean path.
            engine = ExplicitEngine(checked_program, main=main)
            bool_path = engine.find_assertion_failure()
            if bool_path is None:
                # The symbolic engine says reachable but no explicit witness
                # was found within budget: give up rather than guess.
                result = CegarResult("unknown", iteration, predicates,
                                     boolean_program=boolean_program)
            else:
                c_path = path_from_boolean_steps(program, bool_path)
                newton = analyze_path(
                    program, c_path, existing_predicates=predicates, context=ctx
                )
                if newton.feasible:
                    result = CegarResult(
                        "unsafe", iteration, predicates, trace=c_path,
                        boolean_program=boolean_program,
                    )
                elif not newton.new_predicates:
                    # Newton stalled.  Once per run, fall back to the
                    # interval loop invariants as candidate predicates —
                    # a diverging counter often needs exactly the bound
                    # the intervals hand out for free.
                    fallback = []
                    if not interval_fallback_done:
                        interval_fallback_done = True
                        fallback = _interval_fallback_predicates(
                            program, tool, predicates
                        )
                    if fallback:
                        for predicate in fallback:
                            predicates.add(predicate)
                    else:
                        # Diverged for good: take a bounded verdict from
                        # the bit-precise model checker instead of
                        # returning a bare unknown.
                        result = _bounded_fallback(
                            program, main, predicates, ctx, iteration,
                            boolean_program,
                        )
                else:
                    for predicate in newton.new_predicates:
                        predicates.add(predicate)
        analysis_after = (
            analysis_stats.snapshot() if analysis_stats is not None else {}
        )

        def _delta(name):
            return analysis_after.get(name, 0) - analysis_before.get(name, 0)

        record = IterationStats(
            len(predicates),
            engine_prover.stats.calls - calls_before,
            error_reached,
            time.perf_counter() - iter_start,
            iteration=iteration,
            prover_queries=engine_prover.stats.queries - queries_before,
            cache_hits=engine_prover.stats.cache_hits - hits_before,
            bebop_transfers_compiled=bebop.transfers_compiled if bebop else 0,
            bebop_transfers_reused=bebop.transfers_reused if bebop else 0,
            bebop_answers_reused=int(bebop is None),
            predicates_skipped_dead=_delta("predicates_skipped_dead"),
            queries_discharged_interval=_delta("queries_discharged_interval"),
            bp_vars_eliminated=_delta("bp_vars_eliminated"),
            modref_summary_hits=_delta("modref_summary_hits"),
        )
        stats.append(record)
        iteration_log.append(record.snapshot())
        ctx.events.emit("cegar-iteration", **record.snapshot())
        if result is not None:
            break
        # Reclaim the finished iteration's path edges and summaries.
        # (Never after the last iteration: the returned result still
        # queries its BDDs.)
        reuse.end_iteration()
    if result is None:
        result = CegarResult("unknown", max_iterations, predicates,
                             boolean_program=boolean_program)
    result.iteration_stats = stats
    result.total_prover_calls = engine_prover.stats.calls
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
        },
    )
    return result
