"""The fuzzing oracles: Theorem-1 trace inclusion plus cross-engine
differentials.

For one :class:`repro.fuzz.gen.FuzzCase` the oracle checks, in order:

1. **Well-formedness** — the abstraction (run with ``validate_output``)
   must produce a boolean program :mod:`repro.boolprog.validate` accepts;
2. **Abstraction determinism** — the printed ``BP(P, E)`` must be
   byte-identical between the default ``allsat`` strengthening (one
   incremental session per search plus the model catalog) and the
   fresh-query reference (:class:`repro.core.cubes.CubeEnumerationStrategy`:
   one fresh prover query per cube), between the incremental theory
   engine and the stateless checker
   (``DpllTBackend(stateless_theory=True)``), between the uncached
   pipeline and a cold, a warm and a repeated (same store object, same
   program facts: the in-memory memo hits) content-addressed
   ``--cache-dir`` store (which must also preserve the model-checking
   verdict through the compiled-table round trip);
3. **Engine agreement** — the explicit-state engine is Bebop's
   reference: it must agree on the reachable-failure *verdict*, on the
   reachable states at every label, and on the set of failing asserts
   (:func:`repro.bebop.explicit_divergence`; budget-capped:
   recursion-free generated programs explore quickly, but the check is
   skipped rather than failed when the state budget runs out);
4. **BMC agreement** — the bit-precise bounded model checker
   (:func:`repro.bmc.run_bmc`) is a fully independent verdict engine: an
   ``unsafe`` verdict must come with a witness that concretely trips an
   assert under wrapping semantics, a witness that also fails under
   unbounded arithmetic must be matched by an unsafe pipeline verdict
   (pipeline *safe* plus a real counterexample is a soundness bug), and
   a complete ``safe`` proof must not be contradicted by any concrete
   wrapped execution.  ``safe-up-to-k`` and ``unsupported`` runs carry
   no conclusion and are skipped;
5. **Theorem 1** — every concrete trace (over the case's argument tuples
   and extern-oracle seeds) must replay cleanly inside ``BP(P, E)`` via
   :class:`repro.core.replay.TraceReplayer`: no blocked ``assume``, no
   predicate/boolean-variable mismatch.  A concretely failing ``assert``
   ends the trace (the prefix property is covered by the model-checking
   differentials; the replayer needs a complete run).

Any deviation is reported as a :class:`CaseReport` with a stable failure
``kind`` — the shrinker preserves the kind while minimizing.
"""

import random

from repro.analysis import ProgramFacts
from repro.bebop import Bebop, ExplicitEngine, explicit_divergence
from repro.boolprog.printer import print_bool_program
from repro.boolprog.validate import ValidationError
from repro.cfront import parse_c_program
from repro.cfront.errors import CFrontError
from repro.cfront.interp import (
    AssertionFailure,
    AssumeViolated,
    InterpError,
    Interpreter,
)
from repro.core import C2bp, C2bpOptions, parse_predicate_file
from repro.core.cubes import CubeEnumerationStrategy
from repro.core.predicates import PredicateParseError
from repro.core.replay import TraceReplayer
from repro.engine import EngineContext
from repro.prover import DpllTBackend

#: Failure kinds, from most to least interesting.
KIND_SOUNDNESS = "soundness"          # Theorem-1 replay violation
KIND_ENGINE = "engine-divergence"     # symbolic / explicit Bebop disagree
KIND_BMC = "bmc-divergence"           # bit-precise BMC / pipeline disagree
KIND_ANALYSIS = "analysis-divergence"  # analysis on/off disagree
KIND_STRENGTHEN = "strengthen-divergence"  # allsat / fresh cubes differ
KIND_THEORY = "theory-divergence"     # incremental / stateless theory differ
KIND_CACHE = "cache-divergence"       # persistent cache changed bytes/verdict
KIND_INVALID_BP = "invalid-bp"        # validator rejected BP(P, E)
KIND_GENERATOR = "generator-invalid"  # case does not parse / typecheck
KIND_INTERP = "interp-error"          # concrete execution trapped


class CaseReport:
    """The oracle's verdict on one case."""

    __slots__ = (
        "case",
        "kind",
        "detail",
        "replays",
        "assert_trips",
        "explicit_checked",
        "cache_checked",
        "bmc_checked",
        "prover_calls",
    )

    def __init__(self, case):
        self.case = case
        self.kind = None
        self.detail = ""
        self.replays = 0
        self.assert_trips = 0
        self.explicit_checked = False
        self.cache_checked = False
        self.bmc_checked = False
        self.prover_calls = 0

    @property
    def ok(self):
        return self.kind is None

    def fail(self, kind, detail):
        self.kind = kind
        self.detail = detail
        return self

    def __repr__(self):
        status = "ok" if self.ok else "%s: %s" % (self.kind, self.detail)
        return "CaseReport(%s, %s)" % (self.case.name, status)


class SoundnessOracle:
    """Runs every oracle against cases; reusable across a fuzz session."""

    def __init__(
        self,
        explicit_budget=60_000,
        max_steps=50_000,
        bmc_depth=16,
        bmc_width=16,
    ):
        self.explicit_budget = explicit_budget
        self.max_steps = max_steps
        # Bound and bit width for the BMC differential (oracle 4).  Width
        # 16 keeps the bit-blasted formulas small while still exposing
        # overflow behavior on the generator's near-INT16_MAX constants.
        self.bmc_depth = bmc_depth
        self.bmc_width = bmc_width

    # -- the individual oracles -------------------------------------------------

    def check(self, case):
        report = CaseReport(case)
        try:
            program = parse_c_program(case.source, name=case.name)
            predicates = parse_predicate_file(case.predicate_text, program)
        except (CFrontError, PredicateParseError) as error:
            return report.fail(KIND_GENERATOR, str(error))
        # One set of program facts serves every abstraction below, as one
        # serves every iteration of a CEGAR loop.
        facts = ProgramFacts(program)

        # 1+2. Abstraction under the default config, validated.
        try:
            tool, boolean_program = self._abstract(
                facts, predicates, C2bpOptions(validate_output=True)
            )
        except ValidationError as error:
            return report.fail(KIND_INVALID_BP, str(error))
        report.prover_calls = tool.stats.prover_calls
        printed = print_bool_program(boolean_program)

        # The incremental session and its AllSAT catalog must be
        # answer-invisible: the fresh-query reference (every cube one
        # fresh prover query) prints the same bytes.
        _, cubes_bp = self._abstract(
            facts, predicates, C2bpOptions(validate_output=True),
            strategy=CubeEnumerationStrategy(),
        )
        cubes_printed = print_bool_program(cubes_bp)
        if cubes_printed != printed:
            return report.fail(
                KIND_STRENGTHEN,
                "allsat and fresh-query strengthening boolean programs "
                "differ:\n"
                + _first_diff(printed, cubes_printed),
            )
        # The incremental theory engine must be answer-invisible: pinning
        # every theory check to the stateless reference prints the same
        # bytes.
        _, stateless_bp = self._abstract(
            facts, predicates, C2bpOptions(validate_output=True),
            backend=DpllTBackend(stateless_theory=True),
        )
        stateless_printed = print_bool_program(stateless_bp)
        if stateless_printed != printed:
            return report.fail(
                KIND_THEORY,
                "incremental and stateless theory boolean programs "
                "differ:\n" + _first_diff(printed, stateless_printed),
            )

        # 2.4. Persistent-cache differential: a cold store population and
        # a warm reload must both print the uncached bytes and reach the
        # uncached verdict (pins the content-addressed keys as sound).
        cache_failure = self._check_cache(case, facts, predicates, printed, report)
        if cache_failure is not None:
            return cache_failure

        # 2.5. Static-analysis differentials: the pruning passes must
        # preserve the model-checking verdict and failure sites of
        # identity mode (every pass off).
        analysis_failure = self._check_analysis(
            case, facts, predicates, boolean_program, report
        )
        if analysis_failure is not None:
            return analysis_failure

        # 3. Model-checking engines.
        engine_failure, fast_run = self._check_engines(case, boolean_program, report)
        if engine_failure is not None:
            return engine_failure

        # 4. Bit-precise BMC as an independent verdict engine.
        bmc_failure = self._check_bmc(case, program, fast_run, report)
        if bmc_failure is not None:
            return bmc_failure

        # 5. Theorem-1 trace inclusion.
        return self._check_replay(case, program, predicates, tool, boolean_program, report)

    def _abstract(
        self, facts, predicates, options, store=None, strategy=None, backend=None
    ):
        # The context is closed on exit, and with it any store it opened.
        with EngineContext(options=options, store=store, backend=backend) as context:
            tool = C2bp(facts.program, predicates, context=context, facts=facts)
            if strategy is not None:
                tool.search.strategy = strategy
            return tool, tool.run()

    def _check_cache(self, case, facts, predicates, printed, report):
        import shutil
        import tempfile

        cache_dir = tempfile.mkdtemp(prefix="repro-fuzz-cache-")
        try:
            uncached_run = None
            store = None
            # cold populates the store, warm reads it back through a new
            # store object, and repeat reuses the warm pass's object: its
            # reuse level answers from memory, and the same program's
            # facts answer from their predicate-set memo.
            for label in ("cold", "warm", "repeat"):
                options = C2bpOptions(validate_output=True, cache_dir=cache_dir)
                tool, cached_bp = self._abstract(
                    facts, predicates, options,
                    store if label == "repeat" else None,
                )
                store = tool.context.store
                cached_printed = print_bool_program(cached_bp)
                if cached_printed != printed:
                    return report.fail(
                        KIND_CACHE,
                        "%s persistent-cache boolean program differs from "
                        "uncached:\n" % label + _first_diff(printed, cached_printed),
                    )
                if uncached_run is None:
                    uncached_run = Bebop(cached_bp, main=case.entry).run()
                # Model check through the store too: verdicts and failure
                # sites must survive the compiled-table round trip.
                with EngineContext(options=options, store=store) as context:
                    cached_run = Bebop(
                        cached_bp, main=case.entry, context=context
                    ).run()
                if (
                    cached_run.error_reached != uncached_run.error_reached
                    or _failure_sites(cached_run) != _failure_sites(uncached_run)
                ):
                    return report.fail(
                        KIND_CACHE,
                        "%s persistent-cache verdict %r (sites %r) but "
                        "uncached %r (sites %r)"
                        % (
                            label,
                            cached_run.error_reached,
                            sorted(_failure_sites(cached_run)),
                            uncached_run.error_reached,
                            sorted(_failure_sites(uncached_run)),
                        ),
                    )
            report.cache_checked = True
            return None
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _check_analysis(self, case, facts, predicates, boolean_program, report):
        from repro.analysis import eliminate_dead_variables

        # The reference: identity mode, every pass that can change the
        # printed or the checked program turned off.
        _, off_bp = self._abstract(
            facts, predicates,
            C2bpOptions(
                validate_output=True,
                live_predicates=False,
                intervals=False,
                bp_dce=False,
            ),
        )
        on_run = Bebop(boolean_program, main=case.entry).run()
        off_run = Bebop(off_bp, main=case.entry).run()
        if on_run.error_reached != off_run.error_reached:
            return report.fail(
                KIND_ANALYSIS,
                "verdict with analysis on %r but off %r"
                % (on_run.error_reached, off_run.error_reached),
            )
        on_sites = _failure_sites(on_run)
        off_sites = _failure_sites(off_run)
        if on_sites != off_sites:
            return report.fail(
                KIND_ANALYSIS,
                "assertion sites with analysis on %r but off %r"
                % (sorted(on_sites), sorted(off_sites)),
            )
        # DCE purity: removing never-read variables must not change the
        # verdict or the failing sites of the same program.
        dce_bp, removed = eliminate_dead_variables(boolean_program)
        if removed:
            dce_run = Bebop(dce_bp, main=case.entry).run()
            if (
                dce_run.error_reached != on_run.error_reached
                or _failure_sites(dce_run) != on_sites
            ):
                return report.fail(
                    KIND_ANALYSIS,
                    "BP dead-variable elimination changed the verdict "
                    "(%r -> %r)" % (on_run.error_reached, dce_run.error_reached),
                )
        return None

    def _check_engines(self, case, boolean_program, report):
        """Returns ``(failure, fast_run)`` — the Bebop run is reused by
        the BMC differential for the pipeline verdict."""
        fast = Bebop(boolean_program, main=case.entry).run()
        explicit = ExplicitEngine(
            boolean_program, main=case.entry, max_configs=self.explicit_budget
        )
        try:
            explicit_failure = explicit.find_assertion_failure() is not None
            divergence = explicit_divergence(fast, explicit)
        except RuntimeError:
            return None, fast  # budget exhausted: skip, do not fail
        report.explicit_checked = True
        if explicit_failure != fast.error_reached:
            return report.fail(
                KIND_ENGINE,
                "explicit engine verdict %r but symbolic verdict %r"
                % (explicit_failure, fast.error_reached),
            ), fast
        if divergence is not None:
            return report.fail(
                KIND_ENGINE, "symbolic and explicit Bebop: " + divergence
            ), fast
        return None, fast

    def _check_bmc(self, case, program, fast_run, report):
        """The bit-precise BMC differential (oracle 4).

        The abstraction pipeline reasons over unbounded integers while
        BMC reasons over fixed-width two's-complement, so the engines
        are only required to agree where the semantics coincide:

        - BMC ``unsafe`` ships a witness; replayed under ``wrap_width``
          it must trip an assert (anything else is an encoder bug);
        - if the witness *also* fails under unbounded arithmetic, the
          failure exists in the pipeline's model too, so a *safe*
          pipeline verdict is a soundness divergence (pipeline-unsafe
          with BMC-safe-up-to-k is fine: the error may live beyond the
          bound or exploit unbounded integers);
        - BMC ``safe`` is a complete proof at the bounded width, so no
          concrete wrapped execution may trip an assert.
        """
        from repro.bmc import (
            VERDICT_SAFE,
            VERDICT_UNSAFE,
            replay_witness,
            run_bmc,
        )
        from repro.bmc.driver import REPLAY_ASSERT_FAILED, REPLAY_COMPLETED

        bmc = run_bmc(
            program, entry=case.entry, depth=self.bmc_depth, width=self.bmc_width
        )
        if bmc.verdict == VERDICT_UNSAFE:
            report.bmc_checked = True
            wrapped = replay_witness(
                program,
                case.entry,
                bmc.witness,
                width=self.bmc_width,
                max_steps=self.max_steps,
            )
            if wrapped == REPLAY_COMPLETED:
                return report.fail(
                    KIND_BMC,
                    "BMC witness %r completes without tripping an assert"
                    % (bmc.witness.to_dict(),),
                )
            if wrapped != REPLAY_ASSERT_FAILED:
                return None  # assume-violated / trapped: no conclusion
            unwrapped = replay_witness(
                program,
                case.entry,
                bmc.witness,
                width=None,
                max_steps=self.max_steps,
            )
            if unwrapped == REPLAY_ASSERT_FAILED and not fast_run.error_reached:
                return report.fail(
                    KIND_BMC,
                    "BMC witness %r fails an assert under unbounded "
                    "arithmetic but the pipeline verdict is safe"
                    % (bmc.witness.to_dict(),),
                )
            return None
        if bmc.verdict == VERDICT_SAFE:
            report.bmc_checked = True
            for args in case.args_list:
                for seed in case.oracle_seeds:
                    interp = Interpreter(
                        program,
                        extern_oracle=_extern_oracle(seed),
                        max_steps=self.max_steps,
                        wrap_width=self.bmc_width,
                    )
                    try:
                        interp.run(case.entry, list(args))
                    except AssertionFailure:
                        return report.fail(
                            KIND_BMC,
                            "BMC proved safe at width %d but args %r seed %r "
                            "trips an assert" % (self.bmc_width, args, seed),
                        )
                    except (AssumeViolated, InterpError):
                        continue  # traps carry no verdict information
            return None
        return None  # safe-up-to-k / unsupported: no conclusion

    def _check_replay(self, case, program, predicates, tool, boolean_program, report):
        for args in case.args_list:
            for seed in case.oracle_seeds:
                # Pre-run: does this concrete execution complete?  A failing
                # assert ends the trace; real traps are generator bugs.
                oracle = _extern_oracle(seed)
                probe = Interpreter(
                    program, extern_oracle=oracle, max_steps=self.max_steps
                )
                try:
                    probe.run(case.entry, list(args))
                except AssertionFailure:
                    report.assert_trips += 1
                    continue
                except InterpError as error:
                    return report.fail(
                        KIND_INTERP,
                        "args %r seed %r: %s" % (args, seed, error),
                    )
                replayer = TraceReplayer(
                    tool,
                    boolean_program,
                    entry=case.entry,
                    args=list(args),
                    extern_oracle=_extern_oracle(seed),
                )
                outcome = replayer.run()
                report.replays += 1
                if outcome.blocked is not None:
                    return report.fail(
                        KIND_SOUNDNESS,
                        "args %r seed %r: replay blocked at %r"
                        % (args, seed, outcome.blocked),
                    )
                if outcome.violations:
                    return report.fail(
                        KIND_SOUNDNESS,
                        "args %r seed %r: %s"
                        % (args, seed, "; ".join(v.detail for v in outcome.violations)),
                    )
        return report


def _failure_sites(result):
    """Assertion-failure sites keyed by source statement, stable across
    structurally different translations of the same program."""
    return {
        (proc, node.stmt.source_sid, node.stmt.comment)
        for proc, node, _ in result.assertion_failures
    }


def _extern_oracle(seed):
    rng = random.Random("extern:%s" % seed)
    return lambda name, args: rng.randint(-4, 4)


def _first_diff(left, right):
    left_lines = left.splitlines()
    right_lines = right.splitlines()
    for index, (a, b) in enumerate(zip(left_lines, right_lines)):
        if a != b:
            return "line %d:\n  - %s\n  + %s" % (index + 1, a, b)
    return "line %d: length differs (%d vs %d lines)" % (
        min(len(left_lines), len(right_lines)) + 1,
        len(left_lines),
        len(right_lines),
    )
