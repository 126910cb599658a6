"""Configuration knobs for C2bp (the Section 5 extensions/optimizations).

Every optimization of the paper can be toggled off so the ablation
benchmarks can measure its effect on the number of theorem prover calls;
defaults match the configuration the paper reports results with.  The
engines themselves are not options: strengthening always runs on AllSAT
sessions with the incremental theory, and the references they are
differentially tested against (:class:`repro.core.cubes.CubeEnumerationStrategy`,
``DpllTBackend(stateless_theory=True)``) are chosen by the fuzz oracle and
the tests when they build the objects.
"""

import dataclasses


#: The :class:`C2bpOptions` fields a statement's translation (and its
#: enforce invariant, and the analyses behind both) can read: the fields
#: that key every cache of translation inputs and outputs.  Deliberately
#: excludes the knobs no translation reads, so configurations that
#: provably print the same bytes share entries.  Each has a named user:
#: ``cache_prover`` the paper's optimization-five ablation
#: (``benchmarks/test_bench_ablation.py``); ``jobs`` the ``perfbench``
#: workloads, which pin ``jobs=1``; ``bp_dce`` (a post-pass) the
#: analysis benchmark's ``--no-bp-dce`` configuration and the fuzz
#: oracle's identity mode; ``validate_output`` the fuzz oracle and the
#: corpus-repro workflow in ``docs/TESTING.md``; ``cache_dir`` and
#: ``cache_max_bytes`` the ``--cache-dir`` store and ``repro serve``;
#: ``bmc_depth`` and ``bmc_width`` the CEGAR stall fallback, whose
#: bounds stay named flags.
SEMANTIC_OPTION_FIELDS = (
    "max_cube_length",
    "cone_of_influence",
    "skip_unchanged",
    "syntactic_heuristics",
    "distribute_f",
    "compute_enforce",
    "enforce_cube_length",
    "use_alias_analysis",
    "invalidate_constant_derefs",
    "use_analysis",
    "live_predicates",
    "intervals",
)


@dataclasses.dataclass
class C2bpOptions:
    #: Maximum cube length considered by the F/G search.  The paper
    #: (Section 5.2) notes that "setting k to 3 provides the needed
    #: precision in most cases"; ``None`` means unbounded (exponential).
    max_cube_length: int = 3

    #: Syntactic cone-of-influence restriction of the candidate variable
    #: set before cube enumeration (optimization three).
    cone_of_influence: bool = True

    #: Skip updating variables whose weakest precondition is syntactically
    #: unchanged (optimization two).
    skip_unchanged: bool = True

    #: Return the variable directly when the query is (the negation of) a
    #: predicate in E, without prover calls (optimization four).
    syntactic_heuristics: bool = True

    #: Cache theorem prover and alias queries (optimization five).  Its
    #: user is the paper's ablation (``benchmarks/test_bench_ablation.py``).
    cache_prover: bool = True

    #: Recursively distribute F over && and || (precision-losing through
    #: ||, Section 5.2 last paragraph).
    distribute_f: bool = False

    #: Compute and attach the per-procedure ``enforce`` invariant
    #: Omega = not F(false) (Section 5.1).
    compute_enforce: bool = True

    #: Maximum cube length used for the enforce computation.  Must keep
    #: pace with the predicate correlations the abstraction relies on (the
    #: syntactic shortcut "b stands for phi" is exact only below Omega);
    #: the paper computes Omega = not F(false) with the same k as F.
    enforce_cube_length: int = 3

    #: Use the points-to analysis to prune Morris disjuncts (Section 4.2).
    use_alias_analysis: bool = True

    #: Invalidate (rather than strengthen) a predicate whose weakest
    #: precondition dereferences a constant address — e.g. after
    #: ``prev = NULL`` the predicate ``prev->val > v`` mentions ``0->val``
    #: and is "undefined ... and thus invalidated" (Section 2.1).
    invalidate_constant_derefs: bool = True

    #: Kept only so existing callers that pin ``jobs=1`` (the
    #: ``perfbench`` workloads) keep working: statement abstraction
    #: always runs serially in-process, and any other value raises
    #: :class:`ValueError`.
    jobs: int = 1

    #: Master switch for the static-analysis subsystem
    #: (:mod:`repro.analysis`).  Off reproduces the pre-analysis pipeline
    #: exactly: no liveness pruning, no interval discharge, no BP DCE,
    #: no cross-iteration abstraction reuse.
    use_analysis: bool = True

    #: Backward live-predicate analysis: C2bp emits ``unknown()`` for
    #: (statement, predicate) slots whose value cannot reach any
    #: observation point, skipping their cube searches, and the CEGAR
    #: loop reuses translations of statements the new predicates cannot
    #: touch.  Requires ``use_analysis``.
    live_predicates: bool = True

    #: Interval abstract interpretation: discharge cube validity queries
    #: the intervals already decide before any prover call, and export
    #: loop-head invariants as candidate predicates when Newton stalls.
    #: Requires ``use_analysis``.
    intervals: bool = True

    #: Boolean-program dead-variable elimination before model checking
    #: (never-read variables and their assignments are removed; verdicts
    #: and label invariants over surviving variables are unchanged).
    #: Requires ``use_analysis``.  Its users are ``--no-bp-dce``, the
    #: analysis benchmark and the fuzz oracle's identity mode.
    bp_dce: bool = True

    #: Root directory of the content-addressed persistent cache
    #: (:class:`repro.serve.PersistentStore`).  ``None`` (the default)
    #: keeps every cache in-process, exactly the pre-serve behaviour;
    #: a path makes prover answers, statement abstractions, and compiled
    #: Bebop tables survive the process (``--cache-dir``).
    cache_dir: str = None

    #: LRU byte cap for the persistent store; ``None`` means uncapped.
    #: When a write pushes the store past the cap, least-recently-used
    #: records are evicted down to 90% of it (``--cache-max-bytes``).
    cache_max_bytes: int = None

    #: Run :func:`repro.boolprog.validate.validate_bool_program` on the
    #: translated program before returning it (``--validate-bp``), so a
    #: malformed ``BP(P, E)`` fails at generation time instead of
    #: surfacing as a downstream Bebop error.  The fuzz oracle always
    #: enables this, and the corpus-repro workflow in ``docs/TESTING.md``
    #: passes ``--validate-bp``.
    validate_output: bool = False

    #: Unwinding depth of the bounded model checker that CEGAR runs when
    #: it stalls (no new predicates, interval fallback exhausted): the
    #: bound on back-edge traversals and recursive re-entries per
    #: function instance (``--bmc-depth``).  A replay-validated
    #: counterexample upgrades the stalled verdict to ``unsafe``;
    #: otherwise the result records the bounded verdict.
    bmc_depth: int = 16

    #: Bit width of the two's-complement integers in that BMC run
    #: (``--bmc-width``).
    bmc_width: int = 16

    def __post_init__(self):
        if self.jobs != 1:
            raise ValueError(
                "jobs=%r: the statement worker pool was removed; C2bp "
                "always runs serially (jobs=1)" % (self.jobs,)
            )

    def copy(self, **overrides):
        return dataclasses.replace(self, **overrides)
