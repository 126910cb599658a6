"""The prover front door used by C2bp and Newton.

Mirrors how the paper uses Simplify/Vampyre: a black-box oracle for
"does this conjunction of C expressions imply that C expression?", with
query caching (Section 5.2, optimization five) and call counting (the
"thm. prover calls" column of Tables 1 and 2).

The front door is split from the decision procedure behind it:

- :class:`Prover` owns the counters, the (shareable, canonical-form)
  :class:`repro.prover.cache.QueryCache`, and optional event reporting;
- a *backend* answers the actual satisfiability questions.  The built-in
  :class:`DpllTBackend` runs the from-scratch DPLL(T) stack in
  :mod:`repro.prover.smt`.  Any object with the same members can stand
  in (``Prover(backend=...)``, ``EngineContext(backend=...)``):
  ``check_implication(antecedents, consequent)`` and
  ``check_satisfiable(exprs)`` answer with a :class:`Satisfiability`
  (UNSAT means the implication is valid), ``name`` labels stats and
  traces, and ``open_cube_session(candidates, goal, want_cores=True)``
  opens the incremental cube session strengthening runs on.

For the cube-heavy ``F_V``/``G_V`` strengthening loops the per-query path
is wasteful: the goal is fixed and only the cube literals vary.
:meth:`Prover.cube_session` opens a :class:`CubeProverSession` that keeps
the canonical-form cache and all counters as the outer layer but answers
cache misses from an AllSAT :class:`repro.prover.allsat.ModelCatalog` and
the backend's incremental assumption engine
(:class:`repro.prover.incremental.IncrementalCubeSession`).
:class:`FreshCubeProverSession` is the fresh-query reference the fuzz
oracle and the tests compare it against.
"""

import time

from repro.cfront import cast as C
from repro.cfront.exprutils import fold_constants
from repro.prover import terms as T
from repro.prover.allsat import ModelCatalog
from repro.prover.cache import QueryCache
from repro.prover.incremental import SESSION_COUNTER_NAMES, IncrementalCubeSession
from repro.prover.smt import Satisfiability, check_formula
from repro.prover.theory import IncrementalTheory


class ProverStats:
    """Counters surfaced in the experiment tables."""

    def __init__(self):
        self.queries = 0  # every implication request
        self.calls = 0  # actual decision-procedure invocations (cache misses)
        self.cache_hits = 0
        self.valid = 0
        self.invalid = 0
        self.unknown = 0
        # Incremental cube-engine counters.
        self.cube_sessions = 0  # CubeProverSession objects opened
        self.assumption_solves = 0  # SAT solves under selector assumptions
        self.cnf_encodings_saved = 0  # cube decides answered w/o re-encoding
        self.lemmas_learned = 0  # theory lemmas added to session solvers
        self.lemmas_reused = 0  # decides settled by earlier cubes' lemmas
        self.core_shrinks = 0  # unsat cores strictly smaller than the cube
        # AllSAT strengthening counters.
        self.allsat_sweeps = 0  # model-enumeration sweeps run
        self.allsat_models = 0  # theory-validated projections stored
        self.allsat_model_hits = 0  # cube queries answered by a stored model
        self.allsat_sweep_solves = 0  # SAT solves spent enumerating models
        # Incremental theory-engine counters (the per-session
        # IncrementalTheory instances inside cube sessions).
        self.theory_delta_queries = 0  # queries answered by delta closure
        self.theory_cache_hits = 0  # fallback queries answered from cache
        self.allsat_sweep_theory_deltas = 0  # delta queries inside sweeps
        # Cube queries settled by the static-analysis discharger before
        # any prover work (and before the prover timers start), kept
        # distinct so they do not read as zero-time generalize entries.
        self.queries_discharged = 0
        # Per-phase wall-clock attribution (seconds), accumulated from the
        # cube sessions (both engines) so benchmark rows can say *where*
        # the time went: encoding, SAT solving, or core/model work.
        self.time_in_encode = 0.0
        self.time_in_solve = 0.0
        self.time_in_generalize = 0.0
        # Sub-attribution of generalize time spent inside the theory
        # engine: delta-closure work vs fallback (cached reference) work.
        self.time_in_theory_closure = 0.0
        self.time_in_theory_cache = 0.0

    def reset(self):
        self.__init__()

    def snapshot(self):
        return {
            "queries": self.queries,
            "calls": self.calls,
            "cache_hits": self.cache_hits,
            "valid": self.valid,
            "invalid": self.invalid,
            "unknown": self.unknown,
            "cube_sessions": self.cube_sessions,
            "assumption_solves": self.assumption_solves,
            "cnf_encodings_saved": self.cnf_encodings_saved,
            "lemmas_learned": self.lemmas_learned,
            "lemmas_reused": self.lemmas_reused,
            "core_shrinks": self.core_shrinks,
            "allsat_sweeps": self.allsat_sweeps,
            "allsat_models": self.allsat_models,
            "allsat_model_hits": self.allsat_model_hits,
            "allsat_sweep_solves": self.allsat_sweep_solves,
            "theory_delta_queries": self.theory_delta_queries,
            "theory_cache_hits": self.theory_cache_hits,
            "allsat_sweep_theory_deltas": self.allsat_sweep_theory_deltas,
            "queries_discharged": self.queries_discharged,
            "time_in_encode": round(self.time_in_encode, 6),
            "time_in_solve": round(self.time_in_solve, 6),
            "time_in_generalize": round(self.time_in_generalize, 6),
            "time_in_theory_closure": round(self.time_in_theory_closure, 6),
            "time_in_theory_cache": round(self.time_in_theory_cache, 6),
        }

    def __repr__(self):
        return "ProverStats(%r)" % (self.snapshot(),)


class DpllTBackend:
    """The built-in lazy DPLL(T) decision procedure.

    Both check methods answer with a :class:`Satisfiability`, and
    :meth:`open_cube_session` opens the incremental cube sessions.
    ``stateless_theory=True`` makes the reference backend the fuzz
    oracle's ``theory-divergence`` check compares against: its sessions
    decide every theory query from scratch with ``check_literals`` and
    never build an :class:`IncrementalTheory`.
    """

    name = "dpllt"

    def __init__(self, max_rounds=400, stateless_theory=False):
        self.max_rounds = max_rounds
        self.stateless_theory = stateless_theory

    def check_implication(self, antecedents, consequent):
        """Satisfiability of ``/\\ antecedents && !consequent`` — UNSAT
        means the implication is valid."""
        ctx = T.TranslationContext()
        antecedent_formulas = [T.translate_formula(e, ctx) for e in antecedents]
        consequent_formula = T.translate_formula(consequent, ctx)
        query = T.land(*antecedent_formulas, T.lnot(consequent_formula))
        axioms = list(ctx.defs) + T.address_axioms(T.land(query, *ctx.defs))
        return check_formula(query, axioms, max_rounds=self.max_rounds)

    def check_satisfiable(self, exprs):
        """Joint satisfiability of a conjunction of C boolean expressions."""
        ctx = T.TranslationContext()
        formulas = [T.translate_formula(e, ctx) for e in exprs]
        conjunction = T.land(*formulas)
        axioms = list(ctx.defs) + T.address_axioms(T.land(conjunction, *ctx.defs))
        return check_formula(conjunction, axioms, max_rounds=self.max_rounds)

    def open_cube_session(self, candidates, goal, want_cores=True):
        """An :class:`IncrementalCubeSession` deciding cubes over
        ``candidates`` against the fixed ``goal``.  ``want_cores=False``
        skips the assumption-core mapping and its validation — the right
        policy for throwaway per-query sessions whose caller discards the
        core anyway."""
        return IncrementalCubeSession(
            candidates,
            goal,
            max_rounds=self.max_rounds,
            want_cores=want_cores,
            theory=None if self.stateless_theory else IncrementalTheory(),
        )


class CubeProverSession:
    """Cached cube decisions against one fixed goal.

    The outer layer — canonical-form :class:`QueryCache`, stats counters,
    event reporting — is identical to :meth:`Prover.implies`, so cached
    answers are shared with plain implication queries across the whole
    engine context.  Cache misses are first tried against a
    :class:`repro.prover.allsat.ModelCatalog`'s swept model projections,
    which answers the SAT-side ("cube does not imply goal") queries
    without a solver or theory call; the rest go to the backend's
    incremental assumption engine, whose UNSAT answers carry an
    assumption core.  Both are built lazily, so a fully cached
    strengthening call never pays for an encoding."""

    def __init__(self, prover, candidates, goal):
        self.prover = prover
        self.candidates = tuple(candidates)
        self._negated = tuple(C.negate(expr) for expr in self.candidates)
        self.goal = goal
        self._session = None
        self._catalog = None
        # Constant-folded cube literals and goal for the cache key, each
        # folded on first use (short sessions decide only a few cubes).
        self._folded = {}
        self._folded_goal = None
        prover.stats.cube_sessions += 1

    def cube_exprs(self, cube):
        """The concretization of a cube as C expressions."""
        return tuple(
            self.candidates[index] if polarity else self._negated[index]
            for index, polarity in cube
        )

    def _cache_key(self, cube):
        folded = self._folded
        literals = []
        for literal in cube:
            expr = folded.get(literal)
            if expr is None:
                index, polarity = literal
                expr = fold_constants(
                    self.candidates[index] if polarity else self._negated[index]
                )
                folded[literal] = expr
            literals.append(expr)
        if self._folded_goal is None:
            self._folded_goal = fold_constants(self.goal)
        return QueryCache.folded_key("implies", literals, self._folded_goal)

    def implies_cube(self, cube):
        """Does the cube's concretization imply the goal?

        Returns ``(result, core)`` where ``core`` — when the backend
        reports one strictly smaller than the cube — is the sub-cube that
        already forces the implication (usable to prune supersets without
        further queries); ``None`` otherwise."""
        cube = tuple(cube)
        prover = self.prover
        stats = prover.stats
        stats.queries += 1
        key = self._cache_key(cube)
        if prover.enable_cache:
            hit, value = prover.cache.lookup(key)
            if hit:
                stats.cache_hits += 1
                prover._emit("implies", cached=True, result=value, seconds=0.0)
                return value, None
        started = time.perf_counter()
        outcome, core = self._decide_miss(cube)
        elapsed = time.perf_counter() - started
        stats.calls += 1
        result = outcome is Satisfiability.UNSAT
        if result:
            stats.valid += 1
        elif outcome is Satisfiability.UNKNOWN:
            stats.unknown += 1
        else:
            stats.invalid += 1
        if prover.enable_cache:
            prover.cache.store(key, result)
        prover._emit("implies", cached=False, result=result, seconds=elapsed)
        return result, core

    def _decide_miss(self, cube):
        """``(outcome, core)`` for a cube the query cache did not answer."""
        if self._session is None:
            self._session = self.prover.backend.open_cube_session(
                self.candidates, self.goal
            )
            # From zero: the session's constructor already encoded the
            # query, and that work belongs in the stats too.
            self._synced = dict.fromkeys(self._session.counters(), 0)
            self._catalog = ModelCatalog()
            self._catalog_synced = self._catalog.counters()
        self._catalog.ensure_swept(self._session)
        outcome = core = None
        if self._catalog.covers(cube):
            # A swept model satisfies every literal of the cube:
            # E(cube) ∧ ¬goal has a theory-consistent model, so the
            # implication does not hold — no decide needed.
            outcome = Satisfiability.SAT
        else:
            stats = self.prover.stats
            if self._session.decides > 0:
                # The fresh reference would have re-encoded the whole query.
                stats.cnf_encodings_saved += 1
            outcome, raw_core = self._session.decide(cube)
            if raw_core is not None and len(raw_core) < len(cube):
                core = raw_core
                stats.core_shrinks += 1
        self._sync_session_counters()
        return outcome, core

    def _sync_session_counters(self):
        current = self._session.counters()
        stats = self.prover.stats
        stats.assumption_solves += (
            current["assumption_solves"] - self._synced["assumption_solves"]
        )
        stats.lemmas_learned += (
            current["lemmas_learned"] - self._synced["lemmas_learned"]
        )
        stats.lemmas_reused += (
            current["lemma_reuse_hits"] - self._synced["lemma_reuse_hits"]
        )
        for name in SESSION_COUNTER_NAMES:
            setattr(
                stats,
                name,
                getattr(stats, name)
                + current.get(name, 0)
                - self._synced.get(name, 0),
            )
        self._synced = current
        current_catalog = self._catalog.counters()
        for name, value in current_catalog.items():
            setattr(
                stats, name, getattr(stats, name) + value - self._catalog_synced[name]
            )
        self._catalog_synced = current_catalog


class FreshCubeProverSession(CubeProverSession):
    """The fresh-query reference behind
    :class:`repro.core.cubes.CubeEnumerationStrategy`.

    The outer layer (cache, counters, events) is the production
    session's, so both count calls alike.  Every cache miss is decided
    on a throwaway backend session that decides that one cube and is
    dropped: the same clause universe and theory-relevance rules as the
    incremental engine — so the two compute the same answer for every
    cube — but nothing carries from one cube to the next.  No model
    catalog is consulted and no assumption core is read (the throwaway
    session skips the core mapping)."""

    def _decide_miss(self, cube):
        throwaway = self.prover.backend.open_cube_session(
            self.candidates, self.goal, want_cores=False
        )
        outcome, _ = throwaway.decide(cube)
        stats = self.prover.stats
        counters = throwaway.counters()
        for name in SESSION_COUNTER_NAMES:
            setattr(stats, name, getattr(stats, name) + counters[name])
        return outcome, None


class Prover:
    """A cached validity checker over quantifier-free C expressions."""

    def __init__(
        self,
        enable_cache=True,
        max_rounds=400,
        cache=None,
        backend=None,
        events=None,
    ):
        self.stats = ProverStats()
        self.enable_cache = enable_cache
        self.max_rounds = max_rounds
        self.backend = backend if backend is not None else DpllTBackend(max_rounds)
        self.cache = cache if cache is not None else QueryCache()
        self.events = events

    # -- public API -----------------------------------------------------------

    def implies(self, antecedents, consequent):
        """Is ``/\\ antecedents => consequent`` valid?

        ``antecedents`` is an iterable of C boolean expressions (possibly
        empty); ``consequent`` a C boolean expression.  A ``False`` answer
        means "could not prove" — the formula may still be valid.
        """
        antecedents = tuple(antecedents)
        self.stats.queries += 1
        key = QueryCache.key("implies", antecedents, consequent)
        if self.enable_cache:
            hit, value = self.cache.lookup(key)
            if hit:
                self.stats.cache_hits += 1
                self._emit("implies", cached=True, result=value, seconds=0.0)
                return value
        started = time.perf_counter()
        outcome = self.backend.check_implication(antecedents, consequent)
        elapsed = time.perf_counter() - started
        self.stats.calls += 1
        result = outcome is Satisfiability.UNSAT
        if result:
            self.stats.valid += 1
        elif outcome is Satisfiability.UNKNOWN:
            self.stats.unknown += 1
        else:
            self.stats.invalid += 1
        if self.enable_cache:
            self.cache.store(key, result)
        self._emit("implies", cached=False, result=result, seconds=elapsed)
        return result

    def cube_session(self, candidates, goal):
        """Open a :class:`CubeProverSession` for one strengthening call:
        repeated cube implication tests over ``candidates`` against the
        fixed ``goal``."""
        return CubeProverSession(self, candidates, goal)

    def is_valid(self, expr):
        return self.implies((), expr)

    def is_satisfiable(self, exprs):
        """Joint satisfiability of C boolean expressions (used by Newton
        for path feasibility).  Returns a :class:`Satisfiability`."""
        exprs = tuple(exprs)
        self.stats.queries += 1
        key = QueryCache.key("sat", exprs)
        if self.enable_cache:
            hit, value = self.cache.lookup(key)
            if hit:
                self.stats.cache_hits += 1
                self._emit("sat", cached=True, result=value, seconds=0.0)
                return value
        started = time.perf_counter()
        self.stats.calls += 1
        result = self.backend.check_satisfiable(exprs)
        elapsed = time.perf_counter() - started
        if result is Satisfiability.UNKNOWN:
            self.stats.unknown += 1
        if self.enable_cache:
            self.cache.store(key, result)
        self._emit("sat", cached=False, result=result, seconds=elapsed)
        return result

    # -- internals -----------------------------------------------------------

    def _emit(self, query, cached, result, seconds):
        if self.events is None:
            return
        self.events.emit(
            "prover-query",
            query=query,
            cached=cached,
            result=result.name if isinstance(result, Satisfiability) else result,
            seconds=round(seconds, 6),
        )
