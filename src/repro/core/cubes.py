"""The cube strengthening search: ``F_V(φ)`` and ``G_V(φ)`` (Section 4.1).

A *cube* over the boolean variables ``V`` is a conjunction of literals over
distinct variables.  ``F_V(φ)`` is the largest disjunction of cubes ``c``
such that ``E(c)`` implies ``φ``; it is the weakest predicate over ``E(V)``
that implies ``φ``.  ``G_V(φ) = ¬F_V(¬φ)`` is the strongest predicate over
``E(V)`` implied by ``φ``.

Each cube test is one theorem prover call.  The naive search makes
exponentially many; the Section 5.2 optimizations implemented here are:

- cubes are enumerated in increasing length, and any cube containing a
  known implicant is pruned (so the result is a disjunction of *prime*
  implicants only);
- a cube that implies ``¬φ`` prunes all its supersets;
- cube length can be bounded by ``max_cube_length`` (paper: ``k = 3``
  usually suffices — a precision/speed tradeoff);
- ``F`` can be distributed through ``&&`` (lossless) and ``||`` (lossy);
- the syntactic shortcut returns the variable directly when ``φ`` (or its
  negation) is literally a predicate of ``V``.

*How* the cube space is explored is a pluggable
:class:`StrengtheningStrategy`:

- :class:`CubeEnumerationStrategy` — the paper's increasing-length
  enumeration with superset pruning, every cube one fresh prover query;
  the reference the optimized strategy is differentially tested against;
- :class:`AllSatStrategy` — the same enumeration order (so the kept cube
  lists, and hence the printed boolean program, are byte-identical) on
  one incremental assumption-based session per search, whose assumption
  cores prune supersets early, backed by a
  :class:`repro.prover.allsat.ModelCatalog`: one AllSAT sweep enumerates
  theory-validated models of ``¬φ ∧ axioms`` projected onto the
  candidates, and each stored projection answers all the SAT-side cube
  queries it covers with a tuple comparison instead of a solver +
  theory-check loop.

The strategy owns the session policy: the reference's throwaway
per-query sessions never map or validate assumption cores (nobody reads
them), so the audited core-validation code path runs only in the
incremental session that uses it.
"""

import itertools

from repro.cfront import cast as C
from repro.cfront.exprutils import fold_constants, is_trivially_false, is_trivially_true
from repro.boolprog import ast as B
from repro.prover.allsat import ModelCatalog


class Cube(tuple):
    """A cube as a tuple of (candidate index, polarity) pairs."""

    def contains(self, other):
        return set(other).issubset(set(self))


_KEEP = "keep"
_PRUNE = "prune"


class StrengtheningStrategy:
    """How a :class:`CubeSearch` explores the cube space.

    A strategy owns session opening (incrementality, core policy, model
    catalog) and the enumeration loops behind :meth:`CubeSearch.implicant_cubes`
    and :meth:`CubeSearch.inconsistent_cubes`.  All strategies must
    return identical kept-cube lists — they differ only in how many
    prover decides it takes to get there."""

    name = "?"

    def open_session(self, search, candidates, goal):
        raise NotImplementedError

    def search_implicants(self, search, candidates, phi, limit):
        raise NotImplementedError

    def search_inconsistent(self, search, candidates, limit):
        raise NotImplementedError


class CubeEnumerationStrategy(StrengtheningStrategy):
    """The paper's Section 5.2 search: enumerate cubes in increasing
    length with superset pruning, one prover decide per undecided cube."""

    name = "cubes"

    def _enumerate(self, candidates, limit, classify):
        """The shared pruning enumeration.

        Cubes are enumerated in increasing length; any cube containing an
        already-kept or already-pruned cube is skipped, so the result is
        minimal (prime) cubes only.  ``classify(cube)`` returns a pair
        ``(verdict, record)``: verdict ``_KEEP`` (collect, prune
        supersets), ``_PRUNE`` (prune supersets only), or ``None``
        (undecided — supersets stay eligible), with ``record`` the cube to
        put on the kept/pruned list.  ``record`` is normally the cube
        itself; when the prover reports an assumption core it is the
        smaller sub-cube whose literals alone force the verdict, which
        prunes strictly more supersets without further queries.
        """
        if limit is None or limit > len(candidates):
            limit = len(candidates)
        kept = []
        pruned = []
        for length in range(1, limit + 1):
            for var_indices in itertools.combinations(range(len(candidates)), length):
                for polarities in itertools.product([True, False], repeat=length):
                    cube = Cube(zip(var_indices, polarities))
                    if any(cube.contains(found) for found in kept):
                        continue
                    if any(cube.contains(bad) for bad in pruned):
                        continue
                    verdict, record = classify(cube)
                    if verdict == _KEEP:
                        kept.append(record)
                    elif verdict == _PRUNE:
                        pruned.append(record)
        return kept

    def open_session(self, search, candidates, goal):
        """A cube-decision session over the candidates' concretizations
        against ``goal`` that answers every cache miss with a fresh
        prover query (no assumption cores)."""
        return search.prover.cube_session(
            [candidate.expr for candidate in candidates],
            goal,
            incremental=False,
            theory_incremental=getattr(
                search.options, "theory_incremental", True
            ),
        )

    def search_implicants(self, search, candidates, phi, limit):
        # The validity precheck is the empty-cube decision; it shares the
        # cache key with Prover.is_valid(phi) and, on an incremental
        # session, warms the solver state every later cube reuses.
        implies_phi = self.open_session(search, candidates, phi)
        valid, _ = search._decide(implies_phi, ())
        if valid:
            return [Cube()]
        implies_not_phi = self.open_session(search, candidates, C.negate(phi))
        # The mirror precheck: an unsatisfiable φ is implied only by cubes
        # that are themselves inconsistent — every one a false disjunct, so
        # F(φ) is false without enumerating.  Deciding this up front also
        # keeps the strategies aligned: the incremental session would
        # refute each cube with an *empty* assumption core (pruning
        # everything), while the fresh-query reference keeps the vacuous
        # implicants it happens to test first.
        refuted, _ = search._decide(implies_not_phi, ())
        if refuted:
            return []

        def classify(cube):
            result, record = search._cube_query(implies_phi, cube, "implicant")
            if result:
                return _KEEP, record
            result, record = search._cube_query(implies_not_phi, cube, "refute")
            if result:
                return _PRUNE, record
            return None, None

        return self._enumerate(candidates, limit, classify)

    def search_inconsistent(self, search, candidates, limit):
        session = self.open_session(search, candidates, C.IntLit(0))

        def classify(cube):
            result, record = search._cube_query(session, cube, "inconsistent")
            if result:
                return _KEEP, record
            return None, None

        return self._enumerate(candidates, limit, classify)


class AllSatStrategy(CubeEnumerationStrategy):
    """Cube enumeration on incremental sessions backed by AllSAT model
    catalogs.

    Same enumeration order and prover-decide semantics as
    :class:`CubeEnumerationStrategy` — the outputs are byte-identical —
    but each search runs on one incremental session (assumption cores
    prune supersets) carrying a :class:`ModelCatalog` whose one-time
    model sweep answers the SAT-side cube queries (the bulk of a
    strengthening call) without touching the solver or the theory
    checker.  Requires the backend's incremental cube capability."""

    name = "allsat"

    def open_session(self, search, candidates, goal):
        return search.prover.cube_session(
            [candidate.expr for candidate in candidates],
            goal,
            incremental=True,
            catalog=ModelCatalog(),
            theory_incremental=getattr(
                search.options, "theory_incremental", True
            ),
        )


_STRATEGIES = {
    CubeEnumerationStrategy.name: CubeEnumerationStrategy,
    AllSatStrategy.name: AllSatStrategy,
}


def make_strategy(spec):
    """Resolve a strategy: a name from ``C2bpOptions.strengthen``, a
    strategy instance (passes through), or ``None`` (the default)."""
    if isinstance(spec, StrengtheningStrategy):
        return spec
    if spec is None:
        spec = "allsat"
    try:
        return _STRATEGIES[spec]()
    except KeyError:
        raise ValueError(
            "unknown strengthening strategy %r (available: %s)"
            % (spec, ", ".join(sorted(_STRATEGIES)))
        ) from None


class CubeSearch:
    """Shared machinery for F/G computations against one prover."""

    def __init__(self, prover, options, events=None, discharger=None):
        self.prover = prover
        self.options = options
        self.events = events
        # Optional pre-prover query discharger (the interval abstract
        # interpreter): decides a cube implication without any SAT call
        # when cheap arithmetic propagation already settles it.  Sound,
        # but not weaker than the prover: it folds products with a zero
        # factor that the prover keeps opaque, so enabling it can turn a
        # prover "don't know" into a kept cube and change the output.
        self.discharger = discharger
        self.strategy = make_strategy(getattr(options, "strengthen", None))

    def _decide(self, session, cube):
        """One cube implication, tried against the discharger first.
        A discharged decision reports no assumption core — the keep-side
        record is then the cube itself, exactly what the fresh-query
        reference records.  Discharged answers are tallied under their own
        ``queries_discharged`` stats key, before any prover timer starts,
        so they do not read as zero-time generalize entries in the
        per-query time attribution."""
        if self.discharger is not None:
            exprs = session.cube_exprs(cube)
            if self.discharger.decide(exprs, session.goal):
                self.prover.stats.queries_discharged += 1
                return True, None
        return session.implies_cube(cube)

    def _cube_query(self, session, cube, purpose):
        """One cube decision, reported as a ``cube-test`` event.  Returns
        ``(result, record)`` where ``record`` is the sub-cube to prune
        with: the assumption core when one shrank the cube, else the cube
        itself."""
        result, core = self._decide(session, cube)
        if self.events is not None:
            self.events.emit(
                "cube-test", purpose=purpose, cube_size=len(cube), result=result
            )
        record = Cube(core) if core is not None else cube
        return result, record

    def implicant_cubes(self, candidates, phi, max_length=None):
        """All prime implicant cubes c over ``candidates`` with E(c) => φ.

        Returns a list of :class:`Cube`; the empty cube (meaning "true
        implies φ", i.e. φ is valid over the candidates) is returned as the
        single result ``[Cube()]``.
        """
        phi = fold_constants(phi)
        if is_trivially_true(phi):
            return [Cube()]
        if is_trivially_false(phi):
            return []
        if self.options.syntactic_heuristics:
            shortcut = self._syntactic_shortcut(candidates, phi)
            if shortcut is not None:
                return shortcut
        limit = max_length
        if limit is None:
            limit = self.options.max_cube_length
        return self.strategy.search_implicants(self, candidates, phi, limit)

    def _syntactic_shortcut(self, candidates, phi):
        for index, candidate in enumerate(candidates):
            if candidate.expr == phi:
                return [Cube([(index, True)])]
            if C.negate(candidate.expr) == phi or candidate.expr == C.negate(phi):
                return [Cube([(index, False)])]
        return None

    # -- boolean program expressions ---------------------------------------------

    def cubes_to_bexpr(self, candidates, cubes):
        """The boolean program expression for a disjunction of cubes."""
        if not cubes:
            return B.BConst(False)
        disjuncts = []
        for cube in cubes:
            literals = []
            for index, polarity in cube:
                var = B.BVar(candidates[index].name)
                literals.append(var if polarity else B.BNot(var))
            disjuncts.append(B.bool_and(literals))
        return B.bool_or(disjuncts)

    def f_expr(self, candidates, phi):
        """``F_V(φ)`` as a boolean program expression."""
        phi = fold_constants(phi)
        if self.options.distribute_f and isinstance(phi, C.BinOp):
            # F distributes losslessly through && and lossily through ||.
            if phi.op == "&&":
                return B.bool_and(
                    [self.f_expr(candidates, phi.left), self.f_expr(candidates, phi.right)]
                )
            if phi.op == "||":
                return B.bool_or(
                    [self.f_expr(candidates, phi.left), self.f_expr(candidates, phi.right)]
                )
        cubes = self.implicant_cubes(candidates, phi)
        return self.cubes_to_bexpr(candidates, cubes)

    def g_expr(self, candidates, phi):
        """``G_V(φ) = ¬F_V(¬φ)`` as a boolean program expression."""
        return B.bool_not(self.f_expr(candidates, C.negate(phi)))

    # -- the enforce invariant (Section 5.1) ------------------------------------------

    def inconsistent_cubes(self, candidates, max_length):
        """Minimal cubes whose concretizations are unsatisfiable — the
        ``F_V(false)`` computation, done directly (the constant-folding
        shortcuts of :meth:`implicant_cubes` would collapse it)."""
        return self.strategy.search_inconsistent(self, candidates, max_length)

    def enforce_expr(self, candidates):
        """``Ω = ¬F_V(false)``: rules out predicate valuations whose
        concretizations are unsatisfiable (e.g. x==1 and x==2 both true)."""
        cubes = self.inconsistent_cubes(
            candidates, self.options.enforce_cube_length
        )
        if not cubes:
            return None
        return B.bool_not(self.cubes_to_bexpr(candidates, cubes))
