"""Live-predicate analysis: which predicates can still influence the
instrumented specification at each program point.

A (statement, predicate) pair is translated by C2bp into a parallel
assignment slot ``{φ} = choose(F(WP(s, φ)), F(WP(s, ¬φ)))`` — the most
expensive operation in the tool, a cube search with one prover query per
cube.  But the slot's *value* only matters if φ can later be observed:
by an ``assert``/``assume``/branch guard whose ``G`` reads it, by
another slot whose ``F`` reads it, by a return predicate, or by an
invariant query at a label.  This pass runs the standard backward
may-live recipe over the function CFG with those observations as uses,
and C2bp emits ``unknown()`` for slots of dead predicates instead of
running the cube search (the Section 2.1 invalidation case — sound
because ``unknown()`` over-approximates any ``choose``).

Soundness of the per-slot kill is exactly the ``wp_unchanged`` test:
a predicate without a slot keeps its value through the statement, so it
is *not* defined there and stays live.  Conservative anchors keep the
observable surface intact:

- predicates named by the procedure's ``enforce`` invariant Ω are always
  live (Ω filters states at every assignment, so coarsening a variable Ω
  reads could change reachability);
- global predicates are always live (they are observable in callees and
  callers this intraprocedural pass cannot see);
- at labels every predicate is live on both sides (labels are invariant
  observation points);
- at call statements every predicate is live (the call translator's
  re-strengthening reads arbitrary scope predicates).
"""

from repro.cfront import cast as C
from repro.boolprog import ast as B

from repro.analysis.framework import BACKWARD, DataflowAnalysis
from repro.analysis.modref import location_keyset


class LivePredicates(DataflowAnalysis):
    """The solved liveness facts for one procedure.

    Query with :meth:`live_out` / :meth:`is_live`; facts are frozensets
    of predicate *names* (the boolean variable identifiers), or ``None``
    meaning "every predicate" at conservative anchors.
    """

    direction = BACKWARD

    def __init__(
        self,
        cfg,
        scope_predicates,
        return_predicates,
        may_alias,
        toucher,
        options,
        enforce_names=(),
    ):
        super().__init__(cfg)
        self.scope_predicates = list(scope_predicates)
        self.all_names = frozenset(p.name for p in self.scope_predicates)
        self.always = frozenset(
            p.name for p in self.scope_predicates if p.is_global
        ) | (frozenset(enforce_names) & self.all_names)
        self.exit_names = frozenset(p.name for p in return_predicates)
        self._may_alias = may_alias
        self._toucher = toucher
        self._options = options
        self._keysets = {
            p.name: location_keyset(p.expr) for p in self.scope_predicates
        }
        self._slot_cache = {}  # (sid, name) -> (has_slot, uses frozenset)
        self._cone_cache = {}
        self.solve()
        # live-out per statement id: for a backward pass fact_in is the
        # fact flowing into the node against execution order, i.e. the
        # execution-order live-out.
        self._live_out = {}
        for node in cfg.nodes:
            if node.stmt is not None and getattr(node.stmt, "sid", None) is not None:
                fact = self.fact_in[node.uid]
                if node.stmt.labels or isinstance(node.stmt, C.CallStmt):
                    fact = None  # conservative anchor: everything live
                self._live_out[node.stmt.sid] = fact

    # -- queries ----------------------------------------------------------------

    def live_out(self, stmt):
        """The predicate names live after ``stmt`` (None = all)."""
        sid = getattr(stmt, "sid", None)
        if sid is None or sid not in self._live_out:
            return None
        return self._live_out[sid]

    def live_out_by_sid(self, sid):
        """Like :meth:`live_out` but keyed by statement id (for cache
        keys); None for unknown sids, the conservative reading."""
        return self._live_out.get(sid)

    def is_live(self, stmt, name):
        fact = self.live_out(stmt)
        if fact is None:
            return True
        return name in fact or name in self.always

    # -- the lattice ------------------------------------------------------------

    def bottom(self):
        return frozenset()

    def boundary(self):
        return self.exit_names | self.always

    def join(self, left, right):
        return left | right

    def equals(self, left, right):
        return left == right

    def transfer(self, node, live_out):
        stmt = node.stmt
        if node.kind == "branch":
            live = live_out | self._cone_names(stmt.cond)
            if stmt.labels:
                live = self.all_names
            return live
        if stmt is None:  # entry / exit
            return live_out
        if stmt.labels:
            return self.all_names
        if isinstance(stmt, C.CallStmt):
            return self.all_names
        if isinstance(stmt, (C.Assume, C.Assert)):
            return live_out | self._cone_names(stmt.cond)
        if isinstance(stmt, C.Assign):
            defs = set()
            uses = set()
            observed = live_out | self.always
            for predicate in self.scope_predicates:
                has_slot, slot_uses = self._slot(stmt, predicate)
                if not has_slot:
                    continue
                defs.add(predicate.name)
                if predicate.name in observed:
                    uses |= slot_uses
            return (live_out - defs) | uses | self.always
        # Skip, Goto, Return: no predicate reads or writes of their own
        # (return predicates are seeded at the exit boundary).
        return live_out

    # -- per-slot facts ---------------------------------------------------------

    def _slot(self, stmt, predicate):
        """Whether ``stmt`` defines a slot for ``predicate`` and, if so,
        the predicate names the slot's value expressions may read."""
        key = (stmt.sid, predicate.name)
        cached = self._slot_cache.get(key)
        if cached is not None:
            return cached
        from repro.core.abstractor import _has_constant_deref
        from repro.core.wp import weakest_precondition, wp_unchanged

        options = self._options
        if options.skip_unchanged and wp_unchanged(
            stmt.lhs, stmt.rhs, predicate.expr, self._may_alias
        ):
            result = (False, frozenset())
            self._slot_cache[key] = result
            return result
        wp_pos = weakest_precondition(
            stmt.lhs, stmt.rhs, predicate.expr, self._may_alias
        )
        wp_neg = weakest_precondition(
            stmt.lhs, stmt.rhs, C.negate(predicate.expr), self._may_alias
        )
        if options.invalidate_constant_derefs and (
            _has_constant_deref(wp_pos) or _has_constant_deref(wp_neg)
        ):
            # The slot becomes unknown() regardless of liveness: no reads.
            result = (True, frozenset())
        else:
            result = (True, self._cone_names(wp_pos) | self._cone_names(wp_neg))
        self._slot_cache[key] = result
        return result

    def _cone_names(self, phi):
        """The names of the cone-of-influence closure of φ over the scope
        predicates — exactly the candidates ``F``/``G`` may read."""
        from repro.cfront.exprutils import (
            fold_constants,
            is_trivially_false,
            is_trivially_true,
        )

        phi = fold_constants(phi)
        if is_trivially_true(phi) or is_trivially_false(phi):
            return frozenset()
        if not self._options.cone_of_influence:
            return self.all_names
        key = str(phi)
        cached = self._cone_cache.get(key)
        if cached is not None:
            return cached
        relevant = dict(location_keyset(phi))
        chosen = set()
        remaining = [p for p in self.scope_predicates]
        changed = True
        while changed:
            changed = False
            still = []
            for predicate in remaining:
                keyset = self._keysets[predicate.name]
                if self._toucher.touch(keyset, relevant):
                    chosen.add(predicate.name)
                    relevant.update(keyset)
                    changed = True
                else:
                    still.append(predicate)
            remaining = still
        result = frozenset(chosen)
        self._cone_cache[key] = result
        return result


def enforce_variable_names(enforce_expr):
    """The boolean variables (predicate names) an enforce invariant reads."""
    if enforce_expr is None:
        return frozenset()
    return frozenset(B.expr_variables(enforce_expr))
