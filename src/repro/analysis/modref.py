"""Mod/ref location summaries resolved through the Steensgaard results.

The abstraction hot path asks one question over and over: *can these two
sets of lvalues touch the same cell?*  The original
``_ProcedureAbstractor._locations_touch`` answered it with a fresh
pairwise ``may_alias`` sweep per cone-of-influence query — quadratic in
the location counts and repeated for every predicate of every statement.
This module computes each answer once:

- :func:`location_keyset` canonicalizes an expression's read/write set to
  a ``text -> lvalue`` dict (text is the pretty-printed form, the same
  canonical spelling the boolean variables use);
- :class:`TouchOracle` decides keyset intersection with a text fast path
  and a memoized pairwise ``may_alias``;
- :class:`ModRefSummaries` lifts the keysets to per-statement and
  bottom-up per-procedure modified/referenced summaries, which the
  cross-iteration abstraction reuse keys on.

Exactness contract: for any two keysets, ``TouchOracle.touch`` returns
exactly what the pairwise loop would — text-equal lvalues are the ``a ==
b`` case, ``may_alias`` answers are memoized verbatim, and the ECR
buckets only skip pairs for which ``may_alias`` is guaranteed ``False``
(distinct ECR roots, no text equality, no wildcard).  The fuzz oracle's
analysis-off byte-equality differential enforces this contract.
"""

from repro.cfront import cast as C
from repro.cfront.exprutils import locations, variables
from repro.cfront.pretty import pretty_expr

from repro.analysis.framework import CallGraph


def location_keyset(expr):
    """The canonical ``text -> lvalue`` read set of an expression.

    Matches the candidate sets of the cone of influence: every lvalue of
    :func:`locations` plus an ``Id`` for every mentioned variable.
    """
    keyset = {}
    for loc in locations(expr):
        keyset[pretty_expr(loc)] = loc
    for name in variables(expr):
        keyset.setdefault(name, C.Id(name))
    return keyset


class TouchOracle:
    """Memoized may-touch decisions between canonical keysets, bound to
    one procedure's points-to scope."""

    def __init__(self, may_alias, stats=None):
        self._may_alias = may_alias  # two-lvalue oracle, or None
        self._pair_memo = {}  # (text_a, text_b) -> bool
        self.stats = stats

    def touch(self, first, second):
        """Whether the keysets may denote a common cell — the exact
        semantics of the pairwise ``_locations_touch`` loop."""
        if self.stats is not None:
            self.stats.modref_touch_queries += 1
        if not first or not second:
            return False
        if len(second) < len(first):
            first, second = second, first
        for text in first:
            if text in second:
                return True
        if self._may_alias is None:
            # No alias analysis: everything nonempty touches everything.
            return True
        fresh = False
        memo = self._pair_memo
        result = False
        for text_a, loc_a in first.items():
            for text_b, loc_b in second.items():
                key = (text_a, text_b) if text_a <= text_b else (text_b, text_a)
                known = memo.get(key)
                if known is None:
                    fresh = True
                    known = bool(self._may_alias(loc_a, loc_b))
                    memo[key] = known
                if known:
                    result = True
                    break
            if result:
                break
        if self.stats is not None and not fresh:
            self.stats.modref_summary_hits += 1
        return result


class StatementSummary:
    """Per-statement modified and referenced keysets."""

    __slots__ = ("mod", "ref", "has_call", "callees")

    def __init__(self):
        self.mod = {}
        self.ref = {}
        self.has_call = False
        self.callees = set()

    def merge(self, other):
        self.mod.update(other.mod)
        self.ref.update(other.ref)
        self.has_call = self.has_call or other.has_call
        self.callees |= other.callees


#: Wildcard key for effects the keyset language cannot name precisely
#: (writes through escaped pointers, extern calls).  A wildcard touches
#: everything, which is the conservative direction for every client.
WILDCARD = "*?"


class ModRefSummaries:
    """Statement- and procedure-level mod/ref sets for one program.

    Procedure summaries are computed bottom-up over the call graph;
    recursive cliques are iterated to a joint fixpoint.  Call statements
    fold in the callee's summary restricted to what the caller can see:
    globals, plus a wildcard for writes through pointer arguments.
    """

    def __init__(self, program, points_to=None):
        self.program = program
        self.points_to = points_to
        self.call_graph = CallGraph(program)
        self._stmt_cache = {}  # id(stmt) -> StatementSummary
        self._function_mod = {}
        self._function_ref = {}
        self._solved = False  # the keyset summaries are solved on first use
        self._global_keyset = {
            name: C.Id(name) for name in program.global_names()
        }
        self._own_writes = {}  # name -> cells the procedure itself assigns
        self._written = {}  # name -> cells it and its callees assign

    @property
    def function_mod(self):
        self._solve_functions()
        return self._function_mod

    @property
    def function_ref(self):
        self._solve_functions()
        return self._function_ref

    # -- statement level --------------------------------------------------------

    def statement_summary(self, stmt, func_name):
        self._solve_functions()
        cached = self._stmt_cache.get(id(stmt))
        if cached is None:
            cached = self._summarize_stmt(stmt, func_name)
            self._stmt_cache[id(stmt)] = cached
        return cached

    def _summarize_stmt(self, stmt, func_name):
        summary = StatementSummary()
        if isinstance(stmt, C.Assign):
            summary.mod[pretty_expr(stmt.lhs)] = stmt.lhs
            if not isinstance(stmt.lhs, C.Id):
                # A store through a pointer/field/index also reads the
                # addressing expression, and its cell is only known up to
                # aliasing — keep the lvalue itself; TouchOracle resolves
                # the aliasing when the summary is queried.
                summary.ref.update(location_keyset(stmt.lhs))
            summary.ref.update(location_keyset(stmt.rhs))
        elif isinstance(stmt, C.CallStmt):
            summary.has_call = True
            summary.callees.add(stmt.name)
            if stmt.lhs is not None:
                summary.mod[pretty_expr(stmt.lhs)] = stmt.lhs
            for arg in stmt.args:
                summary.ref.update(location_keyset(arg))
            self._fold_call_effects(summary, stmt)
        elif isinstance(stmt, (C.Assume, C.Assert)):
            summary.ref.update(location_keyset(stmt.cond))
        elif isinstance(stmt, (C.If, C.While)):
            summary.ref.update(location_keyset(stmt.cond))
            for sub in stmt.substatements():
                for inner in sub:
                    summary.merge(self.statement_summary(inner, func_name))
        elif isinstance(stmt, C.Return):
            if getattr(stmt, "value", None) is not None:
                summary.ref.update(location_keyset(stmt.value))
        # Skip / Goto: no data effects.
        return summary

    def _fold_call_effects(self, summary, stmt):
        callee = self.program.functions.get(stmt.name)
        if callee is None or not callee.is_defined:
            # Extern callee: may read and write anything that escaped.
            summary.mod[WILDCARD] = None
            summary.ref[WILDCARD] = None
            return
        callee_mod = self._function_mod.get(stmt.name)
        if callee_mod is None:
            # Bottom-up order not finished for this callee (recursion):
            # the clique fixpoint below will refine; start conservative.
            summary.mod[WILDCARD] = None
            summary.ref[WILDCARD] = None
            return
        # Caller-visible callee effects: globals by name; effects on the
        # callee's locals/formals are invisible, effects through pointer
        # arguments are a wildcard (the keyset language has no caller
        # spelling for them).
        for text, loc in callee_mod.items():
            if text == WILDCARD or text in self._global_keyset:
                summary.mod[text] = loc
        for text, loc in self._function_ref.get(stmt.name, {}).items():
            if text == WILDCARD or text in self._global_keyset:
                summary.ref[text] = loc
        if self._callee_writes_through_pointers(stmt.name) and stmt.args:
            summary.mod[WILDCARD] = None

    def _callee_writes_through_pointers(self, name):
        mod = self._function_mod.get(name, {})
        if WILDCARD in mod:
            return True
        for text, loc in mod.items():
            if loc is not None and not isinstance(loc, C.Id):
                return True
        return False

    # -- procedure level --------------------------------------------------------

    def _solve_functions(self):
        if self._solved:
            return
        self._solved = True
        order = self.call_graph.bottom_up_order()
        recursive = self.call_graph.recursive_names()
        for _round in range(2 if recursive else 1):
            if _round:
                # Re-fold call effects with the round-one callee summaries.
                self._stmt_cache.clear()
            for name in order:
                func = self.program.functions.get(name)
                if func is None or not func.is_defined:
                    continue
                mod, ref = {}, {}
                for stmt in func.body:
                    summary = self.statement_summary(stmt, name)
                    mod.update(summary.mod)
                    ref.update(summary.ref)
                self._function_mod[name] = mod
                self._function_ref[name] = ref

    # -- cells a call may write -------------------------------------------------

    def written_cells(self, name):
        """The transitive mod set of procedure ``name`` as cells of the
        analysed points-to partition
        (:meth:`repro.pointers.PointsToAnalysis.analysed_cell`): every
        lvalue that ``name`` or a defined procedure it transitively calls
        assigns.  A procedure's writes to its own locals (a variable or
        one of its fields) are left out: every call gets fresh ones.
        Writes inside extern callees are not modelled here."""
        written = self._written.get(name)
        if written is None:
            written = set()
            seen = set()
            stack = [name]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                written |= self._writes_of(current)
                stack.extend(self.call_graph.callees.get(current, ()))
            written = frozenset(written)
            self._written[name] = written
        return written

    def _writes_of(self, name):
        own = self._own_writes.get(name)
        if own is not None:
            return own
        own = set()
        func = self.program.functions.get(name)
        if func is not None and func.is_defined:
            pta = self.points_to

            def visit(stmts):
                for stmt in stmts:
                    lhs = getattr(stmt, "lhs", None)
                    if isinstance(stmt, (C.Assign, C.CallStmt)) and lhs is not None:
                        if not _activation_local(lhs, func):
                            cell = pta.analysed_cell(lhs, name)
                            if cell is not None:
                                own.add(cell)
                    for sub in stmt.substatements():
                        visit(sub)

            visit(func.body)
        self._own_writes[name] = own
        return own


def _activation_local(lvalue, func):
    """Whether ``lvalue`` names a local or formal of ``func`` (or a field
    of one) without going through a pointer."""
    while isinstance(lvalue, (C.FieldAccess, C.Cast)):
        lvalue = lvalue.base if isinstance(lvalue, C.FieldAccess) else lvalue.operand
    return isinstance(lvalue, C.Id) and func.lookup_var(lvalue.name) is not None
