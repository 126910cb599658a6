"""Abstraction of procedure calls (Section 4.5.3).

For a call ``v = R(a1, ..., aj)`` at a label of procedure ``S``:

1. for each formal-parameter predicate ``e`` of ``R``, the actual passed is
   ``choose(F(e'), F(¬e'))`` where ``e' = e[a/f]`` translates ``e`` to the
   calling context;
2. fresh temporaries ``t1..tp`` receive the return predicates ``E_r``; the
   meaning of ``t_i`` is ``e_i[v/r, a/f]``;
3. caller-local predicates whose value the call may change (they mention
   ``v``, a global, a transitive dereference of an actual, an alias of
   one of those, or a cell in the callee's transitive mod set -- a local
   whose address escaped into a global the callee writes through) are
   re-strengthened from the unaffected predicates plus the temporaries;
   everything else is left untouched.

A call to an *undefined* (extern) procedure has no summary at all:
affected predicates — including global ones — are invalidated with
``unknown()``.
"""

from repro.cfront import cast as C
from repro.cfront.exprutils import fold_constants, locations, substitute, variables
from repro.cfront.pretty import pretty_stmt
from repro.boolprog import ast as B


class TempPredicate:
    """A call-site temporary carrying the meaning E(t) = translated E_r
    predicate; participates in cube searches like a normal predicate."""

    __slots__ = ("name", "expr")

    def __init__(self, name, expr):
        self.name = name
        self.expr = expr

    def __repr__(self):
        return "TempPredicate(%s = %s)" % (self.name, self.expr)


def translate_to_caller(expr, formals, actuals, return_var=None, result_lvalue=None):
    """``e[v/r, a1/f1, ..., aj/fj]`` — or None if the translation needs a
    result lvalue that does not exist."""
    mapping = {}
    for formal, actual in zip(formals, actuals):
        mapping[C.Id(formal)] = actual
    if return_var is not None:
        if return_var in variables(expr) and result_lvalue is None:
            return None
        if result_lvalue is not None:
            mapping[C.Id(return_var)] = result_lvalue
    return fold_constants(substitute(expr, mapping))


def abstract_call(proc_abs, stmt):
    """Translate one CallStmt; returns a list of boolean statements."""
    parent = proc_abs.parent
    callee = parent.program.functions.get(stmt.name)
    comment = pretty_stmt(stmt).strip()
    if callee is None or not callee.is_defined:
        return _abstract_extern_call(proc_abs, stmt, comment)

    signature = parent.signatures[stmt.name]
    formals = signature.formals
    out = []

    # 1. Actual parameters for the formal-parameter predicates.
    args = []
    for predicate in signature.formal_predicates:
        translated = translate_to_caller(predicate.expr, formals, stmt.args)
        args.append(proc_abs.make_choose_for(translated))

    # 2. Temporaries for the return predicates.
    temps = []
    for predicate in signature.return_predicates:
        name = proc_abs.fresh_temp_name()
        meaning = translate_to_caller(
            predicate.expr,
            formals,
            stmt.args,
            return_var=signature.return_var,
            result_lvalue=stmt.lhs,
        )
        if meaning is not None and _call_clobbers_actuals(
            proc_abs, stmt, predicate.expr, formals
        ):
            meaning = None
        if meaning is not None and _binding_clobbers_meaning(
            proc_abs, stmt, predicate.expr, signature
        ):
            meaning = None
        temps.append(TempPredicate(name, meaning))
        parent.temp_meanings[(proc_abs.func.name, name)] = meaning
    call_stmt = B.BCall([t.name for t in temps], stmt.name, args)
    call_stmt.source_sid = stmt.sid
    call_stmt.comment = comment
    out.append(call_stmt)

    # 3. Update the affected caller-local predicates — plus any *global*
    # predicate the return binding itself may change (the callee's own
    # abstraction accounts for writes inside the callee, but ``v = R(...)``
    # with a global ``v`` is a caller-side store that happens after the
    # callee exits; see also the Bebop-side fix of the same shape in PR 4).
    affected = _affected_predicates(proc_abs, stmt, include_globals=False)
    affected += _binding_affected_globals(proc_abs, stmt, affected)
    if affected:
        unaffected = [
            p for p in proc_abs.scope_predicates if p not in affected
        ]
        candidates = unaffected + [t for t in temps if t.expr is not None]
        targets, values = [], []
        for predicate in affected:
            pos = proc_abs.f_expr(candidates, predicate.expr)
            neg = proc_abs.f_expr(candidates, C.negate(predicate.expr))
            targets.append(predicate.name)
            values.append(proc_abs.make_choose(pos, neg))
        update = B.BAssign(targets, values)
        update.source_sid = stmt.sid
        update.comment = "update after " + comment
        out.append(update)
    return out


def _call_clobbers_actuals(proc_abs, stmt, predicate_expr, formals):
    """Whether the call may change the value of an actual substituted into
    a temp meaning ``e[v/r, a/f]``.

    The actuals were evaluated *before* the call, but the meaning is read
    in the post-call state — e.g. for ``a = helper(a - 1)`` the translated
    ``p < h`` would become ``a - 1 < a`` and read the freshly assigned
    ``a``.  When the call can modify an actual (through the result lvalue,
    an alias, a cell reachable from an argument, or a global) the meaning
    is undefined and the temporary must not constrain the cube search.
    """
    parent = proc_abs.parent
    pta = parent.points_to
    func_name = proc_abs.func.name
    used = variables(predicate_expr)
    global_names = set(parent.program.global_names())
    reachable = pta.reachable_from_values(stmt.args, func_name)
    written = parent.facts.modref.written_cells(stmt.name)
    for formal, actual in zip(formals, stmt.args):
        if formal not in used:
            continue
        actual_vars = variables(actual)
        if actual_vars & global_names:
            return True  # a defined callee may write any global
        actual_locations = set(locations(actual)) | {C.Id(v) for v in actual_vars}
        for loc in actual_locations:
            if stmt.lhs is not None and pta.may_alias(loc, stmt.lhs, func_name):
                return True
            if pta.location_in(loc, reachable, func_name):
                return True
            if pta.analysed_cell(loc, func_name) in written:
                return True
    return False


def _binding_clobbers_meaning(proc_abs, stmt, predicate_expr, signature):
    """Whether the result binding ``v = R(...)`` may change a *global*
    mentioned in a return predicate ``e``.

    The temp's meaning ``e[v/r, a/f]`` is read in the post-binding state,
    but the temp carries the truth of ``e`` at callee *exit* — before the
    store to ``v``.  For ``g = helper(...)`` with return predicate
    ``g > 1`` the two states disagree whenever the returned value moves
    ``g`` across the bound.  (Formals substituted by actuals are covered
    by :func:`_call_clobbers_actuals`; the return variable itself is the
    one occurrence the ``v/r`` substitution makes valid.)
    """
    if stmt.lhs is None:
        return False
    parent = proc_abs.parent
    pta = parent.points_to
    func_name = proc_abs.func.name
    global_names = set(parent.program.global_names())
    mentioned = variables(predicate_expr) - {signature.return_var}
    checked = {C.Id(v) for v in mentioned & global_names}
    for loc in locations(predicate_expr):
        if variables(loc) <= global_names:
            checked.add(loc)
    for loc in checked:
        if pta.may_alias(loc, stmt.lhs, func_name):
            return True
    return False


def _binding_affected_globals(proc_abs, stmt, already_affected):
    """Global predicates the result binding ``v = R(...)`` may change.

    ``_affected_predicates(include_globals=False)`` trusts the callee's
    own abstraction to keep global predicate variables current — correct
    for writes *inside* the callee, but the store of the return value
    into ``v`` happens in the caller after the callee exits, so a global
    predicate over (an alias of) ``v`` must be re-strengthened here like
    any caller-local one.
    """
    if stmt.lhs is None:
        return []
    parent = proc_abs.parent
    pta = parent.points_to
    func_name = proc_abs.func.name
    affected = []
    for predicate in proc_abs.scope_predicates:
        if getattr(predicate, "scope", "x") is not None:
            continue  # not a global predicate
        if predicate in already_affected:
            continue
        for loc in locations(predicate.expr):
            if pta.may_alias(loc, stmt.lhs, func_name):
                affected.append(predicate)
                break
    return affected


def _abstract_extern_call(proc_abs, stmt, comment):
    """Invalidate everything an unknown callee could touch."""
    affected = _affected_predicates(proc_abs, stmt, include_globals=True)
    if not affected:
        skip = B.BSkip()
        skip.source_sid = stmt.sid
        skip.comment = comment + " (extern, no effect on predicates)"
        return [skip]
    targets = [p.name for p in affected]
    values = [B.BUnknown() for _ in affected]
    havoc = B.BAssign(targets, values)
    havoc.source_sid = stmt.sid
    havoc.comment = comment + " (extern call havocs affected predicates)"
    return [havoc]


def _affected_predicates(proc_abs, stmt, include_globals):
    """E_u: predicates whose value may change across the call."""
    parent = proc_abs.parent
    pta = parent.points_to
    func_name = proc_abs.func.name
    global_names = set(parent.program.global_names())
    reachable = pta.reachable_from_values(stmt.args, func_name)

    local_predicates = [
        p for p in proc_abs.scope_predicates if getattr(p, "scope", None) is not None
    ]
    global_predicates = [
        p for p in proc_abs.scope_predicates if getattr(p, "scope", "x") is None
    ]
    pool = local_predicates + (global_predicates if include_globals else [])

    protected = frozenset(getattr(parent.program, "protected_globals", ()) or ())
    # What a defined callee writes (an extern's writes are the escaped cells).
    written = (
        frozenset() if include_globals
        else parent.facts.modref.written_cells(stmt.name)
    )
    affected = []
    for predicate in pool:
        if _call_affects(
            predicate,
            stmt,
            pta,
            func_name,
            global_names,
            reachable,
            include_globals,
            protected,
            written,
        ):
            affected.append(predicate)
    return affected


def _call_affects(predicate, stmt, pta, func_name, global_names, reachable,
                  extern, protected=frozenset(), written=frozenset()):
    mentioned = variables(predicate.expr)
    # Mentions a global: the callee can change it.  (For calls to defined
    # procedures the *global* predicate variables themselves are updated by
    # the callee's own abstraction; caller-local predicates over globals
    # still must be re-strengthened here.)  Protected globals (SLAM
    # instrumentation state) are invisible to extern callees.
    touchable_globals = mentioned & global_names
    if extern:
        touchable_globals -= protected
    if touchable_globals:
        return True
    predicate_locations = locations(predicate.expr)
    # Mentions v (the call target) or an alias of it.
    if stmt.lhs is not None:
        for loc in predicate_locations:
            if pta.may_alias(loc, stmt.lhs, func_name):
                return True
    # Mentions a (transitive) dereference of an actual, or an alias of one:
    # its cell is reachable from an argument value.  (This also catches a
    # caller variable passed by address, e.g. g(&x) affecting "x > 0".)
    for loc in predicate_locations:
        if pta.location_in(loc, reachable, func_name):
            return True
    # Writes a cell the callee (or one of its callees) assigns: a caller
    # local whose address escaped into a global pointer the callee writes
    # through, say.
    if written:
        for loc in predicate_locations:
            if pta.analysed_cell(loc, func_name) in written:
                return True
    if extern:
        # Extern callees may also write anything address-taken that has
        # escaped to the external world.
        for loc in predicate_locations:
            if pta.may_point_into_external(loc, func_name):
                return True
    return False
