"""Weakest preconditions with pointers (Sections 4.1 and 4.2).

For scalar assignments ``WP(x = e, φ) = φ[e/x]``.  In the presence of
pointers the substitution is wrong — ``WP(x = 3, *p > 5)`` is not
``*p > 5`` when ``x`` and ``*p`` alias — so we use Morris' general axiom of
assignment: enumerate the alias scenarios between the assigned location
``x`` and every location mentioned in ``φ``:

    φ[x, e, y] = (&x == &y && φ[e/y]) || (&x != &y && φ)

With ``k`` candidate locations the expansion has ``2^k`` disjuncts, one per
alias scenario (which locations coincide with ``x``); the points-to
analysis prunes scenarios it can refute, and syntactic identity decides
must-alias, so in the common case the result collapses to the plain
substitution.
"""

import itertools

from repro.cfront import cast as C
from repro.cfront.exprutils import fold_constants, locations, substitute


class WpError(Exception):
    pass


def _morris_locations(phi):
    """The locations of ``φ`` relevant to Morris' axiom: scalar (integer or
    pointer typed) locations only.  Aggregate-typed intermediates such as
    the ``*curr`` inside ``curr->val`` are excluded — assigning a scalar
    cannot *be* the aggregate, and the aggregate's identity is already
    covered by its scalar sub-locations (here ``curr``)."""
    result = []
    for loc in locations(phi):
        loc_type = getattr(loc, "type", None)
        if loc_type is not None and not loc_type.is_scalar():
            continue
        result.append(loc)
    return sorted(result, key=lambda l: str(l._key()))


def address_expr(lvalue):
    """The C expression ``&lvalue``, simplified (``&*p`` folds to ``p``)."""
    if isinstance(lvalue, C.Deref):
        return lvalue.pointer
    if isinstance(lvalue, C.Cast):
        return address_expr(lvalue.operand)
    return C.AddrOf(lvalue)


def _scenario_substitution(phi, aliased):
    """Simultaneously substitute ``e`` for every location in ``aliased``
    (a dict location -> replacement), maximal subexpressions first."""
    return substitute(phi, dict(aliased))


def weakest_precondition(lhs, rhs, phi, may_alias=None):
    """``WP(lhs = rhs, φ)`` under the logical memory model.

    ``may_alias(loc_a, loc_b) -> bool`` is the oracle used to prune alias
    scenarios; ``None`` means assume everything may alias (the paper's
    no-alias-information worst case with ``2^k`` disjuncts).
    """
    if not lhs.is_lvalue():
        raise WpError("assignment target %r is not a location" % (lhs,))
    phi_locations = _morris_locations(phi)
    certain = {}  # locations that definitely alias lhs (syntactic identity)
    possible = []  # locations that may or may not alias lhs
    for loc in phi_locations:
        if loc == lhs:
            certain[loc] = rhs
        elif may_alias is None or may_alias(lhs, loc):
            possible.append(loc)
    if not possible:
        return fold_constants(_scenario_substitution(phi, certain))
    disjuncts = []
    for selection in itertools.product([False, True], repeat=len(possible)):
        mapping = dict(certain)
        conditions = []
        for loc, chosen in zip(possible, selection):
            condition = C.BinOp(
                "==" if chosen else "!=", address_expr(lhs), address_expr(loc)
            )
            conditions.append(condition)
            if chosen:
                mapping[loc] = rhs
        body = _scenario_substitution(phi, mapping)
        disjuncts.append(C.conjoin(conditions + [body]))
    return fold_constants(C.disjoin(disjuncts))


def wp_unchanged(lhs, rhs, phi, may_alias=None):
    """Optimization two (Section 5.2): the truth of ``φ`` definitely does
    not change across ``lhs = rhs`` iff ``WP(lhs = rhs, φ) = φ``.

    We use the cheap sufficient condition: no location of ``φ`` is
    syntactically ``lhs`` and none may alias it."""
    for loc in _morris_locations(phi):
        if loc == lhs:
            return False
        if may_alias is None or may_alias(lhs, loc):
            return False
    return True
