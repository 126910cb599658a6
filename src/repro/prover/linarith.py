"""Linear integer arithmetic over opaque atom-terms.

Conjunctions of linear constraints are decided by Fourier-Motzkin
elimination with per-constraint integral tightening (dividing by the
coefficient gcd and rounding the constant).  Every UNSAT verdict is sound
for the integers (rational infeasibility implies integer infeasibility, and
tightening preserves integer solutions); SAT verdicts may overshoot for
genuinely integer-infeasible systems — the safe direction for the
predicate-abstraction client.

All arithmetic is on plain ``int``: :func:`linearize` only produces integer
coefficients, Fourier-Motzkin combines constraints with integer
multipliers, and equality elimination cross-multiplies instead of dividing
by the pivot.  Every step yields a positive multiple of what the same
procedure computes over the rationals, and tightening maps all positive
multiples of a constraint to one normal form, so verdicts are exactly the
rational procedure's.

A "variable" here is any opaque term: program variables, but also
uninterpreted applications such as ``deref(p)`` or ``field:val(deref(curr))``
that happen to be compared arithmetically.
"""

from math import gcd

from repro.prover.terms import is_num


class LinExpr:
    """An affine form: sum of coef * opaque-term plus a constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        self.coeffs = dict(coeffs or {})
        self.const = const

    def copy(self):
        return LinExpr(self.coeffs, self.const)

    def add_term(self, term, coef):
        new = self.coeffs.get(term, 0) + coef
        if new == 0:
            self.coeffs.pop(term, None)
        else:
            self.coeffs[term] = new

    def scaled(self, factor):
        result = LinExpr()
        result.const = self.const * factor
        result.coeffs = {t: c * factor for t, c in self.coeffs.items()}
        return result

    def plus(self, other):
        result = self.copy()
        result.const += other.const
        for term, coef in other.coeffs.items():
            result.add_term(term, coef)
        return result

    def minus(self, other):
        return self.plus(other.scaled(-1))

    @property
    def is_constant(self):
        return not self.coeffs

    def variables(self):
        return set(self.coeffs)

    def __repr__(self):
        parts = ["%s*%r" % (c, t) for t, c in self.coeffs.items()]
        parts.append(str(self.const))
        return "LinExpr(%s)" % " + ".join(parts)


def linearize(term):
    """Turn a prover term into a LinExpr; unsupported structure stays
    opaque (the whole subterm becomes a single 'variable')."""
    expr = LinExpr()
    _linearize_into(term, 1, expr)
    return expr


def _linearize_into(term, factor, out):
    kind = term[0]
    if kind == "num":
        out.const += factor * term[1]
        return
    if kind == "app":
        symbol, args = term[1], term[2]
        if symbol == "+" and len(args) == 2:
            _linearize_into(args[0], factor, out)
            _linearize_into(args[1], factor, out)
            return
        if symbol == "-" and len(args) == 2:
            _linearize_into(args[0], factor, out)
            _linearize_into(args[1], -factor, out)
            return
        if symbol == "*" and len(args) == 2:
            if is_num(args[0]):
                _linearize_into(args[1], factor * args[0][1], out)
                return
            if is_num(args[1]):
                _linearize_into(args[0], factor * args[1][1], out)
                return
    # Opaque: vars, locs, uninterpreted applications, non-linear products.
    out.add_term(term, factor)


class LinearSolver:
    """Accumulates constraints ``e <= 0`` / ``e == 0`` and decides them."""

    def __init__(self):
        self._les = []  # LinExpr e, meaning e <= 0
        self._eqs = []  # LinExpr e, meaning e == 0

    def copy(self):
        clone = LinearSolver()
        clone._les = [e.copy() for e in self._les]
        clone._eqs = [e.copy() for e in self._eqs]
        return clone

    def add_le(self, expr):
        self._les.append(expr.copy())

    def add_eq(self, expr):
        self._eqs.append(expr.copy())

    def assert_le_terms(self, t1, t2):
        """t1 <= t2"""
        self.add_le(linearize(t1).minus(linearize(t2)))

    def assert_lt_terms(self, t1, t2):
        """t1 < t2, i.e. t1 <= t2 - 1 over the integers."""
        expr = linearize(t1).minus(linearize(t2))
        expr.const += 1
        self.add_le(expr)

    def assert_eq_terms(self, t1, t2):
        self.add_eq(linearize(t1).minus(linearize(t2)))

    # -- decision ------------------------------------------------------------

    def check(self):
        """True iff the constraints are rationally satisfiable (with integer
        tightening along the way).  False is a sound integer-UNSAT."""
        les = [e.copy() for e in self._les]
        eqs = [e.copy() for e in self._eqs]
        # Phase 1: Gaussian elimination on the equalities.
        verdict = _eliminate_equalities(eqs, les)
        if verdict is False:
            return False
        # Phase 2: Fourier-Motzkin on the inequalities.
        return _fourier_motzkin(les)

    def implies_eq(self, t1, t2):
        """Whether the constraints force ``t1 == t2`` (exact for rationals,
        conservative for integers: a True answer is always correct)."""
        diff = linearize(t1).minus(linearize(t2))
        # t1 > t2 possible?
        high = self.copy()
        expr = diff.scaled(-1)
        expr.const += 1  # t2 - t1 + 1 <= 0  <=>  t1 >= t2 + 1
        high.add_le(expr)
        if high.check():
            return False
        low = self.copy()
        expr = diff.copy()
        expr.const += 1  # t1 - t2 + 1 <= 0  <=>  t1 <= t2 - 1
        low.add_le(expr)
        if low.check():
            return False
        # Neither t1 > t2 nor t1 < t2 is satisfiable; with the base system
        # satisfiable or not, t1 == t2 is entailed.
        return True


def _tighten(expr):
    """Integral tightening: divide by the gcd of the coefficients and round
    the constant up (e <= 0 with integer-valued terms).  The result is the
    same for every positive multiple of ``expr``."""
    if not expr.coeffs:
        return expr
    g = 0
    for coef in expr.coeffs.values():
        g = gcd(g, coef)
    if g > 1:
        new = LinExpr()
        new.coeffs = {t: c // g for t, c in expr.coeffs.items()}
        # sum(c_i x_i) <= -k  =>  sum(c_i/g x_i) <= floor(-k/g)
        new.const = -((-expr.const) // g)
        return new
    return expr


def _eliminate_equalities(eqs, les):
    """Substitute equalities away; returns False on an immediate conflict.

    Eliminating ``var`` with the pivot ``a*var + rest == 0`` from a target
    ``b*var + t`` yields ``|a|*t - sign(a)*b*rest``: the rational
    substitution ``var = -rest/a`` scaled by ``|a|``, which keeps every
    coefficient an integer and every inequality's direction."""
    while eqs:
        expr = eqs.pop()
        if expr.is_constant:
            if expr.const != 0:
                return False
            continue
        var, coef = next(iter(expr.coeffs.items()))
        rest = expr.copy()
        del rest.coeffs[var]
        scale = abs(coef)
        sign = 1 if coef > 0 else -1

        def substitute(target):
            if var not in target.coeffs:
                return target
            factor = target.coeffs.pop(var)
            return target.scaled(scale).plus(rest.scaled(-sign * factor))

        eqs[:] = [substitute(e) for e in eqs]
        les[:] = [substitute(e) for e in les]
    return True


def _fourier_motzkin(les, max_constraints=6000):
    """Satisfiability of a conjunction of ``e <= 0`` constraints."""
    constraints = []
    for expr in les:
        expr = _tighten(expr)
        if expr.is_constant:
            if expr.const > 0:
                return False
            continue
        constraints.append(expr)
    while constraints:
        # Choose the variable appearing in the fewest constraints to keep
        # the quadratic blowup in check.
        occurrences = {}
        for expr in constraints:
            for var in expr.coeffs:
                occurrences[var] = occurrences.get(var, 0) + 1
        var = min(occurrences, key=lambda v: occurrences[v])
        uppers, lowers, rest = [], [], []
        for expr in constraints:
            coef = expr.coeffs.get(var)
            if coef is None:
                rest.append(expr)
            elif coef > 0:
                uppers.append(expr)  # coef*var <= -(rest)
            else:
                lowers.append(expr)
        new_constraints = rest
        for up in uppers:
            for lo in lowers:
                up_coef = up.coeffs[var]
                lo_coef = -lo.coeffs[var]
                combined = up.scaled(lo_coef).plus(lo.scaled(up_coef))
                combined.coeffs.pop(var, None)
                combined = _tighten(combined)
                if combined.is_constant:
                    if combined.const > 0:
                        return False
                    continue
                new_constraints.append(combined)
        if len(new_constraints) > max_constraints:
            # Give up: claim satisfiable (the sound direction).
            return True
        constraints = new_constraints
    return True
