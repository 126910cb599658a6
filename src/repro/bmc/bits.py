"""Bit-vector circuits over the CDCL SAT core.

The bounded model checker represents every program value as a fixed-width
two's-complement bit vector: a tuple of ``width`` literals, least
significant bit first.  A literal is either a Python ``bool`` (a constant
the encoder folded away) or a nonzero DIMACS-style integer for
:class:`repro.prover.sat.SatSolver` (``-v`` negates ``v``).

Gates are emitted on the fly (Tseitin form) with aggressive constant
folding and structural memoization, so circuits over concrete data —
initialized locals, constant loop counters, unreachable unrolled layers —
collapse to constants and never reach the solver.  The arithmetic follows
C on a ``width``-bit ``int``: wrapping ``+ - *``, truncation-toward-zero
``/ %``, logical ``& | ^ ~``, shift-in-zero ``<<`` and arithmetic ``>>``
(shift amounts are treated as unsigned; amounts at or beyond the width
give 0 / sign fill, matching arbitrary-precision Python semantics after
truncation).  Division by zero is defined as quotient 0 and remainder
equal to the dividend — an arbitrary-but-fixed total semantics; callers
that need C's trap behaviour must guard the divisor themselves.
"""

from repro.prover.sat import SatSolver


class BitEncoder:
    """Emits gate clauses into one :class:`SatSolver`; owns the variable
    space and the per-literal structural memo tables."""

    def __init__(self, width=32, solver=None):
        if width < 2:
            raise ValueError("bit width must be at least 2 (sign + magnitude)")
        self.width = width
        self.solver = solver or SatSolver()
        self.vars = 0
        self.gates = 0
        self.clauses = 0
        self._memo = {}

    # -- literal layer ------------------------------------------------------

    def new_var(self):
        self.vars += 1
        return self.vars

    def emit(self, clause):
        """Add a clause of non-constant literals."""
        self.clauses += 1
        self.solver.add_clause(clause)

    def assert_lit(self, lit):
        """Constrain ``lit`` to be true (an empty clause when it is the
        constant False)."""
        if lit is True:
            return
        if lit is False:
            self.clauses += 1
            self.solver.add_clause([])
            return
        self.emit([lit])

    @staticmethod
    def lit_not(lit):
        if isinstance(lit, bool):
            return not lit
        return -lit

    def lit_and(self, a, b):
        if a is False or b is False:
            return False
        if a is True:
            return b
        if b is True:
            return a
        if a == b:
            return a
        if a == -b:
            return False
        key = ("and", a, b) if a < b else ("and", b, a)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        y = self.new_var()
        self.gates += 1
        self.emit([-y, a])
        self.emit([-y, b])
        self.emit([y, -a, -b])
        self._memo[key] = y
        return y

    def lit_or(self, a, b):
        return self.lit_not(self.lit_and(self.lit_not(a), self.lit_not(b)))

    def lit_xor(self, a, b):
        if isinstance(a, bool):
            return self.lit_not(b) if a else b
        if isinstance(b, bool):
            return self.lit_not(a) if b else a
        if a == b:
            return False
        if a == -b:
            return True
        key = ("xor", a, b) if a < b else ("xor", b, a)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        y = self.new_var()
        self.gates += 1
        self.emit([-y, a, b])
        self.emit([-y, -a, -b])
        self.emit([y, a, -b])
        self.emit([y, -a, b])
        self._memo[key] = y
        return y

    def lit_ite(self, c, a, b):
        """``c ? a : b`` at the literal level."""
        if c is True:
            return a
        if c is False:
            return b
        if a == b:
            return a
        if a is True:
            return self.lit_or(c, b)
        if a is False:
            return self.lit_and(self.lit_not(c), b)
        if b is True:
            return self.lit_or(self.lit_not(c), a)
        if b is False:
            return self.lit_and(c, a)
        if a == -b:
            # ite(c, a, not a) selects a exactly when c holds: c XNOR a.
            return self.lit_xor(c, b)
        key = ("ite", c, a, b)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        y = self.new_var()
        self.gates += 1
        self.emit([-c, -y, a])
        self.emit([-c, y, -a])
        self.emit([c, -y, b])
        self.emit([c, y, -b])
        self._memo[key] = y
        return y

    def or_many(self, lits):
        result = False
        for lit in lits:
            result = self.lit_or(result, lit)
            if result is True:
                return True
        return result

    def and_many(self, lits):
        result = True
        for lit in lits:
            result = self.lit_and(result, lit)
            if result is False:
                return False
        return result

    # -- vector layer -------------------------------------------------------

    def const(self, value):
        """``value`` truncated to ``width`` bits, two's complement."""
        value &= (1 << self.width) - 1
        return tuple(bool((value >> i) & 1) for i in range(self.width))

    def fresh(self):
        """A vector of unconstrained input bits."""
        return tuple(self.new_var() for _ in range(self.width))

    def is_const(self, vec):
        return all(isinstance(bit, bool) for bit in vec)

    def decode(self, vec, model):
        """Decode a vector under a SAT model (unassigned vars read False)."""
        raw = 0
        for i, bit in enumerate(vec):
            if isinstance(bit, bool):
                value = bit
            elif bit > 0:
                value = model.get(bit, False)
            else:
                value = not model.get(-bit, False)
            if value:
                raw |= 1 << i
        half = 1 << (self.width - 1)
        return raw - (1 << self.width) if raw >= half else raw

    def lit_value(self, lit, model):
        if isinstance(lit, bool):
            return lit
        if lit > 0:
            return model.get(lit, False)
        return not model.get(-lit, False)

    def ite(self, cond, then_vec, else_vec):
        if cond is True:
            return then_vec
        if cond is False:
            return else_vec
        if then_vec == else_vec:
            return then_vec
        return tuple(
            self.lit_ite(cond, a, b) for a, b in zip(then_vec, else_vec)
        )

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b, carry_in=False):
        bits = []
        carry = carry_in
        for x, y in zip(a, b):
            s = self.lit_xor(self.lit_xor(x, y), carry)
            carry = self.lit_or(
                self.lit_and(x, y), self.lit_and(carry, self.lit_xor(x, y))
            )
            bits.append(s)
        return tuple(bits)

    def neg(self, a):
        return self.add(self.not_(a), self.const(0), carry_in=True)

    def sub(self, a, b):
        return self.add(a, self.not_(b), carry_in=True)

    def mul(self, a, b):
        # Shift-and-add; partial products gated on b's bits.  When either
        # side is constant the inner AND rows fold to the vector or zero.
        if self.is_const(a) and not self.is_const(b):
            a, b = b, a
        acc = self.const(0)
        for i, bit in enumerate(b):
            if bit is False:
                continue
            row = tuple(
                False if j < i else self.lit_and(a[j - i], bit)
                for j in range(self.width)
            )
            acc = self.add(acc, row)
        return acc

    def _udiv(self, a, b):
        """Unsigned restoring division; returns (quotient, remainder)."""
        rem = self.const(0)
        quot = [False] * self.width
        for i in range(self.width - 1, -1, -1):
            rem = (a[i],) + rem[:-1]
            fits = self.uge(rem, b)
            rem = self.ite(fits, self.sub(rem, b), rem)
            quot[i] = fits
        return tuple(quot), rem

    def divmod_c(self, a, b):
        """C semantics: truncation toward zero; /0 -> (0, dividend)."""
        sign_a = a[-1]
        sign_b = b[-1]
        mag_a = self.ite(sign_a, self.neg(a), a)
        mag_b = self.ite(sign_b, self.neg(b), b)
        quot, rem = self._udiv(mag_a, mag_b)
        q_neg = self.lit_xor(sign_a, sign_b)
        quot = self.ite(q_neg, self.neg(quot), quot)
        rem = self.ite(sign_a, self.neg(rem), rem)
        zero = self.is_zero(b)
        return self.ite(zero, self.const(0), quot), self.ite(zero, a, rem)

    # -- bitwise ------------------------------------------------------------

    def not_(self, a):
        return tuple(self.lit_not(bit) for bit in a)

    def and_(self, a, b):
        return tuple(self.lit_and(x, y) for x, y in zip(a, b))

    def or_(self, a, b):
        return tuple(self.lit_or(x, y) for x, y in zip(a, b))

    def xor(self, a, b):
        return tuple(self.lit_xor(x, y) for x, y in zip(a, b))

    def _shift_stages(self):
        stages = []
        amount = 1
        while amount < self.width:
            stages.append(amount)
            amount <<= 1
        return stages

    def shl(self, a, amount):
        """``a << amount``; the amount vector is read as unsigned, and any
        amount >= width yields zero."""
        result = a
        for stage_index, step in enumerate(self._shift_stages()):
            bit = amount[stage_index]
            if bit is False:
                continue
            shifted = tuple(
                False if i < step else result[i - step] for i in range(self.width)
            )
            result = self.ite(bit, shifted, result)
        overflow = self.or_many(amount[len(self._shift_stages()):])
        return self.ite(overflow, self.const(0), result)

    def ashr(self, a, amount):
        """Arithmetic ``a >> amount``; amounts >= width give the sign fill."""
        sign = a[-1]
        result = a
        for stage_index, step in enumerate(self._shift_stages()):
            bit = amount[stage_index]
            if bit is False:
                continue
            shifted = tuple(
                result[i + step] if i + step < self.width else sign
                for i in range(self.width)
            )
            result = self.ite(bit, shifted, result)
        overflow = self.or_many(amount[len(self._shift_stages()):])
        fill = tuple(sign for _ in range(self.width))
        return self.ite(overflow, fill, result)

    # -- comparisons --------------------------------------------------------

    def eq(self, a, b):
        return self.and_many(
            self.lit_not(self.lit_xor(x, y)) for x, y in zip(a, b)
        )

    def ne(self, a, b):
        return self.lit_not(self.eq(a, b))

    def ult(self, a, b):
        lt = False
        for x, y in zip(a, b):  # LSB first; the MSB decides last.
            lt = self.lit_ite(
                self.lit_xor(x, y), self.lit_and(self.lit_not(x), y), lt
            )
        return lt

    def uge(self, a, b):
        return self.lit_not(self.ult(a, b))

    def slt(self, a, b):
        # Signed compare = unsigned compare with the sign bits flipped.
        a_flipped = a[:-1] + (self.lit_not(a[-1]),)
        b_flipped = b[:-1] + (self.lit_not(b[-1]),)
        return self.ult(a_flipped, b_flipped)

    def sle(self, a, b):
        return self.lit_not(self.slt(b, a))

    # -- booleans -----------------------------------------------------------

    def is_zero(self, a):
        return self.lit_not(self.or_many(a))

    def nonzero(self, a):
        return self.or_many(a)

    def from_bool(self, lit):
        """A 0/1 vector from a condition literal (C truth values)."""
        return (lit,) + tuple(False for _ in range(self.width - 1))
