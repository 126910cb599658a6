"""Unit tests for the SAT core, EUF, and linear arithmetic solvers."""

from fractions import Fraction

from repro.prover.euf import CongruenceClosure
from repro.prover.linarith import LinearSolver, LinExpr, linearize
from repro.prover.sat import SatSolver
from repro.prover.terms import app, num, var


# -- SAT ------------------------------------------------------------------


def test_sat_empty_is_satisfiable():
    assert SatSolver().solve().sat


def test_sat_single_unit():
    solver = SatSolver()
    solver.add_clause([1])
    result = solver.solve()
    assert result.sat
    assert result.model[1] is True


def test_sat_contradictory_units():
    solver = SatSolver()
    solver.add_clause([1])
    solver.add_clause([-1])
    assert not solver.solve().sat


def test_sat_simple_implication_chain():
    solver = SatSolver()
    solver.add_clause([-1, 2])
    solver.add_clause([-2, 3])
    solver.add_clause([1])
    result = solver.solve()
    assert result.sat
    assert result.model[2] is True and result.model[3] is True


def test_sat_unsat_triangle():
    solver = SatSolver()
    solver.add_clause([1, 2])
    solver.add_clause([1, -2])
    solver.add_clause([-1, 2])
    solver.add_clause([-1, -2])
    assert not solver.solve().sat


def test_sat_tautological_clause_ignored():
    solver = SatSolver()
    solver.add_clause([1, -1])
    assert solver.solve().sat


def test_sat_pigeonhole_3_into_2_unsat():
    # Pigeons p in {1,2,3}, holes h in {1,2}; var(p,h) = 2*(p-1)+h.
    def v(p, h):
        return 2 * (p - 1) + h

    solver = SatSolver()
    for p in (1, 2, 3):
        solver.add_clause([v(p, 1), v(p, 2)])
    for h in (1, 2):
        for p1 in (1, 2, 3):
            for p2 in range(p1 + 1, 4):
                solver.add_clause([-v(p1, h), -v(p2, h)])
    assert not solver.solve().sat


def test_sat_random_instances_match_bruteforce():
    import itertools
    import random

    rng = random.Random(7)
    for _ in range(40):
        num_vars = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(1, 12)):
            clause = [
                rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(1, 3))
            ]
            clauses.append(clause)
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        got = solver.solve().sat
        expected = any(
            all(
                any(
                    (lit > 0) == assignment[abs(lit) - 1]
                    for lit in clause
                )
                for clause in clauses
            )
            for assignment in itertools.product([False, True], repeat=num_vars)
        )
        assert got == expected, (clauses, got, expected)


# -- EUF ------------------------------------------------------------------


def test_euf_reflexive():
    cc = CongruenceClosure()
    assert cc.are_equal(var("x"), var("x"))


def test_euf_transitivity():
    cc = CongruenceClosure()
    cc.merge(var("a"), var("b"))
    cc.merge(var("b"), var("c"))
    assert cc.are_equal(var("a"), var("c"))


def test_euf_congruence_unary():
    cc = CongruenceClosure()
    cc.merge(var("x"), var("y"))
    assert cc.are_equal(app("f", var("x")), app("f", var("y")))


def test_euf_congruence_nested():
    cc = CongruenceClosure()
    cc.merge(var("x"), var("y"))
    assert cc.are_equal(
        app("f", app("g", var("x"))), app("f", app("g", var("y")))
    )


def test_euf_congruence_binary_one_arg_differs():
    cc = CongruenceClosure()
    cc.merge(var("x"), var("y"))
    assert not cc.are_equal(app("f", var("x"), var("a")), app("f", var("y"), var("b")))


def test_euf_disequality_conflict():
    cc = CongruenceClosure()
    assert cc.add_disequality(var("a"), var("b"))
    assert not cc.merge(var("a"), var("b"))
    assert not cc.consistent


def test_euf_distinct_numerals_conflict():
    cc = CongruenceClosure()
    cc.merge(var("x"), num(1))
    assert not cc.merge(var("x"), num(2))


def test_euf_numeral_propagates_through_class():
    cc = CongruenceClosure()
    cc.merge(var("x"), var("y"))
    cc.merge(var("y"), num(5))
    assert cc.known_numeral(var("x")) == 5


def test_euf_classic_f3_example():
    # f(f(f(a))) = a and f(f(f(f(f(a))))) = a imply f(a) = a.
    def f(t):
        return app("f", t)

    a = var("a")
    cc = CongruenceClosure()
    cc.add_term(f(f(f(f(f(a))))))
    cc.merge(f(f(f(a))), a)
    cc.merge(f(f(f(f(f(a))))), a)
    assert cc.are_equal(f(a), a)


# -- linear arithmetic -----------------------------------------------------


def _le(solver, t1, t2):
    solver.assert_le_terms(t1, t2)


def test_linarith_trivially_sat():
    assert LinearSolver().check()


def test_linarith_simple_bounds_sat():
    solver = LinearSolver()
    _le(solver, var("x"), num(10))
    _le(solver, num(0), var("x"))
    assert solver.check()


def test_linarith_conflicting_bounds_unsat():
    solver = LinearSolver()
    _le(solver, var("x"), num(3))
    _le(solver, num(5), var("x"))
    assert not solver.check()


def test_linarith_strict_adjacent_bounds_unsat():
    # x < 5 and x > 4 has no integer solution (but a rational one).
    solver = LinearSolver()
    solver.assert_lt_terms(var("x"), num(5))
    solver.assert_lt_terms(num(4), var("x"))
    assert not solver.check()


def test_linarith_transitive_chain_unsat():
    solver = LinearSolver()
    solver.assert_lt_terms(var("x"), var("y"))
    solver.assert_lt_terms(var("y"), var("z"))
    _le(solver, var("z"), var("x"))
    assert not solver.check()


def test_linarith_equalities_gaussian():
    solver = LinearSolver()
    solver.assert_eq_terms(var("x"), app("+", var("y"), num(1)))
    solver.assert_eq_terms(var("y"), num(4))
    _le(solver, var("x"), num(4))
    assert not solver.check()


def test_linarith_integral_tightening():
    # 2x <= 5 and 2x >= 5 has the rational solution x = 5/2 but no integer
    # one; tightening rounds the bounds apart.
    two_x = app("*", num(2), var("x"))
    solver = LinearSolver()
    solver.assert_le_terms(two_x, num(5))
    solver.assert_le_terms(num(5), two_x)
    assert not solver.check()


def test_linarith_opaque_terms_as_variables():
    # deref(p) behaves like a variable in arithmetic.
    d = app("deref", var("p"))
    solver = LinearSolver()
    solver.assert_lt_terms(var("v"), d)  # v < *p
    _le(solver, d, var("v"))  # *p <= v
    assert not solver.check()


def test_linarith_implies_eq():
    solver = LinearSolver()
    _le(solver, var("x"), var("y"))
    _le(solver, var("y"), var("x"))
    assert solver.implies_eq(var("x"), var("y"))
    assert not solver.implies_eq(var("x"), num(0))


def test_linarith_paper_example_x_eq_2_implies_x_lt_4():
    solver = LinearSolver()
    solver.assert_eq_terms(var("x"), num(2))
    solver.assert_lt_terms(num(4) if False else var("x"), num(4))
    assert solver.check()
    # And the refutation direction: x == 2 && x >= 4 is unsat.
    refute = LinearSolver()
    refute.assert_eq_terms(var("x"), num(2))
    refute.assert_le_terms(num(4), var("x"))
    assert not refute.check()


def test_linarith_negative_pivot_unsat_only_after_tightening():
    # -2y + 2x + 1 == 0, y <= 3, y >= 3.  Equality elimination pivots on
    # y (coefficient -2), leaving 2x - 5 <= 0 and -2x + 5 <= 0: the
    # rational point x = 5/2, y = 3 satisfies the system, and only
    # tightening (x <= 2, x >= 3) refutes it over the integers.
    x, y = var("x"), var("y")
    pivot = app("+", app("+", app("*", num(-2), y), app("*", num(2), x)), num(1))
    assert list(linearize(pivot).coeffs) == [y, x]
    solver = LinearSolver()
    solver.assert_eq_terms(pivot, num(0))
    _le(solver, y, num(3))
    _le(solver, num(3), y)
    assert not solver.check()
    rx, ry = Fraction(5, 2), Fraction(3)
    assert -2 * ry + 2 * rx + 1 == 0 and ry <= 3 and ry >= 3


def test_linarith_negative_non_unit_equality_unsat():
    # -2x + y == 0, y <= 3, x >= 2: y = 2x >= 4 contradicts y <= 3.
    x, y = var("x"), var("y")
    solver = LinearSolver()
    solver.assert_eq_terms(app("+", app("*", num(-2), x), y), num(0))
    _le(solver, y, num(3))
    _le(solver, num(2), x)
    assert not solver.check()
    # Dropping x >= 2 leaves x = y = 0 and friends.
    relaxed = LinearSolver()
    relaxed.assert_eq_terms(app("+", app("*", num(-2), x), y), num(0))
    _le(relaxed, y, num(3))
    assert relaxed.check()


def test_linearize_combines_coefficients():
    expr = linearize(app("+", var("x"), app("-", var("x"), num(3))))
    assert expr.coeffs == {var("x"): 2}
    assert expr.const == -3
    # Plain integers throughout, never rationals.
    assert type(expr.coeffs[var("x")]) is int and type(expr.const) is int


def test_linearize_nonlinear_product_opaque():
    expr = linearize(app("*", var("x"), var("y")))
    assert list(expr.coeffs) == [app("*", var("x"), var("y"))]


def test_linexpr_cancellation():
    expr = LinExpr()
    expr.add_term(var("x"), 2)
    expr.add_term(var("x"), -2)
    assert expr.is_constant
