"""Property-based validation of the theory solvers against ground truth.

- Congruence closure vs. brute-force: interpret every variable and unary
  function symbol over a small finite domain; if some interpretation
  satisfies the asserted (dis)equalities, the closure must be consistent.
- Linear arithmetic vs. brute force: if a conjunction of constraints has an
  integer solution on a small grid, Fourier-Motzkin must answer SAT; an
  UNSAT answer means no grid point satisfies it; and an ``implies_eq``
  answer of True means every grid solution has the two terms equal.  The
  constraints mix inequalities with equalities (negative and non-unit
  coefficients included), so equality elimination is covered too.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.prover.euf import CongruenceClosure
from repro.prover.linarith import LinearSolver
from repro.prover.terms import app, num, var

# -- EUF vs brute force ----------------------------------------------------------

_EUF_VARS = ["x", "y", "z"]
_EUF_FUNCS = ["f", "g"]
_DOMAIN = (0, 1, 2)


def _terms_upto_depth2():
    terms = [var(v) for v in _EUF_VARS]
    depth1 = [app(f, t) for f in _EUF_FUNCS for t in terms]
    return terms + depth1


def _interpret(term, env, tables):
    if term[0] == "var":
        return env[term[1]]
    symbol, (arg,) = term[1], term[2]
    return tables[symbol][_interpret(arg, env, tables)]


def _satisfiable_bruteforce(equalities, disequalities):
    for values in itertools.product(_DOMAIN, repeat=len(_EUF_VARS)):
        env = dict(zip(_EUF_VARS, values))
        for f_table in itertools.product(_DOMAIN, repeat=len(_DOMAIN)):
            for g_table in itertools.product(_DOMAIN, repeat=len(_DOMAIN)):
                tables = {"f": f_table, "g": g_table}
                ok = all(
                    _interpret(a, env, tables) == _interpret(b, env, tables)
                    for a, b in equalities
                ) and all(
                    _interpret(a, env, tables) != _interpret(b, env, tables)
                    for a, b in disequalities
                )
                if ok:
                    return True
    return False


@st.composite
def euf_problems(draw):
    pool = _terms_upto_depth2()
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    equalities = draw(st.lists(pairs, min_size=0, max_size=4))
    disequalities = draw(st.lists(pairs, min_size=0, max_size=3))
    return equalities, disequalities


@settings(max_examples=50, deadline=None)
@given(euf_problems())
def test_euf_agrees_with_bruteforce(problem):
    equalities, disequalities = problem
    cc = CongruenceClosure()
    consistent = True
    for a, b in equalities:
        consistent = cc.merge(a, b) and consistent
    for a, b in disequalities:
        consistent = cc.add_disequality(a, b) and consistent
    brute = _satisfiable_bruteforce(equalities, disequalities)
    if brute:
        # Satisfiable over the domain => the closure must not conflict.
        assert consistent
    # (The converse is not exact: a 3-element domain may be too small for
    #  some consistent problems, so we only check the sound direction.)


def test_euf_conflict_matches_bruteforce_on_forced_case():
    # x = y, f(x) != f(y): unsatisfiable over every domain.
    cc = CongruenceClosure()
    cc.merge(var("x"), var("y"))
    ok = cc.add_disequality(app("f", var("x")), app("f", var("y")))
    assert not ok
    assert not _satisfiable_bruteforce(
        [(var("x"), var("y"))],
        [(app("f", var("x")), app("f", var("y")))],
    )


# -- linear arithmetic vs brute force ------------------------------------------------

_LIN_VARS = ["a", "b"]
_GRID = list(itertools.product(range(-4, 5), repeat=len(_LIN_VARS)))


@st.composite
def linear_constraints(draw):
    """``(coeffs, const, is_eq)`` triples: ``Σ coeffs·vars + const`` is
    ``== 0`` when ``is_eq``, else ``<= 0``."""
    constraints = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = [draw(st.integers(-3, 3)) for _ in _LIN_VARS]
        const = draw(st.integers(-6, 6))
        constraints.append((coeffs, const, draw(st.booleans())))
    return constraints


def _holds(constraints, point):
    for coeffs, const, is_eq in constraints:
        total = sum(c * x for c, x in zip(coeffs, point)) + const
        violated = total != 0 if is_eq else total > 0
        if violated:
            return False
    return True


def _affine_term(coeffs, const):
    term = num(const)
    for coef, name in zip(coeffs, _LIN_VARS):
        term = app("+", term, app("*", num(coef), var(name)))
    return term


def _solver(constraints):
    solver = LinearSolver()
    for coeffs, const, is_eq in constraints:
        if is_eq:
            solver.assert_eq_terms(_affine_term(coeffs, const), num(0))
        else:
            solver.assert_le_terms(_affine_term(coeffs, const), num(0))
    return solver


@settings(max_examples=100, deadline=None)
@given(linear_constraints())
def test_linarith_sat_whenever_grid_point_exists(constraints):
    solver = _solver(constraints)
    if any(_holds(constraints, point) for point in _GRID):
        assert solver.check()


@settings(max_examples=100, deadline=None)
@given(linear_constraints())
def test_linarith_unsat_implies_no_grid_point(constraints):
    solver = _solver(constraints)
    if not solver.check():
        assert not any(_holds(constraints, point) for point in _GRID)


_AFFINE = st.tuples(
    st.lists(st.integers(-3, 3), min_size=len(_LIN_VARS), max_size=len(_LIN_VARS)),
    st.integers(-4, 4),
)


@settings(max_examples=100, deadline=None)
@given(linear_constraints(), _AFFINE, _AFFINE)
def test_linarith_implies_eq_holds_on_every_grid_solution(constraints, left, right):
    solver = _solver(constraints)
    if solver.implies_eq(_affine_term(*left), _affine_term(*right)):

        def value(affine, point):
            coeffs, const = affine
            return sum(c * x for c, x in zip(coeffs, point)) + const

        for point in _GRID:
            if _holds(constraints, point):
                assert value(left, point) == value(right, point)
