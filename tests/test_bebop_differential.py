"""Random differential testing: the symbolic (BDD) Bebop engine against
its explicit-state reference on generated boolean programs, plus tests
for the reporting APIs."""

from hypothesis import given, settings, strategies as st

from repro.bebop import Bebop, ExplicitEngine, explicit_divergence
from repro.boolprog import (
    BAssert,
    BAssign,
    BAssume,
    BChoose,
    BConst,
    BIf,
    BNondet,
    BNot,
    BProcedure,
    BProgram,
    BSkip,
    BVar,
    BWhile,
    parse_bool_program,
    validate_bool_program,
)

_VARS = ["a", "b", "c"]


@st.composite
def bool_exprs(draw, depth=0):
    choice = draw(st.integers(0, 4 if depth < 2 else 1))
    if choice == 0:
        return BVar(draw(st.sampled_from(_VARS)))
    if choice == 1:
        return BConst(draw(st.booleans()))
    if choice == 2:
        return BNot(draw(bool_exprs(depth=depth + 1)))
    from repro.boolprog import BAnd, BOr

    left = draw(bool_exprs(depth=depth + 1))
    right = draw(bool_exprs(depth=depth + 1))
    return BAnd(left, right) if choice == 3 else BOr(left, right)


@st.composite
def bool_stmts(draw, depth=0):
    choice = draw(st.integers(0, 5 if depth < 2 else 3))
    if choice == 0:
        target = draw(st.sampled_from(_VARS))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            value = draw(bool_exprs())
        elif kind == 1:
            from repro.boolprog import BUnknown

            value = BUnknown()
        else:
            value = BChoose(draw(bool_exprs()), draw(bool_exprs()))
        return BAssign([target], [value])
    if choice == 1:
        return BSkip()
    if choice == 2:
        return BAssume(draw(bool_exprs()))
    if choice == 3:
        return BAssert(draw(bool_exprs()))
    if choice == 4:
        then_body = draw(st.lists(bool_stmts(depth=depth + 1), min_size=0, max_size=2))
        else_body = draw(st.lists(bool_stmts(depth=depth + 1), min_size=0, max_size=2))
        cond = BNondet() if draw(st.booleans()) else draw(bool_exprs())
        return BIf(cond, then_body, else_body)
    body = draw(st.lists(bool_stmts(depth=depth + 1), min_size=0, max_size=2))
    return BWhile(BNondet(), body)


@st.composite
def bool_programs(draw):
    body = draw(st.lists(bool_stmts(), min_size=1, max_size=5))
    tail = BSkip()
    tail.labels.append("L")
    program = BProgram()
    program.add_procedure(BProcedure("main", [], list(_VARS), 0, body + [tail]))
    return program


@settings(max_examples=60, deadline=None)
@given(bool_programs())
def test_symbolic_equals_explicit_on_random_programs(program):
    """Reachable states at every label and the failing-assert sites."""
    validate_bool_program(program)
    symbolic = Bebop(program).run()
    explicit = ExplicitEngine(program, max_configs=200_000)
    assert explicit_divergence(symbolic, explicit) is None


# -- reporting APIs --------------------------------------------------------------


def test_all_invariants_and_report():
    program = parse_bool_program(
        """
        void helper() {
            H: skip;
        }
        void main() {
            decl a;
            a = 1;
            L1: skip;
            a = 0;
            L2: skip;
            helper();
        }
        """
    )
    result = Bebop(program).run()
    invariants = result.all_invariants()
    assert ("main", "L1") in invariants and ("main", "L2") in invariants
    assert invariants[("main", "L1")] == "{a}"
    assert invariants[("main", "L2")] == "!{a}"
    assert ("helper", "H") in invariants
    report = result.format_report()
    assert "main/L1" in report and "BDD nodes" in report


def test_statistics_shapes():
    program = parse_bool_program(
        """
        bool id(p) { return p; }
        void main() { decl a; a = id(1); }
        """
    )
    result = Bebop(program).run()
    stats = result.statistics()
    assert stats["procedures"] == 2
    assert stats["worklist_steps"] > 0
    assert stats["bdd_nodes"] > 2
    assert "id" in stats["summary_nodes"]


def test_labels_listing():
    program = parse_bool_program(
        "void main() { A: skip; B: skip; }"
    )
    result = Bebop(program).run()
    assert result.labels("main") == ["A", "B"]
