"""Unit tests for the parser (on unlowered ASTs)."""

import pytest

from repro.cfront import cast as C
from repro.cfront import parse_expression, parse_program
from repro.cfront.errors import ParseError


# -- expressions -----------------------------------------------------------


def test_precedence_mul_over_add():
    expr = parse_expression("a + b * c")
    assert isinstance(expr, C.BinOp) and expr.op == "+"
    assert isinstance(expr.right, C.BinOp) and expr.right.op == "*"


def test_left_associativity():
    expr = parse_expression("a - b - c")
    assert expr.op == "-"
    assert isinstance(expr.left, C.BinOp) and expr.left.op == "-"
    assert isinstance(expr.right, C.Id) and expr.right.name == "c"


def test_relational_vs_logical_precedence():
    expr = parse_expression("a < b && c > d")
    assert expr.op == "&&"
    assert expr.left.op == "<"
    assert expr.right.op == ">"


def test_parenthesized_grouping():
    expr = parse_expression("(a + b) * c")
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_unary_operators():
    expr = parse_expression("-x")
    assert isinstance(expr, C.UnOp) and expr.op == "-"
    expr = parse_expression("!x")
    assert isinstance(expr, C.UnOp) and expr.op == "!"


def test_deref_and_addrof():
    expr = parse_expression("*p")
    assert isinstance(expr, C.Deref)
    expr = parse_expression("&x")
    assert isinstance(expr, C.AddrOf)


def test_double_deref():
    expr = parse_expression("**p")
    assert isinstance(expr, C.Deref)
    assert isinstance(expr.pointer, C.Deref)


def test_arrow_normalizes_to_deref_field():
    expr = parse_expression("p->val")
    assert isinstance(expr, C.FieldAccess)
    assert expr.field == "val"
    assert isinstance(expr.base, C.Deref)


def test_dot_field_access():
    expr = parse_expression("s.val")
    assert isinstance(expr, C.FieldAccess)
    assert isinstance(expr.base, C.Id)


def test_chained_arrows():
    expr = parse_expression("p->next->val")
    assert isinstance(expr, C.FieldAccess) and expr.field == "val"
    inner = expr.base
    assert isinstance(inner, C.Deref)
    assert isinstance(inner.pointer, C.FieldAccess) and inner.pointer.field == "next"


def test_array_indexing():
    expr = parse_expression("a[i + 1]")
    assert isinstance(expr, C.Index)
    assert expr.index.op == "+"


def test_call_expression():
    expr = parse_expression("f(x, y + 1)")
    assert isinstance(expr, C.Call)
    assert expr.name == "f"
    assert len(expr.args) == 2


def test_null_becomes_zero_literal():
    expr = parse_expression("NULL")
    assert expr == C.IntLit(0)


def test_ternary():
    expr = parse_expression("a ? b : c")
    assert isinstance(expr, C.Cond)


def test_star_in_expression_position_is_nondet():
    expr = parse_expression("*")
    assert isinstance(expr, C.Unknown)


def test_comparison_chain_parses_flat():
    expr = parse_expression("a == b != c")
    assert expr.op == "!="
    assert expr.left.op == "=="


def test_trailing_garbage_raises():
    with pytest.raises(ParseError):
        parse_expression("a + b )")


def test_structural_equality_and_hash():
    e1 = parse_expression("p->val > v")
    e2 = parse_expression("p->val > v")
    assert e1 == e2
    assert hash(e1) == hash(e2)
    assert e1 != parse_expression("p->val < v")


# -- declarations ------------------------------------------------------------


def test_global_variables():
    prog = parse_program("int x; int y = 3;")
    assert prog.global_names() == ["x", "y"]
    assert prog.globals[1].init == C.IntLit(3)


def test_pointer_declarations():
    prog = parse_program("int *p; int **q;")
    assert prog.globals[0].type.is_pointer()
    assert prog.globals[1].type.target.is_pointer()


def test_multiple_declarators_share_base():
    prog = parse_program("int a, *b, c;")
    assert not prog.globals[0].type.is_pointer()
    assert prog.globals[1].type.is_pointer()
    assert not prog.globals[2].type.is_pointer()


def test_struct_definition():
    prog = parse_program("struct point { int x; int y; };")
    struct = prog.structs["point"]
    assert struct.is_complete
    assert [f.name for f in struct.fields] == ["x", "y"]


def test_self_referential_struct():
    prog = parse_program("struct cell { int val; struct cell *next; };")
    struct = prog.structs["cell"]
    assert struct.field("next").type.target is struct


def test_typedef_struct_pointer():
    prog = parse_program("typedef struct cell { int v; } *list; list head;")
    assert prog.globals[0].type.is_pointer()
    assert prog.globals[0].type.target.is_struct()


def test_enum_constants_fold():
    prog = parse_program("enum { A, B = 10, C }; int x = C;")
    assert prog.globals[0].init == C.IntLit(11)


def test_array_declaration():
    prog = parse_program("int a[10];")
    assert prog.globals[0].type.is_array()
    assert prog.globals[0].type.length == 10


def test_function_declaration_and_definition():
    prog = parse_program("int f(int x); int f(int x) { return x; }")
    func = prog.functions["f"]
    assert func.is_defined
    assert func.param_names() == ["x"]


def test_void_parameter_list():
    prog = parse_program("int f(void) { return 0; }")
    assert prog.functions["f"].params == []


def test_function_returning_pointer():
    prog = parse_program("struct cell { int v; }; struct cell *f(void) { return NULL; }")
    assert prog.functions["f"].ret_type.is_pointer()


# -- statements --------------------------------------------------------------


def _body(source):
    prog = parse_program("void f(void) { %s }" % source)
    return prog.functions["f"].body


def test_assignment_statement():
    (stmt,) = _body("x = 1;")
    assert isinstance(stmt, C.Assign)


def test_call_statement_with_result():
    (stmt,) = _body("x = g(1);")
    assert isinstance(stmt, C.CallStmt)
    assert stmt.name == "g"


def test_call_statement_discarding_result():
    (stmt,) = _body("g(1);")
    assert isinstance(stmt, C.CallStmt)
    assert stmt.lhs is None


def test_chained_assignment_desugars():
    stmts = _body("x = y = 0;")
    assert len(stmts) == 2
    assert isinstance(stmts[0], C.Assign) and stmts[0].lhs == C.Id("y")
    assert isinstance(stmts[1], C.Assign) and stmts[1].lhs == C.Id("x")
    assert stmts[1].rhs == C.Id("y")


def test_compound_assignment_desugars():
    (stmt,) = _body("x += 2;")
    assert isinstance(stmt, C.Assign)
    assert stmt.rhs == C.BinOp("+", C.Id("x"), C.IntLit(2))


def test_postincrement_desugars():
    (stmt,) = _body("x++;")
    assert stmt.rhs == C.BinOp("+", C.Id("x"), C.IntLit(1))


def test_predecrement_desugars():
    (stmt,) = _body("--x;")
    assert stmt.rhs == C.BinOp("-", C.Id("x"), C.IntLit(1))


def test_increment_through_pointer():
    (stmt,) = _body("(*p)++;")
    assert isinstance(stmt.lhs, C.Deref)


def test_if_else():
    (stmt,) = _body("if (x) { y = 1; } else { y = 2; }")
    assert isinstance(stmt, C.If)
    assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1


def test_if_without_braces():
    (stmt,) = _body("if (x) y = 1;")
    assert isinstance(stmt, C.If)
    assert len(stmt.then_body) == 1


def test_dangling_else_binds_to_inner_if():
    (stmt,) = _body("if (a) if (b) x = 1; else x = 2;")
    assert stmt.else_body == []
    inner = stmt.then_body[0]
    assert len(inner.else_body) == 1


def test_while_loop():
    (stmt,) = _body("while (x > 0) { x = x - 1; }")
    assert isinstance(stmt, C.While)


def test_for_loop_parses():
    (stmt,) = _body("for (i = 0; i < 10; i++) { s = s + i; }")
    assert isinstance(stmt, C.For)
    assert len(stmt.init) == 1 and len(stmt.step) == 1


def test_do_while_parses():
    (stmt,) = _body("do { x = x - 1; } while (x);")
    assert isinstance(stmt, C.DoWhile)


def test_goto_and_label():
    stmts = _body("goto done; x = 1; done: x = 2;")
    assert isinstance(stmts[0], C.Goto)
    assert stmts[2].labels == ["done"]


def test_label_at_end_of_block():
    stmts = _body("goto out; out: ;")
    assert stmts[-1].labels == ["out"]


def test_local_declaration_with_initializer():
    prog = parse_program("void f(void) { int x = 5; }")
    func = prog.functions["f"]
    assert func.local_names() == ["x"]
    assert isinstance(func.body[0], C.Assign)


def test_assert_and_assume_statements():
    stmts = _body("assert(x > 0); assume(y < 0);")
    assert isinstance(stmts[0], C.Assert)
    assert isinstance(stmts[1], C.Assume)


def test_return_forms():
    prog = parse_program("int f(void) { return 3; } void g(void) { return; }")
    assert prog.functions["f"].body[0].value == C.IntLit(3)
    assert prog.functions["g"].body[0].value is None


def test_break_and_continue_parse():
    (stmt,) = _body("while (1) { if (x) break; continue; }")
    assert isinstance(stmt.body[0], C.If)
    assert isinstance(stmt.body[0].then_body[0], C.Break)
    assert isinstance(stmt.body[1], C.Continue)


def test_switch_rejected_with_hint():
    with pytest.raises(ParseError, match="switch"):
        parse_program("void f(int x) { switch (x) { } }")


def test_sizeof_type_constant_folds():
    (stmt,) = _body("x = sizeof(int);")
    assert stmt.rhs == C.IntLit(4)


def test_cast_expression():
    prog = parse_program(
        "struct cell { int v; }; void f(void) { struct cell *p; p = (struct cell*)q; }"
    )
    stmt = prog.functions["f"].body[0]
    assert isinstance(stmt.rhs, C.Cast)


# -- binary operators: precedence climbing ---------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.cfront.parser import _BINARY_LEVELS  # noqa: E402
from repro.cfront.pretty import pretty_expr  # noqa: E402

_LEVEL_OF = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


def test_binary_levels_cover_every_operator():
    assert len(_BINARY_LEVELS) == 10
    assert set(_LEVEL_OF) == C.BINARY_OPS


@pytest.mark.parametrize("first", sorted(C.BINARY_OPS))
def test_operator_pairs_group_by_level(first):
    """``a op1 b op2 c`` groups left unless op2 binds tighter."""
    for second in sorted(C.BINARY_OPS):
        expr = parse_expression("a %s b %s c" % (first, second))
        if _LEVEL_OF[second] > _LEVEL_OF[first]:
            assert (expr.op, expr.right.op) == (first, second)
            assert expr.right.pos.column == 4 + len(first)  # at "b"
        else:
            assert (expr.op, expr.left.op) == (second, first)
            assert expr.left.pos.column == 1
        assert expr.pos.column == 1


def _binary_trees():
    atoms = st.one_of(
        st.sampled_from(["a", "b", "c", "d"]).map(C.Id),
        st.integers(0, 9).map(C.IntLit),
    )

    def compound(children):
        return st.one_of(
            st.builds(
                C.BinOp, st.sampled_from(sorted(C.BINARY_OPS)), children, children
            ),
            st.builds(C.UnOp, st.sampled_from(["-", "!"]), children),
        )

    return st.recursive(atoms, compound, max_leaves=12)


def _leftmost_leaf(expr):
    while isinstance(expr, C.BinOp):
        expr = expr.left
    return expr


def _binops(expr):
    if isinstance(expr, C.BinOp):
        yield expr
        yield from _binops(expr.left)
        yield from _binops(expr.right)
    elif isinstance(expr, C.UnOp):
        yield from _binops(expr.operand)


@settings(max_examples=300, deadline=None)
@given(_binary_trees())
def test_binary_round_trip_and_positions(expr):
    text = pretty_expr(expr)
    reparsed = parse_expression(text)
    assert reparsed == expr, (text, pretty_expr(reparsed))
    for node in _binops(reparsed):
        assert node.pos == node.left.pos == _leftmost_leaf(node).pos
