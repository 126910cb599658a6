"""Random differential testing: the symbolic (BDD) Bebop engine against
its explicit-state reference on generated boolean programs, plus tests
for the reporting APIs."""

from hypothesis import given, settings, strategies as st

from repro.analysis.reuse import clone_stmts
from repro.bebop import Bebop, ExplicitEngine, explicit_divergence, reachability_key
from repro.boolprog import (
    BAssert,
    BAssign,
    BAssume,
    BCall,
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


# -- the reachability key ---------------------------------------------------------


_COMMENTS = st.none() | st.sampled_from(["", "x = 0;", "// skip", "L: goto M;"])


@st.composite
def padded_bodies(draw, stmts):
    """Copies of ``stmts`` with unlabeled skips inserted at every depth
    and every comment rewritten."""
    padded = []
    for stmt in stmts + [None]:
        for _ in range(draw(st.integers(0, 2))):
            skip = BSkip()
            skip.comment = draw(_COMMENTS)
            padded.append(skip)
        if stmt is None:
            break
        (copy,) = clone_stmts([stmt])
        if isinstance(copy, BIf):
            copy.then_body = draw(padded_bodies(stmt.then_body))
            copy.else_body = draw(padded_bodies(stmt.else_body))
        elif isinstance(copy, BWhile):
            copy.body = draw(padded_bodies(stmt.body))
        copy.comment = draw(_COMMENTS)
        padded.append(copy)
    return padded


def _with_main_body(program, body):
    main = program.procedures["main"]
    copy = BProgram()
    copy.globals = list(program.globals)
    copy.add_procedure(
        BProcedure("main", main.formals, main.locals, main.returns, body,
                   enforce=main.enforce)
    )
    return copy


def _error_reached(program):
    symbolic = Bebop(program).run().error_reached
    explicit = ExplicitEngine(program, max_configs=200_000)
    assert symbolic == (explicit.find_assertion_failure() is not None)
    return symbolic


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reachability_key_ignores_unlabeled_skips_and_comments(data):
    """Padding a program with unlabeled skips (nested bodies included) and
    rewriting its comments keeps its key, and Bebop's answer on both
    programs is the explicit engine's."""
    program = data.draw(bool_programs())
    body = program.procedures["main"].body
    padded = _with_main_body(program, data.draw(padded_bodies(body)))
    validate_bool_program(padded)
    assert reachability_key(padded, "main") == reachability_key(program, "main")
    assert _error_reached(padded) == _error_reached(program)


@settings(max_examples=60, deadline=None)
@given(bool_programs())
def test_reachability_key_tracks_labels_conditions_enforce_and_calls(program):
    key = reachability_key(program, "main")
    body = program.procedures["main"].body

    labeled = clone_stmts(body)
    labeled[0].labels.append("M")
    assert reachability_key(_with_main_body(program, labeled), "main") != key

    changed = clone_stmts(body) + [BAssert(BVar("a")), BAssume(BVar("b"))]
    changed_key = reachability_key(_with_main_body(program, changed), "main")
    assert changed_key != key
    for index in (-1, -2):
        flipped = clone_stmts(changed)
        flipped[index].cond = BNot(flipped[index].cond)
        flipped_key = reachability_key(_with_main_body(program, flipped), "main")
        assert flipped_key != changed_key

    enforced = _with_main_body(program, clone_stmts(body))
    enforced.procedures["main"].enforce = BVar("a")
    assert reachability_key(enforced, "main") != key

    keys = set()
    for target in ("f", "g"):
        calling = _with_main_body(program, clone_stmts(body) + [BCall([], target, [])])
        for name in ("f", "g"):
            calling.add_procedure(BProcedure(name, [], [], 0, [BSkip()]))
        keys.add(reachability_key(calling, "main"))
    assert len(keys) == 2
