"""The executable soundness theorem (Section 4.6): every feasible C trace
must replay cleanly inside BP(P, E) with matching predicate valuations.

Deterministic cases cover the paper's examples and each abstraction
feature; a hypothesis-driven generator then checks random scalar programs
against random predicate sets.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfront import parse_c_program
from repro.cfront.interp import Cell
from repro.core import C2bp, C2bpOptions, parse_predicate_file
from repro.core.replay import TraceReplayer
from repro.engine import EngineContext


def replay(source, predicate_text, entry="main", args=(), oracle=None, args_factory=None):
    program = parse_c_program(source)
    predicates = parse_predicate_file(predicate_text, program)
    tool = C2bp(program, predicates)
    boolean_program = tool.run()
    replayer = TraceReplayer(
        tool,
        boolean_program,
        entry=entry,
        args=list(args),
        extern_oracle=oracle,
        args_factory=args_factory,
    )
    return replayer.run()


def assert_sound(report):
    assert report.blocked is None, "assume blocked: %r" % (report.blocked,)
    assert not report.violations, report.violations


# -- deterministic scalar cases ---------------------------------------------------


def test_straight_line_assignments():
    report = replay(
        "void main(void) { int x, y; x = 1; y = x + 1; x = y * 2; }",
        "main\nx == 1, y == 2, x > y\n",
    )
    assert_sound(report)


def test_branching_both_paths():
    source = """
    void main(int input) {
        int x;
        if (input > 0) { x = 1; } else { x = 0; }
        if (x == 1) { x = 2; }
    }
    """
    preds = "main\nx == 1, x == 2, input > 0\n"
    for value in (-3, 0, 5):
        assert_sound(replay(source, preds, args=[value]))


def test_loop_iterations():
    source = """
    void main(void) {
        int i, s;
        i = 0;
        s = 0;
        while (i < 3) {
            s = s + i;
            i = i + 1;
        }
    }
    """
    assert_sound(replay(source, "main\ni < 3, s == 0, i == 0\n"))


def test_goto_paths():
    source = """
    void main(int c) {
        int x;
        x = 0;
        if (c > 0) { goto skipit; }
        x = 1;
        skipit: x = x + 1;
    }
    """
    preds = "main\nx == 1, x == 2, c > 0\n"
    assert_sound(replay(source, preds, args=[1]))
    assert_sound(replay(source, preds, args=[0]))


def test_nondet_input():
    source = "void main(void) { int x; x = *; if (x > 0) { x = x - 1; } }"
    # The oracle decides the '*' value; both signs must replay.
    assert_sound(replay(source, "main\nx > 0, x == 0\n", oracle=lambda n, a: 5))
    assert_sound(replay(source, "main\nx > 0, x == 0\n", oracle=lambda n, a: -5))


def test_procedure_call_with_return_predicate():
    source = """
    int inc(int a) {
        int r;
        r = a + 1;
        return r;
    }
    void main(void) {
        int x, y;
        x = 0;
        y = inc(x);
    }
    """
    preds = """
    inc
    a == 0, r == 1

    main
    x == 0, y == 1
    """
    assert_sound(replay(source, preds))


def test_procedure_call_globals():
    source = """
    int locked;
    void acquire(void) { locked = 1; }
    void release(void) { locked = 0; }
    void main(void) {
        acquire();
        release();
        acquire();
    }
    """
    preds = "global\nlocked == 1\n"
    assert_sound(replay(source, preds))


def test_extern_call_havoc():
    source = """
    void main(void) {
        int x;
        x = 1;
        x = mystery(x);
        if (x == 1) { x = 2; }
    }
    """
    assert_sound(replay(source, "main\nx == 1, x == 2\n", oracle=lambda n, a: 7))
    assert_sound(replay(source, "main\nx == 1, x == 2\n", oracle=lambda n, a: 1))


def test_enforce_does_not_block_real_traces():
    source = "void main(void) { int x; x = 1; x = 2; x = 3; }"
    report = replay(source, "main\nx == 1, x == 2, x == 3\n")
    assert_sound(report)


def test_assert_does_not_derail_replay():
    source = "void main(void) { int x; x = 1; assert(x == 1); x = 2; }"
    report = replay(source, "main\nx == 1\n")
    assert_sound(report)


# -- the partition example with a real heap ---------------------------------------


PARTITION_SRC = r"""
typedef struct cell {
    int val;
    struct cell* next;
} *list;

list partition(list *l, int v) {
    list curr, prev, newl, nextcurr;
    curr = *l;
    prev = NULL;
    newl = NULL;
    while (curr != NULL) {
        nextcurr = curr->next;
        if (curr->val > v) {
            if (prev != NULL) {
                prev->next = nextcurr;
            }
            if (curr == *l) {
                *l = nextcurr;
            }
            curr->next = newl;
L:          newl = curr;
        } else {
            prev = curr;
        }
        curr = nextcurr;
    }
    return newl;
}
"""


@pytest.mark.parametrize(
    "values", [[], [1], [9], [5, 1, 7, 3], [4, 4, 4], [9, 8, 7, 1, 2]]
)
def test_partition_traces_replay(values):
    def build_args(interp):
        head = interp.make_list(values)
        return [Cell(head, "l"), 4]

    report = replay(
        PARTITION_SRC,
        "partition\ncurr == NULL, prev == NULL, curr->val > v, prev->val > v\n",
        entry="partition",
        args_factory=build_args,
    )
    assert_sound(report)


# -- property-based: random scalar programs -----------------------------------------


_VARS = ["a", "b", "c"]


@st.composite
def small_programs(draw):
    """Random terminating scalar programs over a, b, c."""

    def expr(depth=0):
        choice = draw(st.integers(0, 3 if depth < 2 else 1))
        if choice == 0:
            return str(draw(st.integers(-3, 3)))
        if choice == 1:
            return draw(st.sampled_from(_VARS))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return "(%s %s %s)" % (expr(depth + 1), op, expr(depth + 1))

    def cond():
        op = draw(st.sampled_from(["<", "<=", "==", "!=", ">", ">="]))
        return "%s %s %s" % (draw(st.sampled_from(_VARS)), op, expr(1))

    def stmt(depth):
        choice = draw(st.integers(0, 2 if depth < 2 else 0))
        if choice == 0:
            return "%s = %s;" % (draw(st.sampled_from(_VARS)), expr())
        if choice == 1:
            return "if (%s) { %s } else { %s }" % (
                cond(),
                block(depth + 1),
                block(depth + 1),
            )
        # A loop bounded by a fresh counter to guarantee termination.
        body = block(depth + 1)
        return (
            "k = 0; while (k < 2) { k = k + 1; %s }" % body
        )

    def block(depth):
        count = draw(st.integers(1, 3))
        return " ".join(stmt(depth) for _ in range(count))

    body = block(0)
    source = "void main(void) { int a, b, c, k; a = 0; b = 0; c = 0; %s }" % body

    num_preds = draw(st.integers(1, 3))
    preds = []
    for _ in range(num_preds):
        op = draw(st.sampled_from(["<", "<=", "==", ">", ">="]))
        left = draw(st.sampled_from(_VARS))
        right = draw(
            st.one_of(st.integers(-3, 3).map(str), st.sampled_from(_VARS))
        )
        preds.append("%s %s %s" % (left, op, right))
    predicate_text = "main\n" + ", ".join(preds) + "\n"
    return source, predicate_text


@settings(max_examples=40, deadline=None)
@given(small_programs())
def test_random_scalar_programs_replay_soundly(case):
    source, predicate_text = case
    report = replay(source, predicate_text)
    assert_sound(report)


@settings(max_examples=15, deadline=None)
@given(small_programs())
def test_random_programs_sound_without_optimizations(case):
    # The ablation configurations must stay sound too.
    source, predicate_text = case
    program = parse_c_program(source)
    predicates = parse_predicate_file(predicate_text, program)
    options = C2bpOptions(
        cone_of_influence=False,
        skip_unchanged=False,
        syntactic_heuristics=False,
        max_cube_length=2,
        distribute_f=True,
    )
    tool = C2bp(program, predicates, context=EngineContext(options=options))
    boolean_program = tool.run()
    report = TraceReplayer(tool, boolean_program).run()
    assert_sound(report)


# -- property-based: random programs WITH procedure calls ---------------------------


@st.composite
def programs_with_calls(draw):
    """Random terminating two-procedure programs: main calls a helper."""

    def expr(vars_, depth=0):
        choice = draw(st.integers(0, 3 if depth < 2 else 1))
        if choice == 0:
            return str(draw(st.integers(-3, 3)))
        if choice == 1:
            return draw(st.sampled_from(vars_))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return "(%s %s %s)" % (expr(vars_, depth + 1), op, expr(vars_, depth + 1))

    def cond(vars_):
        op = draw(st.sampled_from(["<", "<=", "==", "!=", ">", ">="]))
        return "%s %s %s" % (draw(st.sampled_from(vars_)), op, expr(vars_, 1))

    helper_vars = ["p", "h"]
    helper_body = []
    helper_body.append("h = %s;" % expr(helper_vars))
    if draw(st.booleans()):
        helper_body.append(
            "if (%s) { h = %s; } else { h = %s; }"
            % (cond(helper_vars), expr(helper_vars), expr(helper_vars))
        )
    helper_body.append("return h;")
    helper = "int helper(int p) { int h; %s }" % " ".join(helper_body)

    main_vars = ["a", "b"]
    main_stmts = ["a = 0;", "b = 0;"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            main_stmts.append(
                "%s = %s;" % (draw(st.sampled_from(main_vars)), expr(main_vars))
            )
        elif kind == 1:
            main_stmts.append(
                "%s = helper(%s);"
                % (draw(st.sampled_from(main_vars)), expr(main_vars))
            )
        else:
            main_stmts.append(
                "if (%s) { %s = helper(%s); }"
                % (cond(main_vars), draw(st.sampled_from(main_vars)), expr(main_vars))
            )
    source = "%s void main(void) { int a, b; %s }" % (helper, " ".join(main_stmts))

    helper_preds, main_preds = [], []
    for target, vars_ in ((helper_preds, ["p", "h"]), (main_preds, ["a", "b"])):
        for _ in range(draw(st.integers(1, 2))):
            op = draw(st.sampled_from(["<", "<=", "==", ">", ">="]))
            target.append(
                "%s %s %s"
                % (
                    draw(st.sampled_from(vars_)),
                    op,
                    draw(st.one_of(st.integers(-3, 3).map(str), st.sampled_from(vars_))),
                )
            )
    predicate_text = "helper\n%s\n\nmain\n%s\n" % (
        ", ".join(helper_preds),
        ", ".join(main_preds),
    )
    return source, predicate_text


@settings(max_examples=30, deadline=None)
@given(programs_with_calls())
def test_random_interprocedural_programs_replay_soundly(case):
    source, predicate_text = case
    report = replay(source, predicate_text)
    assert_sound(report)


# -- calls that write a caller local through a global pointer --------------------


_ESCAPE = (
    "int *r; int *t; void h() { %s } void g() { h(); *t = 1; } "
    "void main() { int a; int b; r = &a; t = &b; a = 0; g(); assert(a == 0); }"
)


@pytest.mark.parametrize("h_body, concrete_fails", [
    ("t = t;", False),  # g writes only b: the assert is provable
    ("t = r;", True),  # now t may hold &a, and g's *t = 1 breaks the assert
])
def test_call_that_writes_an_escaped_local_updates_its_predicates(
    h_body, concrete_fails
):
    """``a``'s address escapes into the global ``r``; when ``h`` copies it
    into ``t``, ``g`` writes ``a`` through ``*t``.  The call rule must
    then treat ``a == 0`` as affected (the callee's transitive mod set
    reaches ``a``'s cell), and only then."""
    from repro.bebop import Bebop
    from repro.cfront.interp import AssertionFailure, Interpreter

    source = _ESCAPE % h_body
    program = parse_c_program(source)
    try:
        Interpreter(program).run("main")
        failed = False
    except AssertionFailure:
        failed = True
    assert failed == concrete_fails
    predicates = parse_predicate_file("\nmain\na == 0\n", program)
    tool = C2bp(program, predicates)
    result = Bebop(tool.run()).run()
    assert bool(result.assertion_failures) == concrete_fails
