"""Forward symbolic simulation of one interprocedural C path.

The simulator walks a sequence of C-level steps (statements and decided
branches) maintaining a symbolic store that maps locations to expressions
over fresh *symbols* (the unknown initial values and environment inputs).
Each branch outcome, ``assume``, and ``assert`` contributes a path
constraint (passed asserts positively, the final failing assert of a
counterexample negatively); each
constraint remembers its *provenance* — the original program expression and
the assignments that built its value — which the discovery phase mines for
refinement predicates.

Heap handling is deliberately coarse (the real Newton is a paper of its
own): dereference chains are keyed by the symbolic value of their base
pointer, and a store through a pointer havocs every same-shaped key it may
alias.  Coarseness only *weakens* constraints, so a path declared
infeasible (UNSAT) is genuinely infeasible — the direction CEGAR needs.
"""

from repro.cfront import cast as C
from repro.cfront.cfg import build_program_cfgs
from repro.cfront.exprutils import fold_constants


class CPathStep:
    """One step of a concrete/abstract path at the C level."""

    __slots__ = ("func_name", "stmt", "kind", "outcome")

    def __init__(self, func_name, stmt, kind, outcome=None):
        self.func_name = func_name
        self.stmt = stmt
        self.kind = kind  # "stmt" | "branch" | "call" | "return"
        self.outcome = outcome

    def __repr__(self):
        extra = "" if self.outcome is None else " %r" % self.outcome
        return "<CPathStep %s %s%s>" % (self.func_name, self.kind, extra)


def path_from_boolean_steps(program, steps):
    """Map a boolean-program path (``repro.bebop.explicit.PathStep``) back
    to C statements through the ``source_sid`` correspondence."""
    sid_map = {}
    build_program_cfgs(program)  # idempotent: sids already stamped
    for func in program.defined_functions():

        def visit(stmts):
            for stmt in stmts:
                if stmt.sid is not None:
                    sid_map[stmt.sid] = (func.name, stmt)
                for sub in stmt.substatements():
                    visit(sub)

        visit(func.body)
    c_steps = []
    for step in steps:
        sid = getattr(step.stmt, "source_sid", None)
        if sid is None or sid not in sid_map:
            continue
        func_name, stmt = sid_map[sid]
        if step.kind == "branch":
            c_steps.append(CPathStep(func_name, stmt, "branch", step.outcome))
        elif step.kind == "call":
            c_steps.append(CPathStep(func_name, stmt, "call"))
        elif step.kind == "return":
            c_steps.append(CPathStep(func_name, stmt, "return"))
        else:
            c_steps.append(CPathStep(func_name, stmt, "stmt"))
    return _dedup_adjacent(c_steps)


def _dedup_adjacent(steps):
    """Several boolean statements can share one C source statement (e.g. a
    BCall plus its update assignment); collapse immediate repetitions that
    are not branch revisits."""
    out = []
    for step in steps:
        if (
            out
            and step.kind == "stmt"
            and out[-1].kind in ("stmt", "call")
            and out[-1].stmt is step.stmt
        ):
            continue
        out.append(step)
    return out


class Constraint:
    """One path constraint with provenance for predicate discovery."""

    __slots__ = ("formula", "source_expr", "func_name", "polarity")

    def __init__(self, formula, source_expr, func_name, polarity):
        self.formula = formula  # expression over symbols
        self.source_expr = source_expr  # expression over program variables
        self.func_name = func_name
        self.polarity = polarity

    def __repr__(self):
        return "Constraint(%r)" % (self.formula,)


class PathSimulator:
    def __init__(self, program):
        self.program = program
        self.constraints = []
        # Per-activation scalar stores; activation ids make recursion safe.
        self._frames = []  # list of (func_name, activation id, {name: expr})
        self._globals = {}
        self._heap = {}  # (kind, key...) -> expr
        self._fresh = 0
        self._activations = 0
        # Assignment provenance: (func, var) -> rhs source expression.
        self.last_assignment = {}
        # (func, var) -> callee name, for variables bound from call results
        # (drives interprocedural predicate discovery).
        self.call_assignment = {}
        self._pending_call = None

    # -- symbols -----------------------------------------------------------

    def fresh_symbol(self, hint="sym"):
        self._fresh += 1
        name = "__%s%d" % (hint, self._fresh)
        return C.Id(name)

    # -- store --------------------------------------------------------------

    def _frame(self):
        return self._frames[-1]

    def push_frame(self, func_name, bindings):
        self._activations += 1
        self._frames.append((func_name, self._activations, dict(bindings)))

    def pop_frame(self):
        return self._frames.pop()

    def _lookup_var(self, func_name, name):
        if self._frames:
            frame_func, _, store = self._frame()
            func = self.program.functions.get(frame_func)
            if func is not None and func.lookup_var(name) is not None:
                if name not in store:
                    store[name] = self.fresh_symbol(name)
                return store[name]
        if name not in self._globals:
            decl = self.program.lookup_global(name)
            if decl is not None and isinstance(decl.init, C.IntLit):
                # C globals start at their (constant) initializers.
                self._globals[name] = decl.init
            else:
                self._globals[name] = self.fresh_symbol(name)
        return self._globals[name]

    def _set_var(self, func_name, name, value):
        if self._frames:
            frame_func, _, store = self._frame()
            func = self.program.functions.get(frame_func)
            if func is not None and func.lookup_var(name) is not None:
                store[name] = value
                return
        self._globals[name] = value

    def _heap_key(self, lvalue, func_name):
        """A canonical key for a dereference-based location."""
        if isinstance(lvalue, C.Deref):
            base = self.eval_expr(lvalue.pointer, func_name)
            return ("deref", base._key())
        if isinstance(lvalue, C.FieldAccess):
            if isinstance(lvalue.base, C.Deref):
                base = self.eval_expr(lvalue.base.pointer, func_name)
                return ("field", lvalue.field, base._key())
            base_key = self._heap_key(lvalue.base, func_name) if not isinstance(
                lvalue.base, C.Id
            ) else ("var", lvalue.base.name)
            return ("field", lvalue.field) + tuple([base_key])
        if isinstance(lvalue, C.Index):
            base = self.eval_expr(lvalue.base, func_name)
            index = self.eval_expr(lvalue.index, func_name)
            return ("elem", base._key(), index._key())
        raise ValueError("not a heap location: %r" % (lvalue,))

    def _heap_read(self, lvalue, func_name):
        key = self._heap_key(lvalue, func_name)
        if key not in self._heap:
            self._heap[key] = self.fresh_symbol("mem")
        return self._heap[key]

    def _heap_write(self, lvalue, value, func_name):
        key = self._heap_key(lvalue, func_name)
        # Havoc possibly-aliased keys of the same shape (sound for
        # feasibility: weaker constraints).
        shape = key[:2] if key[0] == "field" else key[:1]
        for other in list(self._heap):
            if other == key:
                continue
            other_shape = other[:2] if other[0] == "field" else other[:1]
            if other_shape == shape:
                self._heap[other] = self.fresh_symbol("mem")
        self._heap[key] = value

    # -- expression evaluation ------------------------------------------------

    def eval_expr(self, expr, func_name):
        """The symbolic value of ``expr`` in the current store."""
        if isinstance(expr, C.IntLit):
            return expr
        if isinstance(expr, C.Id):
            return self._lookup_var(func_name, expr.name)
        if isinstance(expr, C.Unknown):
            return self.fresh_symbol("input")
        if isinstance(expr, (C.Deref, C.FieldAccess, C.Index)):
            return self._heap_read(expr, func_name)
        if isinstance(expr, C.AddrOf):
            # Addresses are opaque but stable: key them by the printed form.
            from repro.cfront.pretty import pretty_expr

            return C.AddrOf(C.Id("__loc_" + pretty_expr(expr.operand).replace(" ", "")))
        if isinstance(expr, C.Cast):
            return self.eval_expr(expr.operand, func_name)
        children = expr.children()
        if children:
            rebuilt = expr.rebuild(
                tuple(self.eval_expr(child, func_name) for child in children)
            )
            return fold_constants(rebuilt)
        return expr

    # -- steps -------------------------------------------------------------------

    def simulate(self, steps):
        """Run the path; returns the accumulated constraints."""
        if not steps:
            return self.constraints
        self.push_frame(steps[0].func_name, {})
        last = len(steps) - 1
        for index, step in enumerate(steps):
            self._step(step, is_last=index == last)
        return self.constraints

    def _step(self, step, is_last=False):
        stmt = step.stmt
        func_name = step.func_name
        if step.kind == "branch":
            cond = stmt.cond
            symbolic = self.eval_expr(cond, func_name)
            source = cond if step.outcome else C.negate(cond)
            formula = symbolic if step.outcome else C.negate(symbolic)
            self.constraints.append(
                Constraint(formula, source, func_name, step.outcome)
            )
            return
        if step.kind == "return":
            # Leaving a callee: bind the caller's target from the callee's
            # return variable, then drop the frame.
            frame_func, _, store = self.pop_frame()
            callee = self.program.functions.get(frame_func)
            call_stmt = stmt  # the caller's CallStmt
            if (
                isinstance(call_stmt, C.CallStmt)
                and call_stmt.lhs is not None
                and callee is not None
                and callee.return_var is not None
            ):
                value = store.get(callee.return_var, self.fresh_symbol("ret"))
                self._assign(call_stmt.lhs, value, step.func_name, source_rhs=None)
                if isinstance(call_stmt.lhs, C.Id):
                    self.call_assignment[(step.func_name, call_stmt.lhs.name)] = (
                        frame_func
                    )
            return
        if isinstance(stmt, (C.Skip, C.Goto)):
            return
        if isinstance(stmt, (C.If, C.While)):
            # An assume synthesized from this conditional (it shares the
            # conditional's sid); the branch step already recorded the
            # stronger concrete condition.
            return
        if isinstance(stmt, C.Assume) or isinstance(stmt, C.Assert):
            symbolic = self.eval_expr(stmt.cond, func_name)
            if isinstance(stmt, C.Assert) and is_last:
                # A counterexample path ends at the assert it claims to
                # violate: the concrete semantics of reaching the error
                # require ¬cond here.  Without this constraint any error
                # behind feasible control flow looks genuine even when
                # the asserted fact holds along the path.
                self.constraints.append(
                    Constraint(
                        C.negate(symbolic), C.negate(stmt.cond), func_name, False
                    )
                )
            else:
                # An assume, or an assert the path *passed*: in concrete
                # semantics continuing past either requires cond.
                self.constraints.append(
                    Constraint(symbolic, stmt.cond, func_name, True)
                )
            return
        if isinstance(stmt, C.Assign):
            value = self.eval_expr(stmt.rhs, func_name)
            self._assign(stmt.lhs, value, func_name, source_rhs=stmt.rhs)
            return
        if isinstance(stmt, C.CallStmt):
            callee = self.program.functions.get(stmt.name)
            if callee is not None and callee.is_defined:
                if step.kind == "call":
                    bindings = {}
                    for param, arg in zip(callee.params, stmt.args):
                        bindings[param.name] = self.eval_expr(arg, func_name)
                    self.push_frame(stmt.name, bindings)
                # A plain "stmt" revisit of a defined call (e.g. the
                # post-call update assignment in the boolean program) was
                # already handled by the call/return steps.
                return
            # Extern (or summarized) call: havoc the result and, coarsely,
            # the heap reachable through pointer arguments.
            if stmt.lhs is not None:
                self._assign(
                    stmt.lhs, self.fresh_symbol("ext"), func_name, source_rhs=None
                )
            for arg in stmt.args:
                arg_type = getattr(arg, "type", None)
                if arg_type is not None and arg_type.is_pointer():
                    for key in list(self._heap):
                        self._heap[key] = self.fresh_symbol("mem")
                    break
            return
        if isinstance(stmt, C.Return):
            return
        raise ValueError("cannot simulate statement %r" % type(stmt).__name__)

    def _assign(self, lhs, value, func_name, source_rhs):
        if isinstance(lhs, C.Id):
            self._set_var(func_name, lhs.name, value)
            if source_rhs is not None:
                self.last_assignment[(func_name, lhs.name)] = source_rhs
            return
        self._heap_write(lhs, value, func_name)
