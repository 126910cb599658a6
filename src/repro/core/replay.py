"""Trace replay: the executable form of the soundness theorem (Section 4.6).

    *For any path p feasible in P, p is feasible in BP(P, E) as well;
    moreover there is an execution of p in the boolean program whose state
    agrees with the concrete state on every predicate.*

The replayer runs the C program concretely, recording for every executed
statement the truth value of every predicate in scope (before and after the
statement).  It then re-executes the *boolean* program, resolving each
nondeterministic choice from the recording:

- ``*`` branch choices follow the concrete branch outcomes;
- ``unknown()`` / ``choose`` fall-throughs take the predicate's concrete
  post-state truth value;
- callee locals and actuals take the predicate values at procedure entry /
  the translated formal predicates evaluated in the caller's pre-state.

Soundness violations manifest as (a) a blocked ``assume`` (the concrete
path is infeasible in the abstraction), or (b) a boolean variable that
disagrees with its predicate's concrete value after a statement.  Either is
reported; a clean replay is evidence for Theorem 1 on this trace.
"""

from repro.boolprog.interp import AssumeBlocked, BoolProgramInterpreter
from repro.cfront.interp import InterpError, Interpreter, truthy
from repro.core.calls import translate_to_caller


class ReplayViolation:
    __slots__ = ("kind", "detail")

    def __init__(self, kind, detail):
        self.kind = kind
        self.detail = detail

    def __repr__(self):
        return "ReplayViolation(%s: %s)" % (self.kind, self.detail)


class ReplayReport:
    def __init__(self):
        self.violations = []
        self.events_replayed = 0
        self.blocked = None

    @property
    def ok(self):
        return not self.violations and self.blocked is None

    def __repr__(self):
        return "ReplayReport(ok=%r, violations=%r, blocked=%r)" % (
            self.ok,
            self.violations,
            self.blocked,
        )


class _Event:
    __slots__ = (
        "kind",
        "func",
        "sid",
        "pre_vals",
        "post_vals",
        "outcome",
        "call_args",
        "consumed",
    )

    def __init__(self, kind, func, sid):
        self.kind = kind  # "entry", "stmt", "branch"
        self.func = func
        self.sid = sid
        self.pre_vals = {}
        self.post_vals = {}
        self.outcome = None
        self.call_args = {}  # formal-predicate name -> concrete value
        self.consumed = False

    def __repr__(self):
        return "<_Event %s %s sid=%s>" % (self.kind, self.func, self.sid)


class TraceReplayer:
    """Replays one concrete execution inside the abstraction."""

    def __init__(
        self,
        tool,
        boolean_program,
        entry="main",
        args=(),
        extern_oracle=None,
        args_factory=None,
    ):
        """``tool`` is the :class:`repro.core.C2bp` instance that produced
        ``boolean_program`` (the replayer needs its signatures and
        temporaries).  ``args_factory(interp)`` may build heap-allocated
        arguments using the concrete interpreter (e.g. linked lists)."""
        self.tool = tool
        self.program = tool.program
        self.predicates = tool.predicates
        self.boolean_program = boolean_program
        self.entry = entry
        self.args = list(args)
        self.args_factory = args_factory
        self.extern_oracle = extern_oracle
        self.report = ReplayReport()
        self._events = []
        self._entry_stack = []
        self._update_sids = _collect_update_sids(boolean_program)
        self._scope_exprs = {
            func.name: {
                p.name: p.expr for p in self.predicates.in_scope(func.name)
            }
            for func in self.program.defined_functions()
        }

    # -- phase one: concrete execution with predicate recording -----------------

    def _record(self, interp):
        # "pre"/"post" pairs nest across procedure calls (a CallStmt's post
        # fires after all of the callee's events), so match them by stack.
        open_events = []

        def evaluate(expr, env):
            try:
                value = interp.eval_expr(expr, env)
            except InterpError:
                return None  # predicate undefined in this state
            return truthy(value)

        def observer(phase, func_name, stmt, env):
            exprs = self._scope_exprs.get(func_name, {})
            if phase == "entry":
                event = _Event("entry", func_name, None)
                event.post_vals = {n: evaluate(e, env) for n, e in exprs.items()}
                self._events.append(event)
                return
            if phase == "pre":
                kind = "branch" if _is_branch(stmt) else "stmt"
                event = _Event(kind, func_name, stmt.sid)
                event.pre_vals = {n: evaluate(e, env) for n, e in exprs.items()}
                self._record_call_args(event, stmt, env, evaluate)
                self._events.append(event)
                open_events.append(event)
                return
            event = open_events.pop()
            event.post_vals = {n: evaluate(e, env) for n, e in exprs.items()}
            if event.kind == "branch":
                event.outcome = truthy(interp.eval_expr(stmt.cond, env))

        return observer

    def _record_call_args(self, event, stmt, env, evaluate):
        from repro.cfront import cast as C

        if not isinstance(stmt, C.CallStmt):
            return
        callee = self.program.functions.get(stmt.name)
        if callee is None or not callee.is_defined:
            return
        signature = self.tool.signatures[stmt.name]
        for index, predicate in enumerate(signature.formal_predicates):
            meaning = translate_to_caller(
                predicate.expr, signature.formals, stmt.args
            )
            event.call_args[index] = None if meaning is None else evaluate(meaning, env)

    # -- phase two: guided boolean replay ------------------------------------------

    def run(self):
        interp = Interpreter(
            self.program,
            extern_oracle=self.extern_oracle,
            observer=None,
        )
        interp.observer = self._record(interp)
        self._initial_globals = {
            p.name: self._eval_static(interp, p.expr)
            for p in self.predicates.globals
        }
        args = self.args
        if self.args_factory is not None:
            args = self.args_factory(interp)
        interp.call_function(self.entry, args)
        self.report.events_replayed = len(self._events)
        replay = BoolProgramInterpreter(
            self.boolean_program,
            chooser=_ReplayChooser(self),
            stop_on_assert=False,
            listener=self._check_state,
            on_enter=self._enter_procedure,
            on_exit=self._exit_procedure,
        )
        try:
            replay.call(self.entry, self._entry_arguments())
        except AssumeBlocked as blocked:
            self.report.blocked = blocked.stmt
        return self.report

    def _eval_static(self, interp, expr):
        try:
            return truthy(interp.eval_expr(expr, {}))
        except InterpError:
            return None

    def _entry_arguments(self):
        """Concrete values for the entry procedure's formal predicates."""
        proc = self.boolean_program.procedures[self.entry]
        entry_event = next(e for e in self._events if e.kind == "entry")
        values = []
        for name in proc.formals:
            value = entry_event.post_vals.get(name)
            values.append(bool(value))
        return values

    # -- synchronization helpers -----------------------------------------------------

    # Each recorded event is matched with at most one replayed statement
    # execution.  Lookups take the first *unconsumed* event with a matching
    # sid; an event is marked consumed when its statement's replay is
    # complete (the checkpoint of a BAssign, a branch outcome, a procedure
    # entry).  This keeps repeated executions of the same source statement
    # (loops, multiple calls to one procedure) in lockstep with the
    # recording even though pre/post event nesting is not list-ordered.

    def _find_event(self, sid, consume=False):
        for event in self._events:
            if event.sid == sid and not event.consumed:
                if consume:
                    event.consumed = True
                return event
        return None

    def _find_entry_event(self, func, consume=True):
        for event in self._events:
            if event.kind == "entry" and event.func == func and not event.consumed:
                if consume:
                    event.consumed = True
                return event
        return None

    def _enter_procedure(self, name):
        self._entry_stack.append(self._find_entry_event(name, consume=True))

    def _exit_procedure(self, name):
        if self._entry_stack:
            self._entry_stack.pop()

    # -- the chooser / the state check ---------------------------------------------------

    def _check_state(self, proc_name, stmt, env, globals_env):
        from repro.boolprog import ast as B

        # Plain assignments are checkpoints.  A BCall whose sid has a
        # post-call update assignment is not: its listener fires before the
        # update (same source sid) has re-strengthened the caller's
        # predicates, so checking there would flag transient, legitimate
        # disagreement — the update assignment is the checkpoint and
        # consumes the event.  A BCall *without* an update assignment is
        # final when its listener fires, so it checks (and consumes — an
        # unconsumed call event would shadow later executions of the same
        # call site in a loop) its own event.
        if stmt.source_sid is None:
            return
        if isinstance(stmt, B.BCall):
            if stmt.source_sid in self._update_sids:
                return
        elif not isinstance(stmt, B.BAssign):
            return
        event = self._find_event(stmt.source_sid, consume=True)
        if event is None:
            return
        exprs = self._scope_exprs.get(event.func, {})
        for name, concrete in event.post_vals.items():
            if concrete is None or name not in exprs:
                continue
            if name in env:
                got = env[name]
            elif name in globals_env:
                got = globals_env[name]
            else:
                continue
            if bool(got) != bool(concrete):
                self.report.violations.append(
                    ReplayViolation(
                        "state-mismatch",
                        "after sid %s (%s): boolean %r is %r but predicate is %r"
                        % (stmt.source_sid, stmt.comment, name, got, concrete),
                    )
                )


class _ReplayChooser:
    def __init__(self, replayer):
        self.replayer = replayer

    def choose(self, stmt, what):
        kind = what[0]
        replayer = self.replayer
        if kind == "initial":
            value = replayer._initial_globals.get(what[1])
            return bool(value)
        if kind == "local":
            _, proc, local = what
            event = None
            if replayer._entry_stack:
                top = replayer._entry_stack[-1]
                if top is not None and top.func == proc:
                    event = top
            if event is None:
                event = replayer._find_entry_event(proc, consume=False)
            if event is None:
                return False
            return bool(event.post_vals.get(local))
        if kind == "nondet":
            if stmt is None or stmt.source_sid is None:
                return False
            event = replayer._find_event(stmt.source_sid, consume=True)
            if event is None or event.outcome is None:
                return False
            return bool(event.outcome)
        if kind in ("unknown", "choose"):
            hint = what[1] if len(what) > 1 else None
            if stmt is None or stmt.source_sid is None:
                return False
            event = replayer._find_event(stmt.source_sid)
            if event is None:
                return False
            if isinstance(hint, tuple) and hint and hint[0] == "arg":
                _, callee, index = hint
                return bool(event.call_args.get(index))
            if isinstance(hint, str):
                meaning = replayer.tool.temp_meanings.get((event.func, hint))
                if meaning is not None:
                    # Temporaries carry translated post-call meanings.
                    return bool(event.post_vals.get(hint, False))
                return bool(event.post_vals.get(hint))
            return False
        return False


def _collect_update_sids(boolean_program):
    """Sids whose BCall is followed by a post-call update BAssign (same
    source sid) — for those, the update is the replay checkpoint."""
    from repro.boolprog import ast as B

    sids = set()

    def visit(stmts):
        for prev, nxt in zip(stmts, stmts[1:]):
            if (
                isinstance(prev, B.BCall)
                and isinstance(nxt, B.BAssign)
                and prev.source_sid is not None
                and nxt.source_sid == prev.source_sid
            ):
                sids.add(prev.source_sid)
        for stmt in stmts:
            for block in stmt.substatements():
                visit(block)

    for proc in boolean_program.procedures.values():
        visit(proc.body)
    return sids


def _is_branch(stmt):
    from repro.cfront import cast as C

    return isinstance(stmt, (C.If, C.While))
