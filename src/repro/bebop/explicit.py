"""Explicit-state engine for boolean programs.

Serves two purposes:

1. **Counterexample extraction** — when the symbolic engine reports a
   reachable assertion failure (or a reachable error label), SLAM needs a
   concrete hierarchical path; an explicit breadth-first search over
   configurations (procedure, node, valuation, call stack) produces the
   shortest one, with every nondeterministic choice pinned.
2. **The reference for the BDD engine** — on non-recursive programs the
   set of reachable valuations per label, and the set of failing
   asserts, must agree with the symbolic engine's
   (:func:`explicit_divergence`, used by the fuzz oracle and the
   differential tests).

Configurations carry the full call stack, so the search is exact; a config
budget bounds runaway exploration (recursion), returning "not found within
budget" rather than diverging.
"""

import itertools
from collections import deque

from repro.boolprog import ast as B
from repro.bebop.graph import BRANCH, ENTRY, EXIT, STMT, build_bool_graph


class PathStep:
    """One executed statement on a counterexample path."""

    __slots__ = ("proc_name", "stmt", "kind", "outcome")

    def __init__(self, proc_name, stmt, kind, outcome=None):
        self.proc_name = proc_name
        self.stmt = stmt
        self.kind = kind  # "stmt", "branch", "call", "return"
        self.outcome = outcome  # branch outcome (True/False) where relevant

    def __repr__(self):
        extra = "" if self.outcome is None else " %s" % self.outcome
        return "<PathStep %s %s%s>" % (self.proc_name, self.kind, extra)


class ExplicitEngine:
    def __init__(self, program, main="main", max_configs=500_000):
        self.program = program
        self.main = main
        self.max_configs = max_configs
        self.graphs = {
            name: build_bool_graph(proc) for name, proc in program.procedures.items()
        }
        self.configs_explored = 0

    # -- valuation helpers -------------------------------------------------------

    def _local_names(self, proc_name):
        proc = self.program.procedures[proc_name]
        return proc.formals + proc.locals

    def _lookup(self, proc_name, name, globals_vals, locals_vals):
        local_names = self._local_names(proc_name)
        if name in local_names:
            return locals_vals[local_names.index(name)]
        if name in self.program.globals:
            return globals_vals[self.program.globals.index(name)]
        raise KeyError("variable %r not in scope in %s" % (name, proc_name))

    def _store(self, proc_name, name, value, globals_vals, locals_vals):
        local_names = self._local_names(proc_name)
        if name in local_names:
            index = local_names.index(name)
            locals_vals = locals_vals[:index] + (value,) + locals_vals[index + 1 :]
        elif name in self.program.globals:
            index = self.program.globals.index(name)
            globals_vals = globals_vals[:index] + (value,) + globals_vals[index + 1 :]
        else:
            raise KeyError("variable %r not in scope in %s" % (name, proc_name))
        return globals_vals, locals_vals

    def eval_expr(self, expr, proc_name, globals_vals, locals_vals):
        """Evaluate a deterministic expression to a bool."""
        if isinstance(expr, B.BConst):
            return expr.value
        if isinstance(expr, B.BVar):
            return self._lookup(proc_name, expr.name, globals_vals, locals_vals)
        if isinstance(expr, B.BNot):
            return not self.eval_expr(expr.operand, proc_name, globals_vals, locals_vals)
        if isinstance(expr, B.BAnd):
            return self.eval_expr(
                expr.left, proc_name, globals_vals, locals_vals
            ) and self.eval_expr(expr.right, proc_name, globals_vals, locals_vals)
        if isinstance(expr, B.BOr):
            return self.eval_expr(
                expr.left, proc_name, globals_vals, locals_vals
            ) or self.eval_expr(expr.right, proc_name, globals_vals, locals_vals)
        if isinstance(expr, B.BImplies):
            return (
                not self.eval_expr(expr.left, proc_name, globals_vals, locals_vals)
            ) or self.eval_expr(expr.right, proc_name, globals_vals, locals_vals)
        raise ValueError("nondeterministic expression in deterministic position")

    def _rhs_values(self, value, proc_name, globals_vals, locals_vals):
        """Possible values of an assignment RHS / call argument."""
        if isinstance(value, (B.BUnknown, B.BNondet)):
            return (False, True)
        if isinstance(value, B.BChoose):
            if self.eval_expr(value.pos, proc_name, globals_vals, locals_vals):
                return (True,)
            if self.eval_expr(value.neg, proc_name, globals_vals, locals_vals):
                return (False,)
            return (False, True)
        return (self.eval_expr(value, proc_name, globals_vals, locals_vals),)

    def _enforce_ok(self, proc_name, globals_vals, locals_vals):
        proc = self.program.procedures[proc_name]
        if proc.enforce is None:
            return True
        return self.eval_expr(proc.enforce, proc_name, globals_vals, locals_vals)

    # -- the search -------------------------------------------------------------------

    def _initial_configs(self):
        """All initial configurations of main (unconstrained variables)."""
        num_globals = len(self.program.globals)
        local_names = self._local_names(self.main)
        entry = self.graphs[self.main].entry
        for globals_vals in itertools.product((False, True), repeat=num_globals):
            for locals_vals in itertools.product(
                (False, True), repeat=len(local_names)
            ):
                if self._enforce_ok(self.main, globals_vals, locals_vals):
                    yield (self.main, entry.uid, globals_vals, locals_vals, ())

    def search(self, goal):
        """BFS until ``goal(proc, node, globals, locals)`` holds; returns the
        list of PathSteps leading there, or None."""
        parents = {}
        queue = deque()
        for config in self._initial_configs():
            if config not in parents:
                parents[config] = None
                queue.append(config)
        self.configs_explored = 0
        while queue:
            config = queue.popleft()
            self.configs_explored += 1
            if self.configs_explored > self.max_configs:
                return None
            proc_name, node_uid, globals_vals, locals_vals, stack = config
            node = self.graphs[proc_name].nodes[node_uid]
            if goal(proc_name, node, globals_vals, locals_vals):
                return self._rebuild_path(parents, config)
            for successor, step in self._successors(config):
                if successor not in parents:
                    parents[successor] = (config, step)
                    queue.append(successor)
        return None

    def _rebuild_path(self, parents, config):
        steps = []
        while parents[config] is not None:
            config, step = parents[config]
            if step is not None:
                steps.append(step)
        steps.reverse()
        return steps

    def _successors(self, config):
        proc_name, node_uid, globals_vals, locals_vals, stack = config
        graph = self.graphs[proc_name]
        node = graph.nodes[node_uid]
        if node.kind == ENTRY:
            target = node.successor()
            yield (proc_name, target.uid, globals_vals, locals_vals, stack), None
            return
        if node.kind == EXIT:
            # Fell off the end (void procedure): return no values.
            yield from self._do_return(proc_name, [], globals_vals, locals_vals, stack)
            return
        if node.kind == BRANCH:
            cond = node.cond
            if isinstance(cond, B.BNondet):
                outcomes = (False, True)
            else:
                outcomes = (
                    self.eval_expr(cond, proc_name, globals_vals, locals_vals),
                )
            for outcome in outcomes:
                target = node.successor(assume=outcome)
                step = PathStep(proc_name, node.stmt, "branch", outcome)
                yield (proc_name, target.uid, globals_vals, locals_vals, stack), step
            return
        stmt = node.stmt
        step = PathStep(proc_name, stmt, "stmt")
        if isinstance(stmt, (B.BSkip, B.BGoto)):
            target = node.successor()
            yield (proc_name, target.uid, globals_vals, locals_vals, stack), step
            return
        if isinstance(stmt, B.BAssume):
            if self.eval_expr(stmt.cond, proc_name, globals_vals, locals_vals):
                target = node.successor()
                yield (proc_name, target.uid, globals_vals, locals_vals, stack), step
            return
        if isinstance(stmt, B.BAssert):
            # Failing asserts have no successors; callers look for them with
            # a goal predicate. Passing asserts continue.
            if self.eval_expr(stmt.cond, proc_name, globals_vals, locals_vals):
                target = node.successor()
                yield (proc_name, target.uid, globals_vals, locals_vals, stack), step
            return
        if isinstance(stmt, B.BAssign):
            choices = [
                self._rhs_values(value, proc_name, globals_vals, locals_vals)
                for value in stmt.values
            ]
            target = node.successor()
            for picked in itertools.product(*choices):
                new_globals, new_locals = globals_vals, locals_vals
                for name, value in zip(stmt.targets, picked):
                    new_globals, new_locals = self._store(
                        proc_name, name, value, new_globals, new_locals
                    )
                if self._enforce_ok(proc_name, new_globals, new_locals):
                    yield (proc_name, target.uid, new_globals, new_locals, stack), step
            return
        if isinstance(stmt, B.BReturn):
            values = [
                self.eval_expr(v, proc_name, globals_vals, locals_vals)
                for v in stmt.values
            ]
            yield from self._do_return(
                proc_name, values, globals_vals, locals_vals, stack
            )
            return
        if isinstance(stmt, B.BCall):
            yield from self._do_call(proc_name, node, stmt, globals_vals, locals_vals, stack)
            return
        raise AssertionError("unhandled statement %r" % type(stmt).__name__)

    def _do_return(self, proc_name, values, globals_vals, locals_vals, stack):
        if not stack:
            return  # main finished: terminal configuration
        caller_name, caller_node_uid, caller_locals, targets = stack[-1]
        rest = stack[:-1]
        new_globals = globals_vals
        new_caller_locals = caller_locals
        if targets:
            if len(values) != len(targets):
                raise ValueError("return arity mismatch from %s" % proc_name)
            for name, value in zip(targets, values):
                new_globals, new_caller_locals = self._store(
                    caller_name, name, value, new_globals, new_caller_locals
                )
        if not self._enforce_ok(caller_name, new_globals, new_caller_locals):
            return
        caller_graph = self.graphs[caller_name]
        resume = caller_graph.nodes[caller_node_uid].successor()
        step = PathStep(caller_name, caller_graph.nodes[caller_node_uid].stmt, "return")
        yield (
            caller_name,
            resume.uid,
            new_globals,
            new_caller_locals,
            rest,
        ), step

    def _do_call(self, proc_name, node, stmt, globals_vals, locals_vals, stack):
        callee = self.program.procedures[stmt.name]
        arg_choices = [
            self._rhs_values(arg, proc_name, globals_vals, locals_vals)
            for arg in stmt.args
        ]
        callee_entry = self.graphs[stmt.name].entry
        step = PathStep(proc_name, stmt, "call")
        frame = (proc_name, node.uid, locals_vals, tuple(stmt.targets))
        for args in itertools.product(*arg_choices):
            # Callee locals start unconstrained.
            for local_values in itertools.product(
                (False, True), repeat=len(callee.locals)
            ):
                callee_locals = tuple(args) + local_values
                if self._enforce_ok(stmt.name, globals_vals, callee_locals):
                    yield (
                        stmt.name,
                        callee_entry.uid,
                        globals_vals,
                        callee_locals,
                        stack + (frame,),
                    ), step

    # -- convenience goals --------------------------------------------------------------

    def find_assertion_failure(self):
        """Shortest path to a failing assert, or None.

        The failing ``assert`` itself is the path's final step: Newton
        needs it to constrain the claimed counterexample with the
        *negation* of the assert condition — without it, any error whose
        guarding control flow is feasible would be reported as genuine
        even when the asserted fact holds along the path."""
        failing = []

        def goal(proc_name, node, globals_vals, locals_vals):
            if node.kind != STMT or not isinstance(node.stmt, B.BAssert):
                return False
            if self.eval_expr(
                node.stmt.cond, proc_name, globals_vals, locals_vals
            ):
                return False
            failing[:] = [PathStep(proc_name, node.stmt, "stmt")]
            return True

        steps = self.search(goal)
        if steps is None:
            return None
        return steps + failing

    def find_label(self, target_proc, label):
        target_node = self.graphs[target_proc].node_for_label(label)
        if target_node is None:
            raise ValueError("no label %r in %s" % (label, target_proc))

        def goal(proc_name, node, globals_vals, locals_vals):
            return proc_name == target_proc and node is target_node

        return self.search(goal)

    def reachable_valuations(self, max_configs=None):
        """Exhaustive reachable (proc, node) -> set of valuations, for
        differential testing against the symbolic engine."""
        budget = max_configs or self.max_configs
        result = {}
        seen = set()
        queue = deque(self._initial_configs())
        seen.update(queue)
        explored = 0
        while queue:
            config = queue.popleft()
            explored += 1
            if explored > budget:
                raise RuntimeError("state budget exhausted")
            proc_name, node_uid, globals_vals, locals_vals, stack = config
            result.setdefault((proc_name, node_uid), set()).add(
                (globals_vals, locals_vals)
            )
            for successor, _ in self._successors(config):
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return result


def explicit_divergence(result, explicit):
    """The first disagreement between a symbolic
    :class:`repro.bebop.checker.BebopResult` and ``explicit`` (an
    :class:`ExplicitEngine` over the same program), as a message, or
    ``None`` when the reachable states at every label of every procedure
    and the set of failing asserts agree.

    The explicit states are built into the symbolic run's BDD manager, so
    the comparison is one identity test per label.  Raises
    ``RuntimeError`` when the explicit engine's state budget runs out.
    """
    valuations = explicit.reachable_valuations()
    for proc_name, graph in explicit.graphs.items():
        for label, node in sorted(graph.labels.items()):
            expected = result.valuation_states(
                proc_name, valuations.get((proc_name, node.uid), ())
            )
            if expected is not result.reachable_states(proc_name, label=label):
                return "reachable states at %s/%s differ" % (proc_name, label)
    explicit_sites = set()
    for (proc_name, uid), states in valuations.items():
        node = explicit.graphs[proc_name].nodes[uid]
        if node.kind != STMT or not isinstance(node.stmt, B.BAssert):
            continue
        if any(
            not explicit.eval_expr(node.stmt.cond, proc_name, g, l)
            for g, l in states
        ):
            explicit_sites.add((proc_name, uid))
    symbolic_sites = {(p, n.uid) for p, n, _ in result.assertion_failures}
    if symbolic_sites != explicit_sites:
        return "assertion sites differ: symbolic %r, explicit %r" % (
            sorted(symbolic_sites), sorted(explicit_sites)
        )
    return None
