"""Feasibility checking and predicate discovery.

Given the path constraints from :class:`PathSimulator`:

1. ask the prover whether the conjunction is satisfiable — if so, the
   reported error path is *genuine* (SLAM reports it to the user; the
   toolkit "never reports spurious error paths");
2. otherwise greedily minimize the inconsistent constraint set and extract
   refinement predicates from the core's provenance: the original branch
   conditions (scoped to their procedures) plus ``x == rhs`` equalities for
   the assignments feeding the core's variables.
"""

from repro.cfront import cast as C
from repro.cfront.exprutils import is_pure_predicate, substitute, variables
from repro.core.predicates import Predicate
from repro.engine import EngineContext
from repro.prover import Satisfiability
from repro.newton.pathsym import PathSimulator


class NewtonResult:
    """Outcome of analyzing one counterexample path."""

    def __init__(self, feasible, new_predicates=(), core=()):
        self.feasible = feasible
        self.new_predicates = list(new_predicates)
        self.core = list(core)

    def __repr__(self):
        if self.feasible:
            return "NewtonResult(feasible)"
        return "NewtonResult(infeasible, %d new predicates)" % len(
            self.new_predicates
        )


def analyze_path(program, steps, existing_predicates=None, context=None):
    """Analyze one C-level path (list of :class:`CPathStep`)."""
    context = context if context is not None else EngineContext()
    prover = context.prover
    with context.phase("newton"):
        simulator = PathSimulator(program)
        constraints = simulator.simulate(steps)
        formulas = [c.formula for c in constraints]
        verdict = prover.is_satisfiable(formulas)
        if verdict is not Satisfiability.UNSAT:
            # SAT or UNKNOWN: treat as feasible (never refute a real error).
            return NewtonResult(True)
        core = _minimize_core(prover, constraints)
        predicates = _predicates_from_core(
            program, simulator, core, existing_predicates
        )
        return NewtonResult(False, predicates, core)


def _minimize_core(prover, constraints):
    """Greedy minimal inconsistent subset (one prover call per removal)."""
    core = list(constraints)
    index = 0
    while index < len(core):
        candidate = core[:index] + core[index + 1 :]
        formulas = [c.formula for c in candidate]
        if candidate and prover.is_satisfiable(formulas) is Satisfiability.UNSAT:
            core = candidate
        else:
            index += 1
    return core


def _predicates_from_core(program, simulator, core, existing):
    existing_exprs = set()
    if existing is not None:
        existing_exprs = {
            (p.scope, p.expr) for p in existing.all_predicates()
        }
        existing_exprs |= {
            (p.scope, C.negate(p.expr)) for p in existing.all_predicates()
        }
    found = []
    seen = set()

    global_names = set(program.global_names())

    def consider(expr, scope):
        expr = _normalize(expr)
        if expr is None:
            return
        if variables(expr) <= global_names:
            # A fact purely over globals must be visible program-wide so
            # assignments in *other* procedures update it.
            scope = None
        key = (scope, expr)
        neg_key = (scope, C.negate(expr))
        if key in seen or neg_key in seen:
            return
        if key in existing_exprs or neg_key in existing_exprs:
            return
        if not is_pure_predicate(expr):
            return
        if not _in_scope(program, expr, scope):
            return
        seen.add(key)
        found.append(Predicate(expr, scope))

    core_variables = set()
    for constraint in core:
        consider(constraint.source_expr, constraint.func_name)
        core_variables |= {
            (constraint.func_name, name)
            for name in variables(constraint.source_expr)
        }
    # Data-flow predicates: equalities for assignments that defined the
    # variables the core conditions read.
    for (func_name, var_name), rhs in simulator.last_assignment.items():
        if (func_name, var_name) not in core_variables:
            continue
        if isinstance(rhs, (C.IntLit, C.Id)) or _is_simple_arith(rhs):
            consider(C.BinOp("==", C.Id(var_name), rhs), func_name)
    # Interprocedural predicates: a core fact about a variable bound from a
    # call result must be trackable through the callee's return predicates
    # (Section 4.5.2's E_r) — propose the fact over the callee's return
    # variable, scoped to the callee.
    for constraint in core:
        source = constraint.source_expr
        if not isinstance(source, C.BinOp) or source.op not in C.REL_OPS:
            continue
        for side, other in ((source.left, source.right), (source.right, source.left)):
            if not isinstance(side, C.Id):
                continue
            callee_name = simulator.call_assignment.get(
                (constraint.func_name, side.name)
            )
            if callee_name is None:
                continue
            callee = program.functions.get(callee_name)
            if callee is None or callee.return_var is None:
                continue
            translated = substitute(source, {side: C.Id(callee.return_var)})
            consider(translated, callee_name)
    return found


def _normalize(expr):
    """Keep predicates boolean-shaped: wrap non-relational expressions."""
    if isinstance(expr, C.BinOp) and (expr.op in C.REL_OPS or expr.op in C.LOGIC_OPS):
        return expr
    if isinstance(expr, C.UnOp) and expr.op == "!":
        return expr
    if isinstance(expr, C.IntLit):
        return None  # constant conditions carry no refinement information
    return C.BinOp("!=", expr, C.IntLit(0))


def _is_simple_arith(expr):
    if not isinstance(expr, C.BinOp) or expr.op not in ("+", "-", "*"):
        return False
    return all(
        isinstance(node, (C.Id, C.IntLit, C.BinOp)) for node in _walk_shallow(expr)
    )


def _walk_shallow(expr):
    yield expr
    for child in expr.children():
        yield from _walk_shallow(child)


def _in_scope(program, expr, scope):
    """Every variable of the predicate must resolve in its scope."""
    for name in variables(expr):
        if program.lookup_var(scope, name) is None:
            return False
    return True
