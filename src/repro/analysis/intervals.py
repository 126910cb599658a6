"""Interval abstract interpretation over the C program.

Two consumers share the machinery:

- :class:`IntervalDischarger` decides cube validity queries *before* any
  prover call: a query ``⋀cube ⟹ φ`` whose antecedents already bound the
  goal under interval propagation never reaches DPLL(T).  The decision is
  purely logical — it looks only at the query's expressions, never at
  program points — and sound: every ``True`` is a valid implication over
  the integers.  It is *not* weaker than the prover, though.  Its affine
  forms fold products with a zero factor (``(n0*0)*(b*3)`` is ``0``),
  while the prover's linearization keeps a product of two non-numeral
  terms opaque, so some queries are discharged that the prover would
  answer ``False``.  Turning the discharger off can therefore change a
  printed boolean program (generated case ``fuzz-0-40`` is one).
- :class:`FunctionIntervals` runs a widening/narrowing forward pass over
  a function CFG; its loop-head facts become candidate predicates when
  Newton stalls (ROADMAP item 5): a diverging counter like ``x = x + 1``
  often needs exactly the invariant ``x >= 0`` the intervals hand out
  for free.

The interval domain is classic: values are pairs ``(lo, hi)`` with
``None`` for ±∞; widening jumps unstable bounds to ∞ after a few loop
visits, then two descending (narrowing) rounds claw back precision the
widening overshot.
"""

from repro.cfront import cast as C
from repro.cfront.exprutils import fold_constants, is_trivially_false, is_trivially_true
from repro.cfront.pretty import pretty_expr

from repro.analysis.framework import FORWARD, DataflowAnalysis

TOP = (None, None)

#: Comparison operators and their (swapped-operand) mirrors.
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


# -- interval arithmetic --------------------------------------------------------


def iv_const(value):
    return (value, value)


def iv_is_empty(iv):
    lo, hi = iv
    return lo is not None and hi is not None and lo > hi


def iv_join(a, b):
    alo, ahi = a
    blo, bhi = b
    lo = None if alo is None or blo is None else min(alo, blo)
    hi = None if ahi is None or bhi is None else max(ahi, bhi)
    return (lo, hi)


def iv_meet(a, b):
    alo, ahi = a
    blo, bhi = b
    lo = blo if alo is None else (alo if blo is None else max(alo, blo))
    hi = bhi if ahi is None else (ahi if bhi is None else min(ahi, bhi))
    return (lo, hi)


def iv_widen(old, new):
    olo, ohi = old
    nlo, nhi = new
    lo = olo if olo is not None and nlo is not None and nlo >= olo else None
    hi = ohi if ohi is not None and nhi is not None and nhi <= ohi else None
    return (lo, hi)


def iv_add(a, b):
    alo, ahi = a
    blo, bhi = b
    lo = None if alo is None or blo is None else alo + blo
    hi = None if ahi is None or bhi is None else ahi + bhi
    return (lo, hi)


def iv_neg(a):
    lo, hi = a
    return (None if hi is None else -hi, None if lo is None else -lo)


def iv_sub(a, b):
    return iv_add(a, iv_neg(b))


def iv_mul_const(a, k):
    if k == 0:
        return iv_const(0)
    lo, hi = a
    if k < 0:
        lo, hi = hi, lo
    return (None if lo is None else lo * k, None if hi is None else hi * k)


# -- the per-function forward pass ---------------------------------------------


class IntervalAnalysis(DataflowAnalysis):
    """Forward interval environments over one function CFG.

    Facts are ``None`` (unreachable) or a dict mapping variable names to
    intervals; an absent name means ⊤ (unknown).  Pointer stores havoc
    every variable the store may alias; calls havoc everything (the
    callee may write globals and through escaped pointers).
    """

    direction = FORWARD
    widen_after = 3
    narrow_rounds = 2

    def __init__(self, cfg, may_alias=None):
        super().__init__(cfg)
        self._may_alias = may_alias

    def bottom(self):
        return None

    def boundary(self):
        return {}

    def join(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        joined = {}
        for name in left:
            if name in right:
                joined[name] = iv_join(left[name], right[name])
        return joined

    def widen(self, previous, joined):
        if previous is None or joined is None:
            return joined
        widened = {}
        for name, iv in joined.items():
            widened[name] = iv_widen(previous[name], iv) if name in previous else iv
        return widened

    def equals(self, left, right):
        return left == right

    def transfer(self, node, env):
        if env is None:
            return None
        stmt = node.stmt
        if node.kind == "branch" or stmt is None:
            return env
        if isinstance(stmt, C.Assign):
            return self._transfer_assign(stmt, env)
        if isinstance(stmt, C.CallStmt):
            return {}  # callee may write globals / through escaped pointers
        if isinstance(stmt, (C.Assume, C.Assert)):
            # Executions continuing past either satisfy the condition.
            return refine_env(env, stmt.cond, True)
        return env

    def edge_transfer(self, source, edge, env):
        if env is None or edge is None or edge.assume is None:
            return env
        cond = source.cond if source.cond is not None else source.stmt.cond
        return refine_env(env, cond, edge.assume)

    def _transfer_assign(self, stmt, env):
        if isinstance(stmt.lhs, C.Id):
            updated = dict(env)
            updated[stmt.lhs.name] = eval_interval(stmt.rhs, env)
            return updated
        # A store through a pointer / field / index: havoc every tracked
        # name the store may alias (all of them without alias facts).
        if self._may_alias is None:
            return {}
        updated = {}
        for name, iv in env.items():
            if not self._may_alias(stmt.lhs, C.Id(name)):
                updated[name] = iv
        return updated

    # -- narrowing --------------------------------------------------------------

    def solve(self):
        super().solve()
        # Descending rounds from the (widened) post-fixpoint: recompute
        # each in-fact exactly and meet it with the current one, clawing
        # back bounds the widening jumped to ∞.
        for _ in range(self.narrow_rounds):
            for node in self.cfg.nodes:
                if node is self.cfg.entry:
                    continue
                recomputed = None
                for pred in node.preds:
                    edge = None
                    for candidate in pred.edges:
                        if candidate.target is node:
                            edge = candidate
                            break
                    flowed = self.edge_transfer(pred, edge, self.fact_out[pred.uid])
                    recomputed = flowed if recomputed is None else self.join(recomputed, flowed)
                current = self.fact_in[node.uid]
                if recomputed is None or current is None:
                    narrowed = recomputed
                else:
                    narrowed = {
                        name: iv_meet(iv, recomputed[name])
                        for name, iv in current.items()
                        if name in recomputed
                    }
                self.fact_in[node.uid] = narrowed
                self.fact_out[node.uid] = self.transfer(node, narrowed)
        return self


def eval_interval(expr, env):
    """The interval of ``expr`` under ``env`` (absent names are ⊤)."""
    expr = fold_constants(expr)
    if isinstance(expr, C.IntLit):
        return iv_const(expr.value)
    if isinstance(expr, C.Id):
        return env.get(expr.name, TOP)
    if isinstance(expr, C.UnOp):
        if expr.op == "-":
            return iv_neg(eval_interval(expr.operand, env))
        if expr.op == "!":
            return (0, 1)
        return TOP
    if isinstance(expr, C.BinOp):
        op = expr.op
        if op in ("&&", "||") or op in _MIRROR:
            return (0, 1)
        left = eval_interval(expr.left, env)
        right = eval_interval(expr.right, env)
        if op == "+":
            return iv_add(left, right)
        if op == "-":
            return iv_sub(left, right)
        if op == "*":
            if left[0] is not None and left[0] == left[1]:
                return iv_mul_const(right, left[0])
            if right[0] is not None and right[0] == right[1]:
                return iv_mul_const(left, right[0])
        return TOP
    return TOP


def refine_env(env, cond, positive):
    """``env`` restricted to states satisfying ``cond`` (or its negation
    when ``positive`` is false); ``None`` when the restriction is empty
    (the edge is infeasible)."""
    if env is None:
        return None
    cond = fold_constants(cond)
    if is_trivially_true(cond):
        return env if positive else None
    if is_trivially_false(cond):
        return None if positive else env
    if isinstance(cond, C.UnOp) and cond.op == "!":
        return refine_env(env, cond.operand, not positive)
    if isinstance(cond, C.BinOp):
        op = cond.op
        if (op == "&&" and positive) or (op == "||" and not positive):
            left = refine_env(env, cond.left, positive)
            if left is None:
                return None
            return refine_env(left, cond.right, positive)
        if (op == "||" and positive) or (op == "&&" and not positive):
            left = refine_env(env, cond.left, positive)
            right = refine_env(env, cond.right, positive)
            if left is None:
                return right
            if right is None:
                return left
            joined = {}
            for name in left:
                if name in right:
                    joined[name] = iv_join(left[name], right[name])
            return joined
        if op in _MIRROR:
            if not positive:
                return _refine_compare(env, _NEGATE[op], cond.left, cond.right)
            return _refine_compare(env, op, cond.left, cond.right)
    return env


def _refine_compare(env, op, left, right):
    env = _refine_one_side(env, op, left, right)
    if env is None:
        return None
    return _refine_one_side(env, _MIRROR[op], right, left)


def _refine_one_side(env, op, subject, other):
    """Tighten ``subject``'s interval from ``subject op other``."""
    if not isinstance(subject, C.Id):
        return env
    bound = eval_interval(other, env)
    current = env.get(subject.name, TOP)
    if op == "<":
        limit = (None, None if bound[1] is None else bound[1] - 1)
    elif op == "<=":
        limit = (None, bound[1])
    elif op == ">":
        limit = (None if bound[0] is None else bound[0] + 1, None)
    elif op == ">=":
        limit = (bound[0], None)
    elif op == "==":
        limit = bound
    elif op == "!=":
        limit = TOP
        if bound[0] is not None and bound[0] == bound[1]:
            lo, hi = current
            if lo == hi == bound[0]:
                return None
            if lo == bound[0]:
                current = (lo + 1, hi)
            if hi == bound[0]:
                current = (current[0], hi - 1)
    else:
        return env
    refined = iv_meet(current, limit)
    if iv_is_empty(refined):
        return None
    updated = dict(env)
    updated[subject.name] = refined
    return updated


# -- loop-head candidate predicates --------------------------------------------


class FunctionIntervals:
    """Solved intervals for one function, with loop-head queries."""

    def __init__(self, cfg, may_alias=None):
        self.cfg = cfg
        self.analysis = IntervalAnalysis(cfg, may_alias=may_alias)
        self.analysis.solve()

    def env_at(self, node):
        return self.analysis.fact_in.get(node.uid)

    def loop_head_facts(self):
        """``(node, env)`` pairs for every While head with a reachable,
        nontrivial environment."""
        facts = []
        for node in self.cfg.nodes:
            if node.kind == "branch" and isinstance(node.stmt, C.While):
                env = self.env_at(node)
                if env:
                    facts.append((node, env))
        return facts


def interval_candidate_predicates(cfg, may_alias=None, limit=8):
    """Loop-head interval facts as candidate predicate expressions.

    Used when Newton stalls: a diverging loop often needs exactly the
    bound the intervals discovered (``x >= 0`` for a counter).  Only
    finite bounds become candidates; each is a plain comparison the
    predicate machinery already understands.
    """
    candidates = []
    seen = set()
    intervals = FunctionIntervals(cfg, may_alias=may_alias)
    for _node, env in intervals.loop_head_facts():
        for name in sorted(env):
            lo, hi = env[name]
            exprs = []
            if lo is not None:
                exprs.append(C.BinOp(">=", C.Id(name), C.IntLit(lo)))
            if hi is not None:
                exprs.append(C.BinOp("<=", C.Id(name), C.IntLit(hi)))
            for expr in exprs:
                text = pretty_expr(expr)
                if text not in seen:
                    seen.add(text)
                    candidates.append(expr)
    return candidates[:limit]


# -- the pre-prover query discharger -------------------------------------------


def linear_form(expr):
    """``expr`` as ``(coefficients, constant)`` over atom texts, or
    ``None`` when the expression is not affine.  Atoms are variables and
    opaque lvalues (derefs, fields, indexes), keyed by pretty text — two
    occurrences of the same spelling denote the same value within one
    prover query."""
    expr = fold_constants(expr)
    if isinstance(expr, C.IntLit):
        return ({}, expr.value)
    if isinstance(expr, (C.Id, C.Deref, C.FieldAccess, C.Index)):
        return ({pretty_expr(expr): 1}, 0)
    if isinstance(expr, C.UnOp) and expr.op == "-":
        inner = linear_form(expr.operand)
        if inner is None:
            return None
        coefs, const = inner
        return ({atom: -c for atom, c in coefs.items()}, -const)
    if isinstance(expr, C.BinOp) and expr.op in ("+", "-"):
        left = linear_form(expr.left)
        right = linear_form(expr.right)
        if left is None or right is None:
            return None
        sign = 1 if expr.op == "+" else -1
        coefs = dict(left[0])
        for atom, c in right[0].items():
            coefs[atom] = coefs.get(atom, 0) + sign * c
            if coefs[atom] == 0:
                del coefs[atom]
        return (coefs, left[1] + sign * right[1])
    if isinstance(expr, C.BinOp) and expr.op == "*":
        left = linear_form(expr.left)
        right = linear_form(expr.right)
        if left is None or right is None:
            return None
        if not left[0]:
            k, form = left[1], right
        elif not right[0]:
            k, form = right[1], left
        else:
            return None
        if k == 0:
            return ({}, 0)
        return ({atom: c * k for atom, c in form[0].items()}, form[1] * k)
    return None


class _Constraint:
    """``Σ coefs·atoms + const >= 0`` (``eq`` adds the mirror ``<= 0``)."""

    __slots__ = ("coefs", "const", "eq")

    def __init__(self, coefs, const, eq=False):
        self.coefs = coefs
        self.const = const
        self.eq = eq


def _as_pairs(constraints):
    """``constraints`` as ``(coefs, const)`` pairs, each meaning
    ``Σ coefs·atoms + const >= 0``; an equality becomes two mirrored
    pairs."""
    pairs = []
    for con in constraints:
        pairs.append((con.coefs, con.const))
        if con.eq:
            pairs.append(({a: -c for a, c in con.coefs.items()}, -con.const))
    return pairs


def _comparison_constraints(op, left, right):
    """``left op right`` as zero-or-more linear constraints (integer
    semantics: ``a < b`` is ``b - a - 1 >= 0``).  ``None`` when the
    comparison is not affine — the caller must skip it, not guess."""
    lf = linear_form(left)
    rf = linear_form(right)
    if lf is None or rf is None:
        return None
    coefs = dict(rf[0])
    for atom, c in lf[0].items():
        coefs[atom] = coefs.get(atom, 0) - c
        if coefs[atom] == 0:
            del coefs[atom]
    const = rf[1] - lf[1]  # right - left
    if op == "<":
        return [_Constraint(coefs, const - 1)]
    if op == "<=":
        return [_Constraint(coefs, const)]
    if op == ">":
        return [_Constraint({a: -c for a, c in coefs.items()}, -const - 1)]
    if op == ">=":
        return [_Constraint({a: -c for a, c in coefs.items()}, -const)]
    if op == "==":
        return [_Constraint(coefs, const, eq=True)]
    if op == "!=":
        if not coefs:
            # Constant disequality: either trivially true or contradictory.
            return [] if const != 0 else [_Constraint({}, -1)]
        return []  # non-convex; contributes nothing
    return None


#: Marks a goal the discharger has not compiled yet.
_UNSEEN = object()


class IntervalDischarger:
    """Decides ``⋀antecedents ⟹ goal`` by interval constraint
    propagation; sound but incomplete (``False`` means "don't know").

    Only affine facts participate.  The query is valid when the
    antecedents are contradictory (the cube is unsatisfiable) or when
    they force the goal's linear form to its satisfying range.

    One instance lives as long as its ``ProgramAnalyses`` entry (one
    predicate set of one program): every C2bp run on that pair, across
    CEGAR iterations and daemon requests, shares it, and its cube
    decisions reuse the same few candidate literals and goals over and
    over.  ``ProgramAnalyses.attach`` retargets ``stats`` to the run
    using it now.  The work that depends on an expression alone —
    folding, gathering an antecedent's constraints, compiling a goal —
    is memoized per expression, so a decision only propagates bounds and
    checks the goal against them.
    """

    passes = 4

    def __init__(self, stats=None):
        self.stats = stats
        self._antecedents = {}  # expr -> the constraints it contributes
        self._goals = {}  # expr -> True, False, or a compiled goal

    def decide(self, antecedents, goal):
        pairs = []
        for expr in antecedents:
            pairs.extend(self._antecedent_constraints(expr))
        env = {}
        contradictory = not self._propagate(pairs, env)
        if contradictory:
            return self._hit()
        compiled = self._compiled_goal(goal)
        if compiled is True:
            return self._hit()
        if compiled is False:
            return False  # only a contradictory cube would discharge this
        if self._holds(compiled, env):
            return self._hit()
        return False

    def _hit(self):
        if self.stats is not None:
            self.stats.queries_discharged_interval += 1
        return True

    def _antecedent_constraints(self, expr):
        """``expr``'s constraints as :func:`_as_pairs` pairs."""
        expanded = self._antecedents.get(expr)
        if expanded is None:
            constraints = []
            # A fact we cannot model contributes nothing — weakening the
            # left side of an implication is the sound direction — but a
            # partly-modelled conjunction keeps its modelled conjuncts.
            self._gather(expr, True, constraints)
            expanded = _as_pairs(constraints)
            self._antecedents[expr] = expanded
        return expanded

    def _compiled_goal(self, goal):
        compiled = self._goals.get(goal, _UNSEEN)
        if compiled is _UNSEEN:
            folded = fold_constants(goal)
            if is_trivially_true(folded):
                compiled = True
            elif is_trivially_false(folded):
                compiled = False
            else:
                compiled = _compile_goal(folded)
            self._goals[goal] = compiled
        return compiled

    # -- antecedent gathering ---------------------------------------------------

    def _gather(self, expr, positive, out):
        """Append the constraints of ``expr`` (or its negation) to
        ``out``; False when the fact cannot be modelled."""
        expr = fold_constants(expr)
        if positive and is_trivially_false(expr):
            out.append(_Constraint({}, -1))
            return True
        if not positive and is_trivially_true(expr):
            out.append(_Constraint({}, -1))
            return True
        if is_trivially_true(expr) or is_trivially_false(expr):
            return True  # no information
        if isinstance(expr, C.UnOp) and expr.op == "!":
            return self._gather(expr.operand, not positive, out)
        if isinstance(expr, C.BinOp):
            op = expr.op
            if op == "&&" and positive:
                left = self._gather(expr.left, True, out)
                right = self._gather(expr.right, True, out)
                return left and right
            if op == "||" and not positive:
                left = self._gather(expr.left, False, out)
                right = self._gather(expr.right, False, out)
                return left and right
            if op in ("&&", "||"):
                return False  # disjunctive: no convex approximation
            if op in _MIRROR:
                effective = op if positive else _NEGATE[op]
                constraints = _comparison_constraints(effective, expr.left, expr.right)
                if constraints is None:
                    return False
                out.extend(constraints)
                return True
        if not positive:
            # ``!e`` for arithmetic ``e`` means ``e == 0``.
            form = linear_form(expr)
            if form is not None:
                out.append(_Constraint(form[0], form[1], eq=True))
                return True
        return False

    # -- propagation ------------------------------------------------------------

    def _propagate(self, pairs, env):
        """Tighten ``env`` (atom -> interval) from :func:`_as_pairs`
        pairs; False on contradiction."""
        for _ in range(self.passes):
            changed = False
            for coefs, const in pairs:
                if not coefs:
                    if const < 0:
                        return False
                    continue
                for atom, coef in coefs.items():
                    if coef == 0:
                        continue  # vacuous term; also guards the divisions
                    # Any solution satisfies coef·atom >= -const - S where
                    # S = Σ c·other; the weakest consequence on ``atom``
                    # alone substitutes S's maximum over the current env.
                    rest_known = True
                    rest = -const
                    for other, c in coefs.items():
                        if other == atom:
                            continue
                        lo, hi = env.get(other, TOP)
                        bound = hi if c > 0 else lo  # maximizes c·other
                        if bound is None:
                            rest_known = False
                            break
                        rest -= c * bound
                    if not rest_known:
                        continue
                    current = env.get(atom, TOP)
                    if coef > 0:
                        # atom >= ceil(rest / coef)
                        limit = -((-rest) // coef)
                        tightened = iv_meet(current, (limit, None))
                    else:
                        # atom <= floor(rest / coef); Python // floors.
                        tightened = iv_meet(current, (None, rest // coef))
                    if iv_is_empty(tightened):
                        return False
                    if tightened != current:
                        env[atom] = tightened
                        changed = True
            if not changed:
                break
        return True

    # -- goal entailment --------------------------------------------------------

    def _holds(self, compiled, env):
        """Whether the compiled goal holds for every valuation in ``env``."""
        if compiled is None:
            return False
        kind = compiled[0]
        if kind == "all":
            return all(
                self._constraint_holds(coefs, const, env)
                for coefs, const in compiled[1]
            )
        if kind == "and":
            return self._holds(compiled[1], env) and self._holds(compiled[2], env)
        return self._holds(compiled[1], env) or self._holds(compiled[2], env)

    def _constraint_holds(self, coefs, const, env):
        """Whether ``Σ coefs·atoms + const >= 0`` for every valuation in
        ``env`` (minimum of the left side is >= 0)."""
        minimum = const
        for atom, coef in coefs.items():
            lo, hi = env.get(atom, TOP)
            bound = lo if coef > 0 else hi
            if bound is None:
                return False
            minimum += coef * bound
        return minimum >= 0


def _compile_goal(goal):
    """A folded goal as the tree :meth:`IntervalDischarger._holds` checks
    against a box: ``None`` when no box entails it, ``("all", checks)``
    for a comparison whose ``Σ coefs·atoms + const >= 0`` checks must all
    hold, and ``("and" | "or", left, right)`` for connectives."""
    if isinstance(goal, C.UnOp) and goal.op == "!":
        inner = fold_constants(goal.operand)
        if isinstance(inner, C.BinOp) and inner.op in _MIRROR:
            return _compile_goal(
                C.BinOp(_NEGATE[inner.op], inner.left, inner.right)
            )
        return None
    if isinstance(goal, C.BinOp) and goal.op in ("&&", "||"):
        kind = "and" if goal.op == "&&" else "or"
        return (
            kind,
            _compile_goal(fold_constants(goal.left)),
            _compile_goal(fold_constants(goal.right)),
        )
    if not (isinstance(goal, C.BinOp) and goal.op in _MIRROR):
        return None
    if goal.op == "!=":
        # Non-convex: holds only when the box is entirely on one side.
        # (``_comparison_constraints`` models ``!=`` as no-information,
        # which is right for antecedents but vacuous as a goal.)
        return (
            "or",
            _compile_goal(C.BinOp("<", goal.left, goal.right)),
            _compile_goal(C.BinOp(">", goal.left, goal.right)),
        )
    constraints = _comparison_constraints(goal.op, goal.left, goal.right)
    if constraints is None:
        return None
    return ("all", _as_pairs(constraints))
