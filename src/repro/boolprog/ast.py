"""Abstract syntax for boolean programs.

Expressions are immutable values with structural equality (like the C AST).
``BChoose`` and ``BUnknown`` may only appear at the top level of an
assignment right-hand side or as a call argument — they denote the
``choose``/``unknown`` helper calls from Section 4.3 rather than ordinary
boolean operators, and the model checker gives them relational semantics.
"""


class BExpr:
    __slots__ = ("_hash",)

    def __init__(self):
        self._hash = None

    def _key(self):
        raise NotImplementedError

    def children(self):
        return ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BExpr):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        from repro.boolprog.printer import print_bool_expr

        return "<BExpr %s>" % print_bool_expr(self)


class BConst(BExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = bool(value)

    def _key(self):
        return ("const", self.value)


class BVar(BExpr):
    """A boolean variable; ``name`` is any string (often a predicate text)."""

    __slots__ = ("name",)

    def __init__(self, name):
        super().__init__()
        self.name = name

    def _key(self):
        return ("var", self.name)


class BNot(BExpr):
    __slots__ = ("operand",)

    def __init__(self, operand):
        super().__init__()
        self.operand = operand

    def _key(self):
        return ("not", self.operand._key())

    def children(self):
        return (self.operand,)


class BAnd(BExpr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right

    def _key(self):
        return ("and", self.left._key(), self.right._key())

    def children(self):
        return (self.left, self.right)


class BOr(BExpr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right

    def _key(self):
        return ("or", self.left._key(), self.right._key())

    def children(self):
        return (self.left, self.right)


class BImplies(BExpr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right

    def _key(self):
        return ("implies", self.left._key(), self.right._key())

    def children(self):
        return (self.left, self.right)


class BNondet(BExpr):
    """The control expression ``*``: nondeterministic true or false."""

    __slots__ = ()

    def _key(self):
        return ("nondet",)


class BUnknown(BExpr):
    """``unknown()`` on an assignment right-hand side."""

    __slots__ = ()

    def _key(self):
        return ("unknown",)


class BChoose(BExpr):
    """``choose(pos, neg)``: true if ``pos``, false if ``neg``, else ``*``.

    Section 4.3 guarantees ``pos`` and ``neg`` cannot both hold.
    """

    __slots__ = ("pos", "neg")

    def __init__(self, pos, neg):
        super().__init__()
        self.pos = pos
        self.neg = neg

    def _key(self):
        return ("choose", self.pos._key(), self.neg._key())

    def children(self):
        return (self.pos, self.neg)


def bool_and(exprs):
    exprs = [e for e in exprs if not (isinstance(e, BConst) and e.value)]
    if any(isinstance(e, BConst) and not e.value for e in exprs):
        return BConst(False)
    if not exprs:
        return BConst(True)
    result = exprs[0]
    for expr in exprs[1:]:
        result = BAnd(result, expr)
    return result


def bool_or(exprs):
    exprs = [e for e in exprs if not (isinstance(e, BConst) and not e.value)]
    if any(isinstance(e, BConst) and e.value for e in exprs):
        return BConst(True)
    if not exprs:
        return BConst(False)
    result = exprs[0]
    for expr in exprs[1:]:
        result = BOr(result, expr)
    return result


def bool_not(expr):
    if isinstance(expr, BConst):
        return BConst(not expr.value)
    if isinstance(expr, BNot):
        return expr.operand
    return BNot(expr)


def expr_variables(expr):
    """The set of variable names an expression mentions."""
    result = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BVar):
            result.add(node.name)
        stack.extend(node.children())
    return result


def rename_expr_variables(expr, mapping):
    """The expression with every :class:`BVar` named in ``mapping``
    renamed.  Expressions are immutable values, so affected nodes are
    rebuilt; unaffected subtrees are shared."""
    if isinstance(expr, BVar):
        new_name = mapping.get(expr.name)
        return expr if new_name is None else BVar(new_name)
    if isinstance(expr, BNot):
        return BNot(rename_expr_variables(expr.operand, mapping))
    if isinstance(expr, BAnd):
        return BAnd(
            rename_expr_variables(expr.left, mapping),
            rename_expr_variables(expr.right, mapping),
        )
    if isinstance(expr, BOr):
        return BOr(
            rename_expr_variables(expr.left, mapping),
            rename_expr_variables(expr.right, mapping),
        )
    if isinstance(expr, BImplies):
        return BImplies(
            rename_expr_variables(expr.left, mapping),
            rename_expr_variables(expr.right, mapping),
        )
    if isinstance(expr, BChoose):
        return BChoose(
            rename_expr_variables(expr.pos, mapping),
            rename_expr_variables(expr.neg, mapping),
        )
    return expr  # BConst, BNondet, BUnknown


def rename_stmt_variables(stmts, mapping):
    """Rename variables (including assignment and call targets) across a
    statement list, recursing into compound bodies.  Statement nodes are
    updated in place — labels, source ids, and comments survive — while
    the expressions they hold are rebuilt.  Returns ``stmts``."""
    for stmt in stmts:
        if isinstance(stmt, BAssign):
            stmt.targets = [mapping.get(t, t) for t in stmt.targets]
            stmt.values = [rename_expr_variables(v, mapping) for v in stmt.values]
        elif isinstance(stmt, (BAssume, BAssert)):
            stmt.cond = rename_expr_variables(stmt.cond, mapping)
        elif isinstance(stmt, BIf):
            stmt.cond = rename_expr_variables(stmt.cond, mapping)
            rename_stmt_variables(stmt.then_body, mapping)
            rename_stmt_variables(stmt.else_body, mapping)
        elif isinstance(stmt, BWhile):
            stmt.cond = rename_expr_variables(stmt.cond, mapping)
            rename_stmt_variables(stmt.body, mapping)
        elif isinstance(stmt, BReturn):
            stmt.values = [rename_expr_variables(v, mapping) for v in stmt.values]
        elif isinstance(stmt, BCall):
            stmt.targets = [mapping.get(t, t) for t in stmt.targets]
            stmt.args = [rename_expr_variables(a, mapping) for a in stmt.args]
    return stmts


# -- statements ----------------------------------------------------------------


class BStmt:
    __slots__ = ("labels", "source_sid", "comment")

    def __init__(self):
        self.labels = []
        # The C statement this boolean statement abstracts (for trace
        # correspondence between P and BP(P, E)); None for synthesized code.
        self.source_sid = None
        # Free-form annotation shown by the printer (Figure 1(b) carries the
        # original C statement as a comment).
        self.comment = None

    def substatements(self):
        return ()

    def __repr__(self):
        from repro.boolprog.printer import print_bool_stmt

        return "<%s %s>" % (type(self).__name__, print_bool_stmt(self).strip())


class BSkip(BStmt):
    __slots__ = ()


class BAssign(BStmt):
    """Parallel assignment ``t1, ..., tk = e1, ..., ek;``."""

    __slots__ = ("targets", "values")

    def __init__(self, targets, values):
        super().__init__()
        assert len(targets) == len(values)
        self.targets = list(targets)
        self.values = list(values)


class BAssume(BStmt):
    __slots__ = ("cond",)

    def __init__(self, cond):
        super().__init__()
        self.cond = cond


class BAssert(BStmt):
    __slots__ = ("cond",)

    def __init__(self, cond):
        super().__init__()
        self.cond = cond


class BIf(BStmt):
    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond, then_body, else_body=None):
        super().__init__()
        self.cond = cond
        self.then_body = list(then_body)
        self.else_body = list(else_body or [])

    def substatements(self):
        return (self.then_body, self.else_body)


class BWhile(BStmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        super().__init__()
        self.cond = cond
        self.body = list(body)

    def substatements(self):
        return (self.body,)


class BGoto(BStmt):
    __slots__ = ("label",)

    def __init__(self, label):
        super().__init__()
        self.label = label


class BReturn(BStmt):
    """``return e1, ..., ep;`` — boolean programs return multiple values."""

    __slots__ = ("values",)

    def __init__(self, values=()):
        super().__init__()
        self.values = list(values)


class BCall(BStmt):
    """``t1, ..., tp = name(a1, ..., aj);`` (targets may be empty)."""

    __slots__ = ("targets", "name", "args")

    def __init__(self, targets, name, args):
        super().__init__()
        self.targets = list(targets)
        self.name = name
        self.args = list(args)


# -- program structure ------------------------------------------------------------


class BProcedure:
    """A boolean procedure.

    ``returns`` is the number of boolean values the procedure returns;
    every ``BReturn`` in the body must carry exactly that many expressions.
    """

    __slots__ = ("name", "formals", "locals", "returns", "body", "enforce")

    def __init__(self, name, formals, locals_, returns, body, enforce=None):
        self.name = name
        self.formals = list(formals)
        self.locals = list(locals_)
        self.returns = returns
        self.body = list(body)
        self.enforce = enforce  # BExpr invariant or None (Section 5.1)

    def __repr__(self):
        return "BProcedure(%r)" % self.name


class BProgram:
    __slots__ = ("globals", "procedures")

    def __init__(self):
        self.globals = []
        self.procedures = {}

    def add_procedure(self, procedure):
        self.procedures[procedure.name] = procedure

    def statement_count(self):
        total = 0

        def count(stmts):
            nonlocal total
            for stmt in stmts:
                total += 1
                for sub in stmt.substatements():
                    count(sub)

        for proc in self.procedures.values():
            count(proc.body)
        return total

    def __repr__(self):
        return "BProgram(globals=%r, procedures=%r)" % (
            self.globals,
            list(self.procedures),
        )
