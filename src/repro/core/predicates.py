"""Predicates and the predicate input file.

A predicate is a pure boolean C expression with no function calls
(Section 1).  Each predicate is annotated as *global* or *local to a
procedure* (Section 4.5.1), which determines the scope of its boolean
variable in ``BP(P, E)``.

The predicate input file format follows the paper's Section 2.1 example::

    partition
    curr == NULL, prev == NULL,
    curr->val > v, prev->val > v

    bar
    y >= 0, *q <= y

    global
    locked == 1

A section starts with a procedure name (or the word ``global``) alone on a
line; the following lines list comma-separated predicates until the next
section header or end of file.
"""

from repro.cfront import cast as C
from repro.cfront import parse_expression
from repro.cfront.errors import CFrontError
from repro.cfront.exprutils import is_pure_predicate, variables
from repro.cfront.pretty import pretty_expr
from repro.cfront.typecheck import TypeChecker


class PredicateParseError(Exception):
    pass


class Predicate:
    """One predicate: a boolean C expression with a scope annotation."""

    __slots__ = ("expr", "scope", "name")

    def __init__(self, expr, scope=None):
        if not is_pure_predicate(expr):
            raise PredicateParseError(
                "predicate %s is not pure (calls or nondeterminism)"
                % pretty_expr(expr)
            )
        self.expr = expr
        self.scope = scope  # procedure name, or None for global
        # The display name doubles as the boolean variable identifier in
        # the boolean program, e.g. "curr==NULL".
        self.name = pretty_expr(expr).replace(" ", "")

    @property
    def is_global(self):
        return self.scope is None

    def variables(self):
        return variables(self.expr)

    def __eq__(self, other):
        if not isinstance(other, Predicate):
            return NotImplemented
        return self.expr == other.expr and self.scope == other.scope

    def __hash__(self):
        return hash((self.expr, self.scope))

    def __repr__(self):
        where = "global" if self.is_global else self.scope
        return "Predicate(%s @ %s)" % (self.name, where)


class PredicateSet:
    """The set ``E``, partitioned into ``E_G`` and per-procedure ``E_R``."""

    def __init__(self, predicates=()):
        self.globals = []  # E_G
        self.by_procedure = {}  # name -> [Predicate]  (E_R)
        for predicate in predicates:
            self.add(predicate)

    def add(self, predicate):
        """Add with cross-scope deduplication, returning the retained
        predicate.  A boolean variable is named after its expression, so a
        procedure-local predicate whose expression already exists globally
        would declare a second variable with the same name in that
        procedure's scope; the global one already tracks it everywhere, so
        the local is shadowed (and a newly added global absorbs identical
        locals)."""
        if predicate.is_global:
            for existing in self.globals:
                if existing.expr == predicate.expr:
                    return existing
            self.globals.append(predicate)
            for name, bucket in self.by_procedure.items():
                self.by_procedure[name] = [
                    p for p in bucket if p.expr != predicate.expr
                ]
            return predicate
        for existing in self.globals:
            if existing.expr == predicate.expr:
                return existing
        bucket = self.by_procedure.setdefault(predicate.scope, [])
        for existing in bucket:
            if existing == predicate:
                return existing
        bucket.append(predicate)
        return predicate

    def for_procedure(self, name):
        """``E_R``: the predicates local to procedure ``name``."""
        return list(self.by_procedure.get(name, []))

    def in_scope(self, name):
        """``E_G ∪ E_R``: every predicate visible inside ``name``."""
        return self.globals + self.for_procedure(name)

    def all_predicates(self):
        result = list(self.globals)
        for bucket in self.by_procedure.values():
            result.extend(bucket)
        return result

    def __len__(self):
        return len(self.all_predicates())

    def copy(self):
        """A snapshot: later :meth:`add` calls on either set leave the
        other alone (the predicates themselves are shared)."""
        snapshot = PredicateSet()
        snapshot.globals = list(self.globals)
        snapshot.by_procedure = {
            name: list(bucket) for name, bucket in self.by_procedure.items()
        }
        return snapshot

    def merged_with(self, other):
        merged = PredicateSet(self.all_predicates())
        for predicate in other.all_predicates():
            merged.add(predicate)
        return merged

    def __repr__(self):
        return "PredicateSet(%d predicates)" % len(self)


def _validate_against_program(predicate, program):
    """Type check the predicate in its declared scope."""
    checker = TypeChecker(program)
    if predicate.is_global:
        func = None
    else:
        func = program.functions.get(predicate.scope)
        if func is None:
            raise PredicateParseError(
                "predicate scope %r is not a function of the program"
                % predicate.scope
            )
    try:
        checker.check_expr(predicate.expr, func)
    except CFrontError as error:
        raise PredicateParseError(
            "ill-typed predicate %s: %s" % (predicate.name, error.message)
        ) from error
    if predicate.is_global:
        global_names = set(program.global_names())
        loose = predicate.variables() - global_names
        if loose:
            raise PredicateParseError(
                "global predicate %s mentions non-global variables %s"
                % (predicate.name, sorted(loose))
            )


def _split_top_level_commas(text):
    """Split on commas not nested in parentheses/brackets."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def parse_predicate_file(text, program=None):
    """Parse a predicate input file into a :class:`PredicateSet`.

    When ``program`` is given, section names are checked against its
    functions and each predicate is type checked in its scope.
    """
    result = PredicateSet()
    scope = None
    have_section = False
    for raw_line in text.splitlines():
        line = raw_line.split("//")[0].strip()
        if not line:
            continue
        is_header = (
            "," not in line
            and all(ch.isalnum() or ch == "_" for ch in line)
            and not line[0].isdigit()
        )
        if is_header and (
            line == "global"
            or program is None
            or line in program.functions
        ):
            # A bare identifier naming a function (or "global") starts a
            # section; a bare identifier that is not a function is treated
            # as a (single-variable) predicate below only if a section is
            # already open.
            if line == "global":
                scope = None
                have_section = True
                continue
            if program is None or line in program.functions:
                scope = line
                have_section = True
                continue
        if not have_section:
            raise PredicateParseError(
                "predicate %r appears before any section header" % line
            )
        for part in _split_top_level_commas(line):
            try:
                expr = parse_expression(part)
            except CFrontError as error:
                raise PredicateParseError(
                    "cannot parse predicate %r: %s" % (part, error.message)
                ) from error
            predicate = Predicate(expr, scope)
            if program is not None:
                _validate_against_program(predicate, program)
            result.add(predicate)
    return result


def predicates_for(program, scope, exprs):
    """Convenience: build typed predicates from C expression strings."""
    result = []
    for text in exprs:
        predicate = Predicate(parse_expression(text), scope)
        _validate_against_program(predicate, program)
        result.append(predicate)
    return result


def negate_predicate_expr(expr):
    """The C expression for the negation of a predicate."""
    return C.negate(expr)
