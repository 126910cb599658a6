"""Recursive-descent parser for the C subset.

The accepted language covers what the paper's examples and driver-like
programs need: typedefs, structs (including self-referential ones declared
through pointers), enums (as integer constants), global and local variables,
functions, pointers at any depth, arrays, the full C expression grammar with
assignment/increment operators (desugared during parsing), and the statement forms
``if``/``while``/``do``/``for``/``goto``/labels/``break``/``continue``/
``return`` plus the ``assert``/``assume`` extensions.

Syntactic sugar with side effects (``x++``, ``x += e``, chained assignment)
is desugared by the parser itself into plain assignment statements, so the
parsed program is already close to the paper's intermediate form; the
lowering pass in :mod:`repro.cfront.simplify` finishes the job.
"""

from repro.cfront import cast as C
from repro.cfront import ctypes as CT
from repro.cfront import tokens as T
from repro.cfront.errors import ParseError
from repro.cfront.lexer import tokenize

_TYPE_KEYWORDS = frozenset(
    ["void", "char", "short", "int", "long", "signed", "unsigned", "bool", "struct", "union", "enum", "const"]
)

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])

# Binary operator precedence, loosest first.  Each level is left-associative.
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

# Operator -> index of its level in _BINARY_LEVELS.
_BINARY_LEVEL_OF = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops
}


class Parser:
    """Parses one translation unit into a :class:`repro.cfront.cast.Program`."""

    def __init__(self, source, name="<program>"):
        self._tokens = tokenize(source, name)
        self._index = 0
        self.program = C.Program(name)
        self._enum_constants = {}
        self._temp_counter = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self, ahead=0):
        tokens = self._tokens
        index = self._index + ahead
        return tokens[index] if index < len(tokens) else tokens[-1]

    def _next(self):
        token = self._peek()
        if token.kind != T.EOF:
            self._index += 1
        return token

    def _expect_punct(self, text):
        token = self._next()
        if not token.is_punct(text):
            raise ParseError("expected %r, found %r" % (text, token.text), token.pos)
        return token

    def _expect_keyword(self, word):
        token = self._next()
        if not token.is_keyword(word):
            raise ParseError("expected %r, found %r" % (word, token.text), token.pos)
        return token

    def _expect_ident(self):
        token = self._next()
        if token.kind != T.IDENT:
            raise ParseError("expected identifier, found %r" % token.text, token.pos)
        return token

    def _accept_punct(self, text):
        if self._peek().is_punct(text):
            return self._next()
        return None

    def _accept_keyword(self, word):
        if self._peek().is_keyword(word):
            return self._next()
        return None

    # -- types ---------------------------------------------------------

    def _at_type_start(self, ahead=0):
        token = self._peek(ahead)
        if token.kind == T.KEYWORD and token.text in _TYPE_KEYWORDS:
            return True
        if token.kind == T.KEYWORD and token.text in ("static", "extern", "auto", "typedef"):
            return True
        return token.kind == T.IDENT and token.text in self.program.typedefs

    def _parse_base_type(self):
        """Parse a type specifier (without declarator pointers/arrays)."""
        token = self._peek()
        # Skip qualifiers and storage classes we do not model.
        while self._accept_keyword("const") or self._accept_keyword("static") or self._accept_keyword(
            "extern"
        ) or self._accept_keyword("auto"):
            token = self._peek()
        if token.is_keyword("struct") or token.is_keyword("union"):
            return self._parse_struct_type()
        if token.is_keyword("enum"):
            return self._parse_enum_type()
        if token.kind == T.KEYWORD and token.text in ("void", "char", "short", "int", "long", "signed", "unsigned", "bool"):
            names = []
            while self._peek().kind == T.KEYWORD and self._peek().text in (
                "void",
                "char",
                "short",
                "int",
                "long",
                "signed",
                "unsigned",
                "bool",
            ):
                names.append(self._next().text)
            if names == ["void"]:
                return CT.VOID
            if "bool" in names:
                return CT.BOOL
            if "char" in names:
                return CT.CHAR
            if "long" in names:
                return CT.LONG
            return CT.INT
        if token.kind == T.IDENT and token.text in self.program.typedefs:
            self._next()
            return self.program.typedefs[token.text]
        raise ParseError("expected a type, found %r" % token.text, token.pos)

    def _parse_struct_type(self):
        token = self._next()  # struct / union (unions share the struct model)
        tag = None
        if self._peek().kind == T.IDENT:
            tag = self._next().text
        if tag is None and not self._peek().is_punct("{"):
            raise ParseError("anonymous struct must have a body", token.pos)
        if tag is None:
            tag = "__anon%d" % len(self.program.structs)
        struct = self.program.structs.get(tag)
        if struct is None:
            struct = CT.StructType(tag)
            self.program.structs[tag] = struct
        if self._accept_punct("{"):
            fields = []
            while not self._peek().is_punct("}"):
                base = self._parse_base_type()
                while True:
                    name, ctype = self._parse_declarator(base)
                    fields.append(CT.StructField(name, ctype, len(fields)))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(";")
            self._expect_punct("}")
            struct.define(fields)
        return struct

    def _parse_enum_type(self):
        self._next()  # enum
        if self._peek().kind == T.IDENT:
            self._next()  # tag; enums are just ints
        if self._accept_punct("{"):
            next_value = 0
            while not self._peek().is_punct("}"):
                name = self._expect_ident().text
                if self._accept_punct("="):
                    value_expr = self._parse_conditional()
                    from repro.cfront.exprutils import fold_constants

                    folded = fold_constants(value_expr)
                    if not isinstance(folded, C.IntLit):
                        raise ParseError("enum value must be constant", value_expr.pos)
                    next_value = folded.value
                self._enum_constants[name] = next_value
                next_value += 1
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
        return CT.INT

    def _parse_declarator(self, base):
        """Parse ``* ... name [array]`` and return (name, full type)."""
        ctype = base
        while self._accept_punct("*"):
            while self._accept_keyword("const"):
                pass
            ctype = CT.PointerType(ctype)
        name_token = self._expect_ident()
        while self._accept_punct("["):
            if self._peek().is_punct("]"):
                length = None
            else:
                from repro.cfront.exprutils import fold_constants

                length_expr = fold_constants(self._parse_conditional())
                if not isinstance(length_expr, C.IntLit):
                    raise ParseError("array length must be constant", length_expr.pos)
                length = length_expr.value
            self._expect_punct("]")
            ctype = CT.ArrayType(ctype, length)
        return name_token.text, ctype

    def _parse_abstract_type(self):
        """A type with optional ``*``s and no name, as in casts/sizeof."""
        ctype = self._parse_base_type()
        while self._accept_punct("*"):
            ctype = CT.PointerType(ctype)
        return ctype

    # -- top level -----------------------------------------------------

    def parse_program(self):
        while self._peek().kind != T.EOF:
            self._parse_top_level()
        return self.program

    def _parse_top_level(self):
        if self._accept_keyword("typedef"):
            base = self._parse_base_type()
            while True:
                name, ctype = self._parse_declarator(base)
                self.program.typedefs[name] = ctype
                if not self._accept_punct(","):
                    break
            self._expect_punct(";")
            return
        base = self._parse_base_type()
        if self._accept_punct(";"):
            return  # bare struct/enum definition
        # Look ahead past '*'s and the name to distinguish function vs var.
        probe = 0
        while self._peek(probe).is_punct("*"):
            probe += 1
        name_tok = self._peek(probe)
        after = self._peek(probe + 1)
        if name_tok.kind == T.IDENT and after.is_punct("("):
            self._parse_function(base)
        else:
            while True:
                name, ctype = self._parse_declarator(base)
                init = None
                if self._accept_punct("="):
                    init = self._parse_assignment_rhs_expr()
                self.program.globals.append(C.VarDecl(name, ctype, init, name_tok.pos))
                if not self._accept_punct(","):
                    break
            self._expect_punct(";")

    def _parse_function(self, base):
        ret_type = base
        while self._accept_punct("*"):
            ret_type = CT.PointerType(ret_type)
        name_token = self._expect_ident()
        self._expect_punct("(")
        params = []
        variadic = False
        if not self._peek().is_punct(")"):
            if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
                self._next()
            else:
                while True:
                    if self._accept_punct("..."):
                        variadic = True
                        break
                    param_base = self._parse_base_type()
                    pname, ptype = self._parse_declarator(param_base)
                    params.append(C.VarDecl(pname, CT.decay(ptype), pos=self._peek().pos))
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        func = C.Function(name_token.text, ret_type, params, [], None, name_token.pos)
        del variadic  # accepted syntactically; calls are checked by arity of params provided
        if self._accept_punct(";"):
            if name_token.text not in self.program.functions:
                self.program.functions[name_token.text] = func
            return
        self._current_locals = []
        self._expect_punct("{")
        body = self._parse_block_body()
        func.locals = self._current_locals
        func.body = body
        self.program.functions[name_token.text] = func

    # -- statements ------------------------------------------------------

    def _parse_block_body(self):
        """Statements until the matching '}' (already consumed '{')."""
        stmts = []
        while not self._peek().is_punct("}"):
            stmts.extend(self._parse_statement())
        self._expect_punct("}")
        return stmts

    def _parse_statement(self):
        """Parse one statement, returning a *list* (desugaring may expand)."""
        token = self._peek()
        # Labels: IDENT ':' not followed by something that makes it a decl.
        if token.kind == T.IDENT and self._peek(1).is_punct(":"):
            label = self._next().text
            self._expect_punct(":")
            if self._peek().is_punct("}"):
                stmt = C.Skip(token.pos)
                stmt.labels.append(label)
                return [stmt]
            inner = self._parse_statement()
            if not inner:
                inner = [C.Skip(token.pos)]
            inner[0].labels.insert(0, label)
            return inner
        if token.is_punct("{"):
            self._next()
            return self._parse_block_body()
        if token.is_punct(";"):
            self._next()
            return [C.Skip(token.pos)]
        if self._at_type_start():
            return self._parse_local_decl()
        if token.is_keyword("if"):
            return [self._parse_if()]
        if token.is_keyword("while"):
            return [self._parse_while()]
        if token.is_keyword("do"):
            return [self._parse_do_while()]
        if token.is_keyword("for"):
            return [self._parse_for()]
        if token.is_keyword("goto"):
            self._next()
            label = self._expect_ident().text
            self._expect_punct(";")
            return [C.Goto(label, token.pos)]
        if token.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return [C.Break(token.pos)]
        if token.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return [C.Continue(token.pos)]
        if token.is_keyword("return"):
            self._next()
            value = None
            if not self._peek().is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return [C.Return(value, token.pos)]
        if token.is_keyword("assert"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            self._expect_punct(";")
            return [C.Assert(cond, token.pos)]
        if token.is_keyword("assume"):
            self._next()
            self._expect_punct("(")
            cond = self._parse_expression()
            self._expect_punct(")")
            self._expect_punct(";")
            return [C.Assume(cond, token.pos)]
        if token.is_keyword("switch"):
            raise ParseError("switch statements are not supported; use if/else", token.pos)
        # Expression statement (assignment, call, increment...).
        stmts = self._parse_expression_statement()
        self._expect_punct(";")
        return stmts

    def _parse_local_decl(self):
        pos = self._peek().pos
        base = self._parse_base_type()
        stmts = []
        while True:
            name, ctype = self._parse_declarator(base)
            decl = C.VarDecl(name, ctype, None, pos)
            self._current_locals.append(decl)
            if self._accept_punct("="):
                init = self._parse_assignment_rhs_expr()
                stmts.append(C.Assign(C.Id(name, pos), init, pos))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return stmts

    def _parse_if(self):
        pos = self._expect_keyword("if").pos
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then_body = self._parse_statement()
        else_body = []
        if self._accept_keyword("else"):
            else_body = self._parse_statement()
        return C.If(cond, then_body, else_body, pos)

    def _parse_while(self):
        pos = self._expect_keyword("while").pos
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return C.While(cond, body, pos)

    def _parse_do_while(self):
        pos = self._expect_keyword("do").pos
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return C.DoWhile(cond, body, pos)

    def _parse_for(self):
        pos = self._expect_keyword("for").pos
        self._expect_punct("(")
        init = []
        if not self._peek().is_punct(";"):
            if self._at_type_start():
                init = self._parse_local_decl()
                # _parse_local_decl consumed the ';'
            else:
                init = self._parse_expression_statement()
                self._expect_punct(";")
        else:
            self._next()
        cond = None
        if not self._peek().is_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step = []
        if not self._peek().is_punct(")"):
            step = self._parse_expression_statement()
        self._expect_punct(")")
        body = self._parse_statement()
        return C.For(init, cond, step, body, pos)

    def _parse_expression_statement(self):
        """Parse assignment / call / ++ / -- statements, desugaring into a
        list of plain Assign/CallStmt/ExprStmt statements."""
        pos = self._peek().pos
        # Prefix increment/decrement.
        if self._peek().is_punct("++") or self._peek().is_punct("--"):
            op = self._next().text
            target = self._parse_unary()
            delta = C.BinOp("+" if op == "++" else "-", target, C.IntLit(1, pos), pos)
            return [C.Assign(target, delta, pos)]
        expr = self._parse_expression_no_assign()
        token = self._peek()
        if token.kind == T.PUNCT and token.text in _ASSIGN_OPS:
            self._next()
            if token.text == "=":
                rhs_stmts, rhs = self._parse_assignment_rhs()
            else:
                rhs_stmts, rhs_value = self._parse_assignment_rhs()
                binop = token.text[:-1]
                rhs = C.BinOp(binop, expr, rhs_value, pos)
            if isinstance(rhs, C.Call):
                return rhs_stmts + [C.CallStmt(expr, rhs.name, list(rhs.args), pos)]
            return rhs_stmts + [C.Assign(expr, rhs, pos)]
        if token.is_punct("++") or token.is_punct("--"):
            op = self._next().text
            delta = C.BinOp("+" if op == "++" else "-", expr, C.IntLit(1, pos), pos)
            return [C.Assign(expr, delta, pos)]
        if isinstance(expr, C.Call):
            return [C.CallStmt(None, expr.name, list(expr.args), pos)]
        return [C.ExprStmt(expr, pos)]

    def _parse_assignment_rhs(self):
        """RHS of '=': may itself be a chained assignment ``x = y = e``.

        Returns (prefix statements, value expression)."""
        save = self._index
        try:
            lhs = self._parse_expression_no_assign()
        except ParseError:
            self._index = save
            return [], self._parse_expression()
        if self._peek().is_punct("="):
            pos = self._next().pos
            inner_stmts, inner_value = self._parse_assignment_rhs()
            if isinstance(inner_value, C.Call):
                stmt = C.CallStmt(lhs, inner_value.name, list(inner_value.args), pos)
            else:
                stmt = C.Assign(lhs, inner_value, pos)
            return inner_stmts + [stmt], lhs
        self._index = save
        return [], self._parse_expression()

    def _parse_assignment_rhs_expr(self):
        stmts, value = self._parse_assignment_rhs()
        if stmts:
            raise ParseError("chained assignment not allowed in this context", value.pos)
        return value

    # -- expressions -----------------------------------------------------

    def _parse_expression(self):
        return self._parse_conditional()

    def _parse_expression_no_assign(self):
        """An expression that stops before a top-level '=' (used to decide
        assignment statements); same grammar as _parse_expression."""
        return self._parse_conditional()

    def _parse_conditional(self):
        cond = self._parse_binary(0)
        if self._accept_punct("?"):
            then_expr = self._parse_expression()
            self._expect_punct(":")
            else_expr = self._parse_conditional()
            return C.Cond(cond, then_expr, else_expr, cond.pos)
        return cond

    def _parse_binary(self, min_level):
        """Precedence climbing over ``_BINARY_LEVEL_OF``: one loop per
        operand instead of one call per precedence level.  Operators of
        the same level associate left, and each node takes ``left.pos``."""
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind != T.PUNCT:
                return left
            level = _BINARY_LEVEL_OF.get(token.text)
            if level is None or level < min_level:
                return left
            self._next()
            right = self._parse_binary(level + 1)
            left = C.BinOp(token.text, left, right, left.pos)

    def _starts_expression(self, ahead):
        token = self._peek(ahead)
        if token.kind in (T.IDENT, T.INTLIT, T.CHARLIT):
            return True
        if token.is_keyword("sizeof"):
            return True
        return token.kind == T.PUNCT and token.text in (
            "(",
            "*",
            "&",
            "-",
            "+",
            "!",
            "~",
        )

    def _parse_unary(self):
        token = self._peek()
        if token.is_punct("*"):
            # A bare '*' (as in ``if (*)``) is the nondeterministic choice
            # expression; '*e' is a dereference.
            if not self._starts_expression(1):
                self._next()
                self._temp_counter += 1
                return C.Unknown(self._temp_counter, token.pos)
            self._next()
            return C.Deref(self._parse_unary(), token.pos)
        if token.is_punct("&"):
            self._next()
            return C.AddrOf(self._parse_unary(), token.pos)
        if token.is_punct("-"):
            self._next()
            return C.UnOp("-", self._parse_unary(), token.pos)
        if token.is_punct("+"):
            self._next()
            return C.UnOp("+", self._parse_unary(), token.pos)
        if token.is_punct("!"):
            self._next()
            return C.UnOp("!", self._parse_unary(), token.pos)
        if token.is_punct("~"):
            self._next()
            return C.UnOp("~", self._parse_unary(), token.pos)
        if token.is_keyword("sizeof"):
            self._next()
            if self._peek().is_punct("(") and self._at_type_start(1):
                self._expect_punct("(")
                ctype = self._parse_abstract_type()
                self._expect_punct(")")
                return C.IntLit(ctype.sizeof(), token.pos)
            operand = self._parse_unary()
            # Size of an expression: use its (unchecked) syntactic type if
            # available; default to word size.
            del operand
            return C.IntLit(4, token.pos)
        if token.is_punct("(") and self._at_type_start(1):
            self._expect_punct("(")
            ctype = self._parse_abstract_type()
            self._expect_punct(")")
            operand = self._parse_unary()
            return C.Cast(ctype, operand, token.pos)
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct("."):
                self._next()
                field = self._expect_ident().text
                expr = C.FieldAccess(expr, field, token.pos)
            elif token.is_punct("->"):
                self._next()
                field = self._expect_ident().text
                expr = C.arrow(expr, field, token.pos)
            elif token.is_punct("["):
                self._next()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = C.Index(expr, index, token.pos)
            elif token.is_punct("("):
                if not isinstance(expr, C.Id):
                    raise ParseError("calls through expressions are not supported", token.pos)
                self._next()
                args = []
                if not self._peek().is_punct(")"):
                    while True:
                        args.append(self._parse_expression())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = C.Call(expr.name, args, token.pos)
            else:
                return expr

    def _parse_primary(self):
        token = self._next()
        if token.kind == T.INTLIT or token.kind == T.CHARLIT:
            return C.IntLit(token.value, token.pos)
        if token.kind == T.IDENT:
            if token.text in self._enum_constants:
                return C.IntLit(self._enum_constants[token.text], token.pos)
            if token.text == "NULL":
                return C.IntLit(0, token.pos)
            return C.Id(token.text, token.pos)
        if token.is_punct("("):
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if token.is_punct("*"):
            # '*' in condition position: nondeterministic choice, as used in
            # boolean-program-style C inputs and SLAM harnesses.
            self._temp_counter += 1
            return C.Unknown(self._temp_counter, token.pos)
        raise ParseError("unexpected token %r in expression" % token.text, token.pos)


def parse_program(source, name="<program>"):
    """Parse C source text into an unlowered :class:`Program`."""
    return Parser(source, name).parse_program()


def parse_expression(source, name="<expr>"):
    """Parse a single C expression (used for predicate input files)."""
    parser = Parser(source, name)
    expr = parser._parse_expression()
    trailing = parser._peek()
    if trailing.kind != T.EOF:
        raise ParseError("trailing input after expression: %r" % trailing.text, trailing.pos)
    return expr
