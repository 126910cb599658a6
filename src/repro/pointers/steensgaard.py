"""Unification-based flow-insensitive points-to analysis.

The analysis assigns every abstract memory cell an equivalence-class
representative (ECR).  Each ECR carries:

- ``pt``: the ECR of the cell(s) its contents may point to (created
  lazily), and
- ``fields``: a map from struct field names to the ECRs of the field cells
  of the object(s) this cell holds.

Assignments unify the *pointees* of the two sides; taking an address makes
the variable's own cell a pointee.  Two lvalue expressions may alias exactly
when their cells' ECRs coincide, so a variable whose address is never taken
can never alias a dereference — the fact the paper's Section 2 example
relies on.

Calls to defined functions unify arguments with formals and the call result
with the callee's return variable.  Calls to externs conservatively collapse
everything reachable from pointer arguments into a single self-referential
"external world" ECR.

The partition the constraints produce is also kept as it stood when the
analysis finished (:meth:`PointsToAnalysis.analysed_cell`,
:meth:`PointsToAnalysis.alias_facts`): queries later create cells on
demand (a pointee nothing pointed to yet, a variable no constraint
mentioned), and such a cell is always a fresh class of its own, so the
analysed partition with those cells named by how they are reached
decides every query the same way.  Reuse keys describe procedures by it.
"""

from repro.cfront import cast as C
from repro.cfront.exprutils import walk
from repro.pointers.unionfind import UnionFind

_EXTERNAL = ("<external>",)


class PointsToAnalysis:
    """Run on a lowered program; then answer may-alias queries."""

    def __init__(self, program):
        self.program = program
        self._uf = UnionFind()
        self._pt = {}  # root -> ECR it points to
        self._fields = {}  # root -> {field name -> ECR}
        self._next_ecr = 0
        self._cell_of_var = {}  # (func_name or None, var) -> ECR
        self._worklist = []  # deferred unifications during merges
        self._external = self._fresh()
        # The external world points to itself and its fields are itself.
        self._pt[self._uf.find(self._external)] = self._external
        self._analyze()
        self._freeze()

    # -- ECR plumbing -------------------------------------------------------

    def _fresh(self):
        ecr = ("ecr", self._next_ecr)
        self._next_ecr += 1
        self._uf.find(ecr)
        return ecr

    def _find(self, ecr):
        return self._uf.find(ecr)

    def _points_to(self, ecr):
        """The pointee ECR of ``ecr``, created on demand."""
        root = self._find(ecr)
        if root not in self._pt:
            self._pt[root] = self._fresh()
        return self._find(self._pt[root])

    def _field(self, ecr, name):
        """The ECR of field ``name`` of the object in cell ``ecr``."""
        root = self._find(ecr)
        if self._is_external(root):
            return root
        fields = self._fields.setdefault(root, {})
        if name not in fields:
            fields[name] = self._fresh()
        return self._find(fields[name])

    def _is_external(self, ecr):
        return self._find(ecr) == self._find(self._external)

    def _unify(self, a, b):
        """Merge two ECRs, recursively unifying pointees and fields."""
        self._worklist.append((a, b))
        while self._worklist:
            x, y = self._worklist.pop()
            root_x, root_y = self._find(x), self._find(y)
            if root_x == root_y:
                continue
            survivor, absorbed = self._uf.union(root_x, root_y)
            # Migrate pointee.
            pt_s = self._pt.pop(survivor, None)
            pt_a = self._pt.pop(absorbed, None)
            if pt_s is not None and pt_a is not None:
                self._pt[self._find(survivor)] = pt_s
                self._worklist.append((pt_s, pt_a))
            elif pt_s is not None or pt_a is not None:
                self._pt[self._find(survivor)] = pt_s if pt_s is not None else pt_a
            # Migrate fields.
            fields_s = self._fields.pop(survivor, {})
            fields_a = self._fields.pop(absorbed, {})
            for name, ecr in fields_a.items():
                if name in fields_s:
                    self._worklist.append((fields_s[name], ecr))
                else:
                    fields_s[name] = ecr
            if fields_s:
                self._fields[self._find(survivor)] = fields_s
            # The external world absorbs everything reachable from it.
            if self._is_external(survivor):
                ext = self._find(self._external)
                leftover_pt = self._pt.get(ext)
                if leftover_pt is not None and self._find(leftover_pt) != ext:
                    self._worklist.append((leftover_pt, self._external))
                for ecr in self._fields.pop(ext, {}).values():
                    self._worklist.append((ecr, self._external))
                self._pt[ext] = self._external

    # -- cells for program entities ---------------------------------------------

    def var_key(self, func_name, var_name):
        """``(scope, name)``: locals shadow globals."""
        if func_name is not None:
            func = self.program.functions.get(func_name)
            if func is not None and func.lookup_var(var_name) is not None:
                return (func_name, var_name)
        return (None, var_name)

    def var_cell(self, func_name, var_name):
        """The cell ECR of a variable (locals shadow globals)."""
        key = self.var_key(func_name, var_name)
        if key not in self._cell_of_var:
            self._cell_of_var[key] = self._fresh()
        return self._find(self._cell_of_var[key])

    def _cell(self, expr, func_name):
        """The cell ECR denoted by an lvalue expression."""
        if isinstance(expr, C.Id):
            return self.var_cell(func_name, expr.name)
        if isinstance(expr, C.Deref):
            # ``*e`` is exactly the cell that e's value points to.
            return self._value(expr.pointer, func_name)
        if isinstance(expr, C.FieldAccess):
            return self._field(self._cell(expr.base, func_name), expr.field)
        if isinstance(expr, C.Index):
            # All elements of an array object share one cell, which is what
            # the (decayed) base value points to.
            return self._value(expr.base, func_name)
        if isinstance(expr, C.Cast):
            return self._cell(expr.operand, func_name)
        raise ValueError("not an lvalue: %r" % (expr,))

    def _value(self, expr, func_name):
        """An ECR for the cell(s) the *value* of ``expr`` may point to."""
        if isinstance(expr, (C.Id, C.Deref, C.FieldAccess, C.Index)):
            return self._points_to(self._cell(expr, func_name))
        if isinstance(expr, C.AddrOf):
            return self._cell(expr.operand, func_name)
        if isinstance(expr, C.Cast):
            return self._value(expr.operand, func_name)
        if isinstance(expr, C.BinOp) and expr.op in ("+", "-"):
            # Pointer arithmetic stays within the object (logical model):
            # unify both sides' value ECRs.
            left = self._value(expr.left, func_name)
            right = self._value(expr.right, func_name)
            self._unify(left, right)
            return self._find(left)
        if isinstance(expr, C.Cond):
            left = self._value(expr.then_expr, func_name)
            right = self._value(expr.else_expr, func_name)
            self._unify(left, right)
            return self._find(left)
        # Integer-valued expressions carry no pointer information; give them
        # a fresh unconstrained ECR.
        return self._fresh()

    # -- constraint generation --------------------------------------------------

    def _analyze(self):
        for decl in self.program.globals:
            if decl.init is not None:
                self._process_assign(C.Id(decl.name), decl.init, None)
        for func in self.program.defined_functions():
            self._analyze_function(func)
        self._escape_root_formals()
        self._mark_address_taken()

    def _escape_root_formals(self):
        """Pointer formals of *root* procedures (never called inside the
        program) receive their values from an unknown environment: their
        pointees may be any external memory, mutually aliased.  Without
        this, two formals ``p`` and ``q`` would be judged never-aliasing,
        which is unsound for an entry point the environment calls."""
        called = set()
        for func in self.program.defined_functions():

            def visit(stmts):
                for stmt in stmts:
                    if isinstance(stmt, C.CallStmt):
                        called.add(stmt.name)
                    for sub in stmt.substatements():
                        visit(sub)

            visit(func.body)
        for func in self.program.defined_functions():
            if func.name in called:
                continue
            for param in func.params:
                if param.type.is_pointer():
                    cell = self.var_cell(func.name, param.name)
                    self._unify(self._points_to(cell), self._external)

    def _analyze_function(self, func):
        def visit(stmts):
            for stmt in stmts:
                if isinstance(stmt, C.Assign):
                    self._process_assign(stmt.lhs, stmt.rhs, func.name)
                elif isinstance(stmt, C.CallStmt):
                    self._process_call(stmt, func.name)
                elif isinstance(stmt, (C.Assert, C.Assume, C.If, C.While)):
                    cond = stmt.cond
                    self._touch(cond, func.name)
                for sub in stmt.substatements():
                    visit(sub)

        visit(func.body)

    def _touch(self, expr, func_name):
        """Visit an expression for its address-taking sub-expressions."""
        for node in walk(expr):
            if isinstance(node, C.AddrOf):
                self._cell(node.operand, func_name)

    def _process_assign(self, lhs, rhs, func_name):
        self._touch(rhs, func_name)
        lhs_cell = self._cell(lhs, func_name)
        rhs_value = self._value(rhs, func_name)
        self._unify(self._points_to(lhs_cell), rhs_value)

    def _process_call(self, stmt, func_name):
        callee = self.program.functions.get(stmt.name)
        for arg in stmt.args:
            self._touch(arg, func_name)
        if callee is not None and callee.is_defined:
            for param, arg in zip(callee.params, stmt.args):
                param_cell = self.var_cell(callee.name, param.name)
                self._unify(self._points_to(param_cell), self._value(arg, func_name))
            if stmt.lhs is not None and callee.return_var is not None:
                ret_cell = self.var_cell(callee.name, callee.return_var)
                lhs_cell = self._cell(stmt.lhs, func_name)
                self._unify(self._points_to(lhs_cell), self._points_to(ret_cell))
        else:
            # Extern: everything reachable from pointer arguments escapes to
            # (and may be rewritten by) the external world.
            for arg in stmt.args:
                arg_type = getattr(arg, "type", None)
                value = self._value(arg, func_name)
                if arg_type is not None and not arg_type.is_pointer():
                    continue
                self._unify(value, self._external)
            if stmt.lhs is not None:
                lhs_type = getattr(stmt.lhs, "type", None)
                if lhs_type is None or lhs_type.is_pointer():
                    lhs_cell = self._cell(stmt.lhs, func_name)
                    self._unify(self._points_to(lhs_cell), self._external)

    def _mark_address_taken(self):
        """Stamp VarDecl.address_taken for variables whose cell became a
        pointee (reachable through some pointer)."""
        pointees = {self._find(ecr) for ecr in self._pt.values()}
        for (func_name, var_name), ecr in self._cell_of_var.items():
            if self._find(ecr) in pointees or self._is_external(ecr):
                decl = self.program.lookup_var(func_name, var_name)
                if decl is not None:
                    decl.address_taken = True

    # -- the analysed partition -------------------------------------------------

    def _freeze(self):
        find = self._find
        self._analysed_vars = {
            key: find(ecr) for key, ecr in self._cell_of_var.items()
        }
        self._analysed_pt = {find(ecr): find(pt) for ecr, pt in self._pt.items()}
        self._analysed_fields = {
            find(ecr): {name: find(field) for name, field in fields.items()}
            for ecr, fields in self._fields.items()
        }
        self._analysed_external = find(self._external)

    def _analysed_var(self, key):
        node = self._analysed_vars.get(key)
        return ("var", key) if node is None else node

    def _analysed_pointee(self, node):
        pointee = self._analysed_pt.get(node)
        return ("pt", node) if pointee is None else pointee

    def analysed_cell(self, expr, func_name=None):
        """The cell of an lvalue in the analysed partition, or None when
        it is a fresh class that nothing else can share (the target of a
        constant).  A class is its root ECR; a cell a later query would
        create is named by how it is reached: ``("var", key)``, ``("pt",
        node)``, ``("field", node, name)``.  Read-only."""
        if isinstance(expr, C.Id):
            return self._analysed_var(self.var_key(func_name, expr.name))
        if isinstance(expr, C.FieldAccess):
            base = self.analysed_cell(expr.base, func_name)
            if base is None or base == self._analysed_external:
                return base
            field = self._analysed_fields.get(base, {}).get(expr.field)
            return ("field", base, expr.field) if field is None else field
        if isinstance(expr, C.Cast):
            return self.analysed_cell(expr.operand, func_name)
        if isinstance(expr, C.Deref):
            return self._analysed_value(expr.pointer, func_name)
        if isinstance(expr, C.Index):
            return self._analysed_value(expr.base, func_name)
        return None

    def _analysed_value(self, expr, func_name):
        """Mirrors :meth:`_value` without unifying: the analysis already
        unified both sides of every arithmetic or conditional value the
        program computes."""
        if isinstance(expr, (C.Id, C.Deref, C.FieldAccess, C.Index)):
            cell = self.analysed_cell(expr, func_name)
            return None if cell is None else self._analysed_pointee(cell)
        if isinstance(expr, C.AddrOf):
            return self.analysed_cell(expr.operand, func_name)
        if isinstance(expr, C.Cast):
            return self._analysed_value(expr.operand, func_name)
        if isinstance(expr, C.BinOp) and expr.op in ("+", "-"):
            return self._analysed_value(expr.left, func_name)
        if isinstance(expr, C.Cond):
            return self._analysed_value(expr.then_expr, func_name)
        return None

    def alias_facts(self, var_keys, cell_sets=()):
        """The analysed partition restricted to the cells reachable from
        the variables ``var_keys`` (:meth:`var_key`), position-free.

        Classes are numbered by first occurrence: the variables' cells in
        the given order, then breadth-first along pointee and field
        edges.  The result holds each variable's class number, each
        class's ``(pointee, fields)`` edges, the number of the external
        world (or None), and each of ``cell_sets`` (sets of
        :meth:`analysed_cell` nodes) restricted to the numbered classes
        and the cells reached from them.  Equal facts answer every alias,
        reachability and escape query over those variables alike."""
        numbers = {}
        order = []

        def number(node):
            found = numbers.get(node)
            if found is None:
                found = numbers[node] = len(order)
                order.append(node)
            return found

        var_part = tuple(number(self._analysed_var(key)) for key in var_keys)
        edges = []
        position = 0
        while position < len(order):
            node = order[position]
            position += 1
            pointee = self._analysed_pt.get(node)
            fields = self._analysed_fields.get(node, {})
            edges.append((
                None if pointee is None else number(pointee),
                tuple((name, number(fields[name])) for name in sorted(fields)),
            ))

        def describe(node):
            found = numbers.get(node)
            if found is not None:
                return found
            if isinstance(node, tuple) and node[0] in ("pt", "field"):
                parent = describe(node[1])
                if parent is not None:
                    return (node[0], parent) + node[2:]
            return None

        restricted = []
        for cells in cell_sets:
            described = {describe(node) for node in cells}
            described.discard(None)
            restricted.append(tuple(sorted(described, key=repr)))
        return (
            var_part,
            tuple(edges),
            numbers.get(self._analysed_external),
            tuple(restricted),
        )

    # -- queries ---------------------------------------------------------------

    def may_alias(self, lhs, rhs, func_name=None):
        """May the lvalue expressions ``lhs`` and ``rhs`` denote the same
        cell?  Syntactically identical lvalues trivially alias."""
        if lhs == rhs:
            return True
        # Two distinct named variables never denote the same cell, no matter
        # what the unification lattice says.
        if isinstance(lhs, C.Id) and isinstance(rhs, C.Id):
            return lhs.name == rhs.name
        try:
            cell_l = self._cell(lhs, func_name)
            cell_r = self._cell(rhs, func_name)
        except ValueError:
            return True  # not lvalues; be conservative
        if self._find(cell_l) != self._find(cell_r):
            return False
        # Field-based refinement: distinct fields of any object never alias.
        field_l = self._outer_field(lhs)
        field_r = self._outer_field(rhs)
        if field_l is not None and field_r is not None and field_l != field_r:
            return False
        # Type-based refinement (the logical memory model is typed): an
        # integer cell and a pointer cell are never the same location.
        if self._types_incompatible(getattr(lhs, "type", None), getattr(rhs, "type", None)):
            return False
        return True

    @staticmethod
    def _outer_field(expr):
        if isinstance(expr, C.FieldAccess):
            return expr.field
        return None

    @staticmethod
    def _types_incompatible(type_l, type_r):
        if type_l is None or type_r is None:
            return False
        if type_l.is_integer() and type_r.is_pointer():
            return True
        if type_l.is_pointer() and type_r.is_integer():
            return True
        return False

    def may_point_into_external(self, expr, func_name=None):
        """Whether ``expr``'s cell has escaped to the external world."""
        try:
            return self._is_external(self._cell(expr, func_name))
        except ValueError:
            return True

    def ecr_of(self, expr, func_name=None):
        """The (representative of the) cell ECR for testing/debugging."""
        return self._find(self._cell(expr, func_name))

    def reachable_from_values(self, exprs, func_name=None):
        """All cell ECRs transitively reachable from the *values* of the
        given expressions (through pointees and fields).

        Used to over-approximate what a callee can modify through its
        actual parameters (Section 4.5.3's side-effect approximation).
        """
        seeds = []
        for expr in exprs:
            expr_type = getattr(expr, "type", None)
            if expr_type is not None and not (
                expr_type.is_pointer() or expr_type.is_array()
            ):
                continue
            try:
                seeds.append(self._value(expr, func_name))
            except ValueError:
                continue
        closure = set()
        stack = [self._find(s) for s in seeds]
        while stack:
            ecr = stack.pop()
            if ecr in closure:
                continue
            closure.add(ecr)
            pointee = self._pt.get(ecr)
            if pointee is not None:
                stack.append(self._find(pointee))
            for field_ecr in self._fields.get(ecr, {}).values():
                stack.append(self._find(field_ecr))
        return closure

    def location_in(self, loc_expr, ecr_set, func_name=None):
        """Whether the cell of ``loc_expr`` is one of ``ecr_set``."""
        try:
            return self._find(self._cell(loc_expr, func_name)) in ecr_set
        except ValueError:
            return True  # conservative
