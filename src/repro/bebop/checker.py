"""The symbolic (BDD-based) interprocedural reachability engine.

For every node ``v`` of every procedure ``P`` the engine computes a *path
edge* relation ``PE(v)``: a BDD over ``entry-bank(P) ∪ current-vars``
relating the values of globals and formals at P's entry to the values of
the variables in scope at ``v`` (the Reps-Horwitz-Sagiv formulation of
Sharir-Pnueli's functional approach).  Procedure behaviour is captured by
*summaries*: relations over dedicated input slots (globals and formals at
entry) and output slots (globals at exit plus returned values).  Call sites
compose the caller's path edge with the callee's summary; newly reached
entry contexts seed the callee; summary growth re-triggers the call sites.

Variable banks are realized by giving every logical slot two BDD variables
(current = ``2*slot``, shadow = ``2*slot+1``); shadows carry post-state
values during assignment relations and are renamed back — with the
interleaved numbering the shadow→current rename is a level shift.

Every statement/edge is compiled once into a cached transfer relation
(constraint BDD + quantified variable set + rename map), applied with the
manager's fused ``and_exists`` relational product; the worklist propagates
*frontiers* (only states not seen before flow through transfers).
Compiled procedures can be reused across CEGAR iterations via
:class:`repro.bebop.reuse.BebopReuse`.  The independent reference the
fuzz oracle and the differential tests compare against is the
explicit-state engine (:func:`repro.bebop.explicit.explicit_divergence`).
"""

import hashlib

from repro.boolprog import ast as B
from repro.boolprog.printer import print_bool_body, print_bool_expr
from repro.bdd import BddManager
from repro.bebop.graph import BRANCH, ENTRY, EXIT, build_bool_graph

_EMPTY = frozenset()


class BebopError(Exception):
    pass


def _called_procedures(stmts, found):
    for stmt in stmts:
        if isinstance(stmt, B.BCall):
            found.add(stmt.name)
        elif isinstance(stmt, B.BIf):
            _called_procedures(stmt.then_body, found)
            _called_procedures(stmt.else_body, found)
        elif isinstance(stmt, B.BWhile):
            _called_procedures(stmt.body, found)
    return found


def procedure_fingerprint(program, proc):
    """A digest of everything a compiled transfer table depends on: the
    global list (slot layout and call/summary maps), the procedure's own
    text, and the interface (formals/returns) of every callee."""
    called = sorted(_called_procedures(proc.body, set()))
    interfaces = tuple(
        (name,) + (
            (tuple(program.procedures[name].formals), program.procedures[name].returns)
            if name in program.procedures
            else ("?",)
        )
        for name in called
    )
    parts = (
        tuple(program.globals),
        tuple(proc.formals),
        tuple(proc.locals),
        proc.returns,
        print_bool_expr(proc.enforce) if proc.enforce is not None else "",
        print_bool_body(proc.body, 0),
        interfaces,
    )
    return hashlib.sha1(repr(parts).encode()).hexdigest()


class CompiledTransfer:
    """An assignment as a relation: ``exists targets (pe and constraint)``
    then shadow→current rename (a level shift)."""

    __slots__ = ("constraint", "quantified", "shift_map")

    def __init__(self, constraint, quantified, shift_map):
        self.constraint = constraint
        self.quantified = quantified
        self.shift_map = shift_map


class CompiledCall:
    """A call site's static part: the actual/global binding relation, the
    variables consumed by summary composition, and the output rebinding."""

    __slots__ = ("callee", "bind", "in_set", "dead", "out_map")

    def __init__(self, callee, bind, in_set, dead, out_map):
        self.callee = callee
        self.bind = bind
        self.in_set = in_set
        self.dead = dead
        self.out_map = out_map


class CompiledProc:
    """Everything derivable from a procedure's text alone, compiled once:
    per-node transfer relations plus the entry/summary plumbing."""

    __slots__ = (
        "fingerprint",
        "enforce",
        "entry_identity",
        "ent_vars",
        "in_to_ent",
        "summary_locals",
        "summary_map",
        "transfers",
    )

    def __init__(self, fingerprint):
        self.fingerprint = fingerprint
        self.enforce = None
        self.entry_identity = None
        self.ent_vars = []
        self.in_to_ent = {}
        self.summary_locals = _EMPTY
        self.summary_map = {}
        self.transfers = {}  # node uid -> (kind, payload)

    def iter_bdds(self):
        """Every BDD the table holds — the GC roots for manager reuse."""
        yield self.enforce
        yield self.entry_identity
        for kind, payload in self.transfers.values():
            if payload is None:
                continue
            if kind == "assign":
                yield payload.constraint
            elif kind == "call":
                yield payload.bind
            else:  # branch / assume / assert / return conditions
                yield payload


class BebopResult:
    """Reachability facts computed by a run."""

    def __init__(self, checker):
        self._checker = checker
        self.assertion_failures = checker.assertion_failures
        self.steps = checker.steps

    def reachable_states(self, proc_name, label=None, node=None):
        """BDD of reachable states (over current vars) at a node or label."""
        return self._checker.reachable_states(proc_name, label=label, node=node)

    def valuation_states(self, proc_name, valuations):
        """The BDD, in this run's manager, of explicit ``(globals, formals
        + locals)`` value tuples — the shape of
        :meth:`repro.bebop.explicit.ExplicitEngine.reachable_valuations`.
        Each valuation becomes one cube, so comparing the result with
        :meth:`reachable_states` by identity never expands cubes."""
        checker = self._checker
        m = checker.manager
        variables = [checker._cur(key) for key in checker._scope_keys(proc_name)]
        states = m.false
        for globals_vals, locals_vals in valuations:
            states = m.lor(states, m.cube(zip(variables, globals_vals + locals_vals)))
        return states

    def is_label_reachable(self, proc_name, label):
        bdd = self.reachable_states(proc_name, label=label)
        return not self._checker.manager.is_false(bdd)

    def invariant_cubes(self, proc_name, label=None, node=None):
        """The reachable-state set at a program point as a list of cubes,
        each a dict mapping variable names to True/False."""
        return self._checker.invariant_cubes(proc_name, label=label, node=node)

    def invariant_string(self, proc_name, label=None, node=None):
        cubes = self.invariant_cubes(proc_name, label=label, node=node)
        if not cubes:
            return "false"
        parts = []
        for cube in cubes:
            lits = [
                ("" if value else "!") + "{%s}" % name
                for name, value in sorted(cube.items())
            ]
            parts.append(" && ".join(lits) if lits else "true")
        return " || ".join("(%s)" % p if len(parts) > 1 else p for p in parts)

    @property
    def error_reached(self):
        return bool(self.assertion_failures)

    def labels(self, proc_name):
        """All goto labels of a procedure's graph."""
        return sorted(self._checker.graphs[proc_name].labels)

    def all_invariants(self):
        """Mapping (procedure, label) -> invariant string, for every label
        of every procedure — Bebop "computes the set of reachable states
        for each statement"; labels are the addressable ones."""
        result = {}
        for proc_name in self._checker.graphs:
            for label in self.labels(proc_name):
                result[(proc_name, label)] = self.invariant_string(
                    proc_name, label=label
                )
        return result

    def statistics(self):
        """Engine statistics: worklist steps, BDD/op counters, transfer
        compilation and reuse, summary sizes (in BDD nodes) per procedure."""
        checker = self._checker
        manager = checker.manager
        return {
            "worklist_steps": self.steps,
            "bdd_nodes": manager._next_id,
            "procedures": len(checker.graphs),
            "transfers_compiled": checker.transfers_compiled,
            "transfers_reused": checker.transfers_reused,
            "tables_loaded": checker.tables_loaded,
            "tables_saved": checker.tables_saved,
            "frontier_joins": checker.frontier_joins,
            "bdd": manager.stats_snapshot(),
            "summary_nodes": {
                name: manager.size(summary)
                for name, summary in checker.summaries.items()
            },
        }

    def format_report(self):
        """A human-readable dump of every labelled invariant."""
        lines = []
        for (proc_name, label), text in sorted(self.all_invariants().items()):
            lines.append("%s/%s:" % (proc_name, label))
            lines.append("    %s" % text)
        stats = self.statistics()
        lines.append(
            "(%d worklist steps, %d BDD nodes)"
            % (stats["worklist_steps"], stats["bdd_nodes"])
        )
        return "\n".join(lines)


class Bebop:
    """One model-checking run over a boolean program.

    ``reuse`` accepts a :class:`repro.bebop.reuse.BebopReuse` carrying a
    persistent manager, slot table, and compiled-transfer cache across
    runs; without one the run is fresh (its own manager, every table
    compiled or loaded from the store).
    """

    def __init__(self, program, main="main", context=None, reuse=None):
        if main not in program.procedures:
            raise BebopError("boolean program has no %r procedure" % main)
        self.program = program
        self.main = main
        self.context = context
        self.reuse = reuse
        if reuse is not None:
            self.manager = reuse.manager
            self._slots = reuse.slots
        else:
            self.manager = BddManager()
            self._slots = {}
        # Disk-backed compiled-table persistence: from the reuse carrier
        # when it has one, else straight off the context's store (the
        # plain `check` path without a CEGAR reuse object).
        self._table_store = None
        if reuse is not None and getattr(reuse, "persistent", None):
            self._table_store = reuse.persistent
        elif getattr(context, "store", None) is not None:
            from repro.serve import BebopTableStore

            self._table_store = BebopTableStore(context.store)
        self.tables_loaded = 0
        self.tables_saved = 0
        self.graphs = {
            name: build_bool_graph(proc) for name, proc in program.procedures.items()
        }
        self._pe = {}  # (proc, node uid) -> BDD
        self.summaries = {}  # proc -> BDD over in/out slots
        # callee -> {(caller proc, node uid): (caller proc, node)}, in
        # registration order so summary growth re-queues callers in a
        # repeatable order.
        self.call_sites = {}
        self.assertion_failures = []  # (proc, node, states bdd)
        self.steps = 0
        self.transfers_compiled = 0
        self.transfers_reused = 0
        self.frontier_joins = 0
        self._expr_cache = {}
        self._preallocate_slots()
        self._compiled = self._compile_program()

    # -- slots and variables ---------------------------------------------------

    def _preallocate_slots(self):
        """Assign every slot the program can touch, in one deterministic
        order, before any BDD is built.

        Entry-bank and current variables interleave per name (the identity
        relations the engine builds between them stay linear-sized), and
        the order does not depend on worklist visitation, so the same
        program always builds bit-identical BDDs.
        """
        for proc_name, proc in self.program.procedures.items():
            for name in self._entry_names(proc_name):
                self._slot(("ent", proc_name, name))
                self._slot(self._var_key(proc_name, name))
            for v in proc.locals:
                self._slot(("l", proc_name, v))
            for name in self._entry_names(proc_name):
                self._slot(("in", proc_name, name))
            for g in self.program.globals:
                self._slot(("out", proc_name, ("g", g)))
            for index in range(proc.returns):
                self._slot(("out", proc_name, ("r", index)))

    def _slot(self, key):
        if key not in self._slots:
            self._slots[key] = len(self._slots)
        return self._slots[key]

    def _cur(self, key):
        return 2 * self._slot(key)

    def _shadow(self, key):
        return 2 * self._slot(key) + 1

    def _var_key(self, proc_name, name):
        """The slot key for variable ``name`` in ``proc_name``'s scope."""
        proc = self.program.procedures[proc_name]
        if name in proc.formals or name in proc.locals:
            return ("l", proc_name, name)
        if name in self.program.globals:
            return ("g", name)
        raise BebopError("variable %r not in scope in %s" % (name, proc_name))

    def _entry_names(self, proc_name):
        """Names visible in a procedure's entry context: globals + formals."""
        proc = self.program.procedures[proc_name]
        return list(self.program.globals) + list(proc.formals)

    def _scope_keys(self, proc_name):
        proc = self.program.procedures[proc_name]
        keys = [("g", g) for g in self.program.globals]
        keys += [("l", proc_name, v) for v in proc.formals + proc.locals]
        return keys

    # -- expression compilation ----------------------------------------------------

    def expr_bdd(self, expr, proc_name):
        m = self.manager
        if isinstance(expr, B.BConst):
            return m.constant(expr.value)
        if isinstance(expr, B.BVar):
            return m.var(self._cur(self._var_key(proc_name, expr.name)))
        if isinstance(expr, B.BNot):
            return m.lnot(self.expr_bdd(expr.operand, proc_name))
        if isinstance(expr, B.BAnd):
            return m.land(
                self.expr_bdd(expr.left, proc_name), self.expr_bdd(expr.right, proc_name)
            )
        if isinstance(expr, B.BOr):
            return m.lor(
                self.expr_bdd(expr.left, proc_name), self.expr_bdd(expr.right, proc_name)
            )
        if isinstance(expr, B.BImplies):
            return m.implies(
                self.expr_bdd(expr.left, proc_name), self.expr_bdd(expr.right, proc_name)
            )
        if isinstance(expr, (B.BNondet, B.BUnknown, B.BChoose)):
            raise BebopError(
                "nondeterministic expression in a deterministic position"
            )
        raise AssertionError("unhandled expression %r" % type(expr).__name__)

    # -- transfer compilation ------------------------------------------------------

    def _equiv_conjunction(self, pairs):
        """``and(a <-> b for a, b in pairs)``, accumulated top-down (each
        conjunct sits above the accumulator in the order, so every ``land``
        is a shallow pass, not a product)."""
        m = self.manager
        result = m.true
        for a, b in sorted(pairs, key=lambda ab: min(ab)):
            result = m.land(m.equiv_vars(a, b), result)
        return result

    def _compile_expr(self, expr, proc_name):
        """Compile-time expression build: memoized on the printed text (the
        predicate-abstraction output repeats the same cube disjunctions
        across statements), with a direct DNF construction — cubes go
        straight into the unique table, bypassing ``ite`` entirely."""
        key = (proc_name, print_bool_expr(expr))
        cached = self._expr_cache.get(key)
        if cached is None:
            cached = self._build_expr(expr, proc_name)
            self._expr_cache[key] = cached
        return cached

    def _build_expr(self, expr, proc_name):
        m = self.manager
        dnf = self._dnf_bdd(expr, proc_name)
        if dnf is not None:
            return dnf
        if isinstance(expr, B.BNot):  # guards are negated cube covers
            return m.complement(self._compile_expr(expr.operand, proc_name))
        if isinstance(expr, B.BAnd):
            return m.land(
                self._compile_expr(expr.left, proc_name),
                self._compile_expr(expr.right, proc_name),
            )
        if isinstance(expr, B.BOr):
            return m.lor(
                self._compile_expr(expr.left, proc_name),
                self._compile_expr(expr.right, proc_name),
            )
        if isinstance(expr, B.BImplies):
            return m.implies(
                self._compile_expr(expr.left, proc_name),
                self._compile_expr(expr.right, proc_name),
            )
        return self.expr_bdd(expr, proc_name)

    def _as_cube(self, expr, proc_name):
        """``(var, polarity)`` literals if expr is a literal conjunction."""
        literals = []
        stack = [expr]
        while stack:
            e = stack.pop()
            if isinstance(e, B.BAnd):
                stack.append(e.left)
                stack.append(e.right)
            elif isinstance(e, B.BVar):
                literals.append((self._cur(self._var_key(proc_name, e.name)), True))
            elif isinstance(e, B.BNot) and isinstance(e.operand, B.BVar):
                literals.append(
                    (self._cur(self._var_key(proc_name, e.operand.name)), False)
                )
            else:
                return None
        return literals

    def _dnf_bdd(self, expr, proc_name):
        """Direct build for disjunctions of literal cubes, or None."""
        m = self.manager
        disjuncts = []
        stack = [expr]
        while stack:
            e = stack.pop()
            if isinstance(e, B.BOr):
                stack.append(e.left)
                stack.append(e.right)
            else:
                disjuncts.append(e)
        cubes = []
        for d in disjuncts:
            literals = self._as_cube(d, proc_name)
            if literals is None:
                return None
            cubes.append(m.cube(literals))
        while len(cubes) > 1:  # balanced merge keeps intermediates small
            cubes = [
                m.lor(cubes[i], cubes[i + 1]) if i + 1 < len(cubes) else cubes[i]
                for i in range(0, len(cubes), 2)
            ]
        return cubes[0] if cubes else m.false

    def _compile_program(self):
        compiled = {}
        for name, proc in self.program.procedures.items():
            fingerprint = procedure_fingerprint(self.program, proc)
            if self.reuse is not None:
                cached = self.reuse.compiled.get(name)
                if cached is not None and cached.fingerprint == fingerprint:
                    compiled[name] = cached
                    self.transfers_reused += len(cached.transfers)
                    continue
            table = None
            if self._table_store is not None:
                table = self._table_store.load(self, name, fingerprint)
                if table is not None:
                    self.tables_loaded += 1
                    self.transfers_reused += len(table.transfers)
            if table is None:
                table = self._compile_proc(name, proc, fingerprint)
                self.transfers_compiled += len(table.transfers)
                if self._table_store is not None:
                    self._table_store.save(self, name, table)
                    self.tables_saved += 1
            compiled[name] = table
            if self.reuse is not None:
                self.reuse.compiled[name] = table
        if self.reuse is not None:
            for name in list(self.reuse.compiled):
                if name not in self.program.procedures:
                    del self.reuse.compiled[name]
            self.reuse.transfers_compiled += self.transfers_compiled
            self.reuse.transfers_reused += self.transfers_reused
            self.reuse.tables_loaded += self.tables_loaded
        # Call sites are static under compilation: register them all up
        # front so summary growth can re-trigger them.
        for name, table in compiled.items():
            graph = self.graphs[name]
            for uid, (kind, payload) in table.transfers.items():
                if kind == "call":
                    sites = self.call_sites.setdefault(payload.callee, {})
                    sites[(name, uid)] = (name, graph.nodes[uid])
        return compiled

    def _compile_proc(self, proc_name, proc, fingerprint):
        m = self.manager
        table = CompiledProc(fingerprint)
        table.enforce = (
            m.true
            if proc.enforce is None
            else self._compile_expr(proc.enforce, proc_name)
        )
        pairs = []
        for name in self._entry_names(proc_name):
            ent = self._cur(("ent", proc_name, name))
            cur = self._cur(self._var_key(proc_name, name))
            table.ent_vars.append(ent)
            table.in_to_ent[self._cur(("in", proc_name, name))] = ent
            pairs.append((ent, cur))
        table.entry_identity = self._equiv_conjunction(pairs)
        table.summary_locals = frozenset(
            self._cur(("l", proc_name, v)) for v in proc.formals + proc.locals
        )
        for name in self._entry_names(proc_name):
            table.summary_map[self._cur(("ent", proc_name, name))] = self._cur(
                ("in", proc_name, name)
            )
        for g in self.program.globals:
            table.summary_map[self._cur(("g", g))] = self._cur(
                ("out", proc_name, ("g", g))
            )
        for node in self.graphs[proc_name].nodes:
            entry = self._compile_node(proc_name, node)
            if entry is not None:
                table.transfers[node.uid] = entry
        return table

    def _compile_node(self, proc_name, node):
        m = self.manager
        if node.kind in (ENTRY, EXIT):
            return None
        if node.kind == BRANCH:
            if isinstance(node.cond, B.BNondet):
                return ("nondet", None)
            return ("branch", self._compile_expr(node.cond, proc_name))
        stmt = node.stmt
        if isinstance(stmt, (B.BSkip, B.BGoto)):
            return ("copy", None)
        if isinstance(stmt, B.BAssume):
            return ("assume", self._compile_expr(stmt.cond, proc_name))
        if isinstance(stmt, B.BAssert):
            return ("assert", self._compile_expr(stmt.cond, proc_name))
        if isinstance(stmt, B.BAssign):
            return ("assign", self._compile_assign(proc_name, stmt))
        if isinstance(stmt, B.BReturn):
            return ("return", self._compile_return(proc_name, stmt))
        if isinstance(stmt, B.BCall):
            return ("call", self._compile_call(proc_name, stmt))
        raise AssertionError("unhandled statement %r" % type(stmt).__name__)

    def _compile_assign(self, proc_name, stmt):
        m = self.manager
        constraint = m.true
        target_keys = []
        for target, value in zip(stmt.targets, stmt.values):
            key = self._var_key(proc_name, target)
            target_keys.append(key)
            shadow_index = self._shadow(key)
            shadow, shadow_neg = m.var(shadow_index), m.nvar(shadow_index)
            if isinstance(value, (B.BUnknown, B.BNondet)):
                continue  # unconstrained
            if isinstance(value, B.BChoose):
                # choose(pos, neg): true if pos, else false if neg, else
                # nondeterministic — pos takes priority when both hold.
                # One ite builds the whole per-target relation.
                pos = self._compile_expr(value.pos, proc_name)
                neg = self._compile_expr(value.neg, proc_name)
                relation = m.ite(pos, shadow, m.ite(neg, shadow_neg, m.true))
            else:
                relation = m.ite(
                    self._compile_expr(value, proc_name), shadow, shadow_neg
                )
            constraint = m.land(constraint, relation)
        return CompiledTransfer(
            constraint,
            frozenset(self._cur(k) for k in target_keys),
            {self._shadow(k): self._cur(k) for k in target_keys},
        )

    def _compile_return(self, proc_name, stmt):
        m = self.manager
        constraint = m.true
        for index, value in enumerate(stmt.values):
            out_index = self._cur(("out", proc_name, ("r", index)))
            constraint = m.land(
                constraint,
                m.ite(
                    self._compile_expr(value, proc_name),
                    m.var(out_index),
                    m.nvar(out_index),
                ),
            )
        return constraint

    def _compile_call(self, proc_name, stmt):
        m = self.manager
        callee = self.program.procedures.get(stmt.name)
        if callee is None:
            raise BebopError("call to undefined procedure %r" % stmt.name)
        if len(stmt.args) != len(callee.formals):
            raise BebopError("arity mismatch calling %r" % stmt.name)
        if len(stmt.targets) not in (0, callee.returns):
            raise BebopError(
                "call to %r uses %d results of %d"
                % (stmt.name, len(stmt.targets), callee.returns)
            )
        bind = self._equiv_conjunction(
            [
                (self._cur(("in", stmt.name, g)), self._cur(("g", g)))
                for g in self.program.globals
            ]
        )
        for formal, arg in zip(callee.formals, stmt.args):
            in_index = self._cur(("in", stmt.name, formal))
            in_var, in_neg = m.var(in_index), m.nvar(in_index)
            if isinstance(arg, (B.BUnknown, B.BNondet)):
                continue  # unconstrained actual
            if isinstance(arg, B.BChoose):
                pos = self._compile_expr(arg.pos, proc_name)
                neg = self._compile_expr(arg.neg, proc_name)
                relation = m.ite(pos, in_var, m.ite(neg, in_neg, m.true))
            else:
                relation = m.ite(self._compile_expr(arg, proc_name), in_var, in_neg)
            bind = m.land(bind, relation)
        in_vars = [
            self._cur(("in", stmt.name, name)) for name in self._entry_names(stmt.name)
        ]
        dead = set(in_vars)
        dead.update(self._cur(("g", g)) for g in self.program.globals)
        target_keys = [self._var_key(proc_name, t) for t in stmt.targets]
        dead.update(self._cur(k) for k in target_keys)
        out_map = {}
        for g in self.program.globals:
            out_map[self._cur(("out", stmt.name, ("g", g)))] = self._cur(("g", g))
        for index, key in enumerate(target_keys):
            cur_target = self._cur(key)
            for out_var, mapped in list(out_map.items()):
                if mapped == cur_target:
                    # The call target is a global: the return binding wins
                    # and the callee's exit value of the global dies.
                    del out_map[out_var]
                    dead.add(out_var)
            out_map[self._cur(("out", stmt.name, ("r", index)))] = cur_target
        if not stmt.targets and callee.returns:
            # Unused return values die with the summary composition.
            dead.update(
                self._cur(("out", stmt.name, ("r", i))) for i in range(callee.returns)
            )
        return CompiledCall(
            stmt.name, bind, frozenset(in_vars), frozenset(dead), out_map
        )

    # -- the fixpoint -----------------------------------------------------------

    def run(self):
        if self.context is not None:
            with self.context.phase("bebop"):
                result = self._run()
            self.context.stats.register("bebop", result.statistics)
            return result
        return self._run()

    def _pe_at(self, proc_name, node):
        return self._pe.get((proc_name, node.uid), self.manager.false)

    # -- frontier propagation over compiled transfers ------------------------------

    def _run(self):
        self._frontier = {}
        self._on_worklist = set()
        self._pending_summary = set()
        self._call_bound = {}
        self._summary_done = {}
        worklist = []
        main_graph = self.graphs[self.main]
        self._join_fast(
            self.main, main_graph.entry, self._compiled[self.main].entry_identity,
            worklist,
        )
        while worklist:
            proc_name, node = worklist.pop()
            self._on_worklist.discard((proc_name, node.uid))
            self.steps += 1
            self._process_fast(proc_name, node, worklist)
        return BebopResult(self)

    def _push(self, proc_name, node, worklist):
        key = (proc_name, node.uid)
        if key not in self._on_worklist:
            self._on_worklist.add(key)
            worklist.append((proc_name, node))

    def _join_fast(self, proc_name, node, pe, worklist):
        m = self.manager
        enforce = self._compiled[proc_name].enforce
        if enforce is not m.true:
            pe = m.and_exists(pe, enforce, _EMPTY)
        if m.is_false(pe):
            return
        key = (proc_name, node.uid)
        old = self._pe.get(key, m.false)
        delta = m.and_not(pe, old)
        if m.is_false(delta):
            return
        self.frontier_joins += 1
        self._pe[key] = m.lor(old, delta)
        front = self._frontier.get(key, m.false)
        self._frontier[key] = m.lor(front, delta)
        self._push(proc_name, node, worklist)

    def _process_fast(self, proc_name, node, worklist):
        m = self.manager
        key = (proc_name, node.uid)
        delta = self._frontier.pop(key, m.false)
        if node.kind == ENTRY:
            for target, _ in node.edges:
                self._join_fast(proc_name, target, delta, worklist)
            return
        if node.kind == EXIT:
            if not m.is_false(delta):
                self._update_summary_fast(proc_name, delta, worklist)
            return
        kind, payload = self._compiled[proc_name].transfers[node.uid]
        if kind == "nondet":
            for target, _ in node.edges:
                self._join_fast(proc_name, target, delta, worklist)
            return
        if kind == "branch":
            for target, assume in node.edges:
                out = (
                    m.and_exists(delta, payload, _EMPTY)
                    if assume
                    else m.and_not(delta, payload)
                )
                self._join_fast(proc_name, target, out, worklist)
            return
        if kind == "copy":
            out = delta
        elif kind == "assume":
            out = m.and_exists(delta, payload, _EMPTY)
        elif kind == "assert":
            violating = m.and_not(delta, payload)
            if not m.is_false(violating):
                self._record_failure(proc_name, node, violating)
            out = m.and_exists(delta, payload, _EMPTY)
        elif kind == "assign":
            combined = m.and_exists(delta, payload.constraint, payload.quantified)
            out = m.rename(combined, payload.shift_map)
        elif kind == "return":
            out = m.and_exists(delta, payload, _EMPTY)
        elif kind == "call":
            out = self._apply_call_fast(proc_name, key, delta, payload, worklist)
        else:
            raise AssertionError("unhandled transfer kind %r" % kind)
        for target, _ in node.edges:
            self._join_fast(proc_name, target, out, worklist)

    def _apply_call_fast(self, proc_name, key, delta, cc, worklist):
        """One call-site visit: push new caller states through the binding
        relation (seeding the callee), compose them with the callee's full
        summary, and compose previously bound states with any summary
        growth since the last visit — each piece flows exactly once."""
        m = self.manager
        pending = key in self._pending_summary
        self._pending_summary.discard(key)
        summary = self.summaries.get(cc.callee, m.false)
        prev_bound = self._call_bound.get(key, m.false)
        out = m.false
        if not m.is_false(delta):
            bound_new = m.and_exists(delta, cc.bind, _EMPTY)
            if not m.is_false(bound_new):
                callee_table = self._compiled[cc.callee]
                others = frozenset(m.support(bound_new) - cc.in_set)
                contexts = m.exists_set(bound_new, others)
                entry_pe = m.and_exists(
                    m.rename(contexts, callee_table.in_to_ent),
                    callee_table.entry_identity,
                    _EMPTY,
                )
                self._join_fast(
                    cc.callee, self.graphs[cc.callee].entry, entry_pe, worklist
                )
                if not m.is_false(summary):
                    composed = m.and_exists(bound_new, summary, cc.dead)
                    out = m.lor(out, m.rename(composed, cc.out_map))
                self._call_bound[key] = m.lor(prev_bound, bound_new)
        if pending and not m.is_false(prev_bound):
            grown = m.and_not(summary, self._summary_done.get(key, m.false))
            if not m.is_false(grown):
                composed = m.and_exists(prev_bound, grown, cc.dead)
                out = m.lor(out, m.rename(composed, cc.out_map))
        self._summary_done[key] = summary
        return out

    def _update_summary_fast(self, proc_name, exit_delta, worklist):
        m = self.manager
        table = self._compiled[proc_name]
        projected = m.exists_set(exit_delta, table.summary_locals)
        summary_add = m.rename(projected, table.summary_map)
        old = self.summaries.get(proc_name, m.false)
        new = m.lor(old, summary_add)
        if new is not old:
            self.summaries[proc_name] = new
            for caller, call_node in self.call_sites.get(proc_name, {}).values():
                self._pending_summary.add((caller, call_node.uid))
                self._push(caller, call_node, worklist)

    def _record_failure(self, proc_name, node, states):
        for i, (p, n, old) in enumerate(self.assertion_failures):
            if p == proc_name and n is node:
                self.assertion_failures[i] = (p, n, self.manager.lor(old, states))
                return
        self.assertion_failures.append((proc_name, node, states))


    # -- queries ------------------------------------------------------------------

    def _node_for(self, proc_name, label=None, node=None):
        graph = self.graphs[proc_name]
        if node is not None:
            return node
        if label is not None:
            found = graph.node_for_label(label)
            if found is None:
                raise BebopError("no label %r in %s" % (label, proc_name))
            return found
        return graph.exit

    def reachable_states(self, proc_name, label=None, node=None):
        m = self.manager
        target = self._node_for(proc_name, label, node)
        pe = self._pe_at(proc_name, target)
        ent_vars = [
            self._cur(("ent", proc_name, name))
            for name in self._entry_names(proc_name)
        ]
        return m.exists(pe, ent_vars)

    def invariant_cubes(self, proc_name, label=None, node=None):
        m = self.manager
        states = self.reachable_states(proc_name, label=label, node=node)
        index_to_name = {}
        for key in self._scope_keys(proc_name):
            name = key[1] if key[0] == "g" else key[2]
            index_to_name[self._cur(key)] = name
        cubes = []
        for cube in m.cubes(states):
            named = {}
            for var, value in cube.items():
                if var in index_to_name:
                    named[index_to_name[var]] = value
            cubes.append(named)
        return cubes
