"""Control-flow graphs for functions in the intermediate form.

The CFG is the execution substrate shared by the concrete C interpreter
(used in soundness tests), Newton's path simulation, and the statement
numbering that ties boolean-program statements back to C statements.

Node kinds:

- ``entry`` / ``exit``: unique per function;
- ``stmt``: an atomic statement (Skip, Assign, CallStmt, Assert, Assume);
- ``branch``: the condition of an If or While; two outgoing edges labelled
  with the assumed outcome (True / False).

Every statement node also stamps its statement's ``sid`` with a globally
unique id so later phases can correlate C and boolean program statements.
"""

from repro.cfront import cast as C
from repro.cfront.errors import CFrontError

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
BRANCH = "branch"


class CFGEdge:
    __slots__ = ("target", "assume")

    def __init__(self, target, assume=None):
        self.target = target
        # ``assume``: None for unconditional edges, True/False for the
        # branch outcome this edge commits to.
        self.assume = assume

    def __repr__(self):
        return "CFGEdge(->%d, assume=%r)" % (self.target.uid, self.assume)


class CFGNode:
    __slots__ = ("uid", "kind", "stmt", "cond", "edges", "preds")

    def __init__(self, uid, kind, stmt=None, cond=None):
        self.uid = uid
        self.kind = kind
        self.stmt = stmt
        self.cond = cond
        self.edges = []
        self.preds = []

    def successor(self, assume=None):
        """The unique successor along the given edge label, or None."""
        for edge in self.edges:
            if edge.assume == assume:
                return edge.target
        return None

    def __repr__(self):
        return "CFGNode(%d, %s)" % (self.uid, self.kind)


class ControlFlowGraph:
    """The CFG of one function."""

    def __init__(self, func):
        self.func = func
        self.nodes = []
        self.entry = None
        self.exit = None
        self.labels = {}  # goto label -> node

    def new_node(self, kind, stmt=None, cond=None):
        node = CFGNode(len(self.nodes), kind, stmt, cond)
        self.nodes.append(node)
        return node

    def add_edge(self, source, target, assume=None):
        edge = CFGEdge(target, assume)
        source.edges.append(edge)
        target.preds.append(source)
        return edge

    def statement_nodes(self):
        return [node for node in self.nodes if node.kind == STMT]

    def reachable_nodes(self):
        """Nodes reachable from entry, in discovery (DFS preorder) order."""
        seen = set()
        order = []
        stack = [self.entry]
        while stack:
            node = stack.pop()
            if node.uid in seen:
                continue
            seen.add(node.uid)
            order.append(node)
            for edge in reversed(node.edges):
                stack.append(edge.target)
        return order


class _Builder:
    def __init__(self, func, sid_allocator):
        self.cfg = ControlFlowGraph(func)
        self._pending_gotos = []  # (node, label)
        self._sid_allocator = sid_allocator

    def build(self):
        cfg = self.cfg
        cfg.entry = cfg.new_node(ENTRY)
        cfg.exit = cfg.new_node(EXIT)
        head = self._build_body(self.cfg.func.body, cfg.exit)
        cfg.add_edge(cfg.entry, head)
        for node, label in self._pending_gotos:
            target = cfg.labels.get(label)
            if target is None:
                raise CFrontError(
                    "goto to unknown label %r in %s" % (label, cfg.func.name)
                )
            cfg.add_edge(node, target)
        return cfg

    def _register_labels(self, stmt, node):
        for label in stmt.labels:
            self.cfg.labels[label] = node

    def _stamp(self, stmt):
        if stmt.sid is None:
            stmt.sid = self._sid_allocator()

    def _build_body(self, stmts, follow):
        """Build nodes for ``stmts`` falling through to ``follow``; returns
        the head node of the sequence."""
        head = follow
        # Build back to front so each statement knows its continuation.
        for stmt in reversed(stmts):
            head = self._build_stmt(stmt, head)
        return head

    def _build_stmt(self, stmt, follow):
        cfg = self.cfg
        if isinstance(stmt, C.If):
            self._stamp(stmt)
            node = cfg.new_node(BRANCH, stmt, stmt.cond)
            self._register_labels(stmt, node)
            then_head = self._build_body(stmt.then_body, follow)
            else_head = self._build_body(stmt.else_body, follow)
            cfg.add_edge(node, then_head, assume=True)
            cfg.add_edge(node, else_head, assume=False)
            return node
        if isinstance(stmt, C.While):
            self._stamp(stmt)
            node = cfg.new_node(BRANCH, stmt, stmt.cond)
            self._register_labels(stmt, node)
            body_head = self._build_body(stmt.body, node)
            cfg.add_edge(node, body_head, assume=True)
            cfg.add_edge(node, follow, assume=False)
            return node
        if isinstance(stmt, C.Goto):
            self._stamp(stmt)
            node = cfg.new_node(STMT, stmt)
            self._register_labels(stmt, node)
            self._pending_gotos.append((node, stmt.label))
            return node
        if isinstance(stmt, C.Return):
            self._stamp(stmt)
            node = cfg.new_node(STMT, stmt)
            self._register_labels(stmt, node)
            cfg.add_edge(node, cfg.exit)
            return node
        if isinstance(stmt, (C.Skip, C.Assign, C.CallStmt, C.Assert, C.Assume)):
            self._stamp(stmt)
            node = cfg.new_node(STMT, stmt)
            self._register_labels(stmt, node)
            cfg.add_edge(node, follow)
            return node
        raise AssertionError(
            "statement %r survived lowering; cannot build CFG" % type(stmt).__name__
        )


def build_cfg(func, sid_allocator=None):
    """Build the CFG of one lowered function.

    ``sid_allocator`` supplies globally unique statement ids; when omitted, a
    per-function counter is used.
    """
    if sid_allocator is None:
        counter = iter(range(1_000_000_000))
        sid_allocator = lambda: next(counter)  # noqa: E731
    return _Builder(func, sid_allocator).build()


def build_program_cfgs(program):
    """CFGs for all defined functions with a shared sid space.

    Idempotent with respect to statement ids: statements stamped by an
    earlier pass keep their sids, and fresh statements (e.g. inserted by
    SLAM instrumentation) are numbered above the existing maximum.
    """
    highest = 0

    def scan(stmts):
        nonlocal highest
        for stmt in stmts:
            if stmt.sid is not None:
                highest = max(highest, stmt.sid)
            for sub in stmt.substatements():
                scan(sub)

    for func in program.defined_functions():
        scan(func.body)
    next_sid = [highest]

    def allocate():
        next_sid[0] += 1
        return next_sid[0]

    return {
        func.name: build_cfg(func, allocate) for func in program.defined_functions()
    }
