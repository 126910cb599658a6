"""Disk persistence for Bebop's compiled procedure tables.

A :class:`repro.bebop.checker.CompiledProc` is everything derivable from
a procedure's text alone: per-node transfer relations (BDDs) plus the
entry/summary plumbing (variable index lists and maps).  Its fingerprint
(:func:`repro.bebop.checker.procedure_fingerprint`) digests the whole
dependency set — global list, procedure text, callee interfaces — so a
record keyed by fingerprint can be rehydrated into *any* later run whose
procedure text matches, even across processes and across programs that
merely share the procedure.

BDD node indices are manager-relative (``2 * slot (+1 for shadow)``), so
records store every variable as a neutral ``(slot_key, shadow)`` symbol
and every BDD as a postorder node list over those symbols.  Rehydration
maps symbols through the *loading* checker's slot table (deterministically
preallocated from the program text) and rebuilds nodes bottom-up.  While
the record's variable order still holds in the loading manager -- a
node's variable sorts above both children's -- each node goes straight
into the unique table (``manager._mk``); a node whose order no longer
holds is rebuilt with ``manager.ite``.  Either way hash-consing makes the
result the loading manager's canonical node, regardless of slot
renumbering.
"""

from repro.serve.keys import bebop_store_key

#: The variable of a terminal, for the order check: it sorts below every
#: real variable.
_LEAF = float("inf")


def _serialize_bdds(checker, roots):
    """Encode ``roots`` (BDDs, possibly None) into one shared node
    environment.  Returns ``(syms, nodes, refs)`` where refs[i] is the
    encoded root of roots[i] (0=false, 1=true, n>=2 -> nodes[n-2]) or
    None."""
    manager = checker.manager
    slot_names = {slot: key for key, slot in checker._slots.items()}
    syms = []
    sym_index = {}
    nodes = []
    node_refs = {manager.false._id: 0, manager.true._id: 1}

    def var_sym(var):
        sym = (slot_names[var // 2], var & 1)
        index = sym_index.get(sym)
        if index is None:
            index = sym_index[sym] = len(syms)
            syms.append(sym)
        return index

    def encode(root):
        if root is None:
            return None
        stack = [root]
        while stack:
            node = stack[-1]
            if node._id in node_refs:
                stack.pop()
                continue
            low_ref = node_refs.get(node.low._id)
            high_ref = node_refs.get(node.high._id)
            if low_ref is None or high_ref is None:
                if high_ref is None:
                    stack.append(node.high)
                if low_ref is None:
                    stack.append(node.low)
                continue
            nodes.append((var_sym(node.var), low_ref, high_ref))
            node_refs[node._id] = len(nodes) + 1
            stack.pop()
        return node_refs[root._id]

    return syms, nodes, [encode(root) for root in roots], var_sym


def serialize_table(checker, table):
    """A :class:`CompiledProc` as a plain, picklable, manager-neutral
    structure."""
    from repro.bebop.checker import CompiledCall, CompiledTransfer

    bdd_roots = [table.enforce, table.entry_identity]
    transfer_specs = []
    for uid, (kind, payload) in sorted(table.transfers.items()):
        if payload is None:
            transfer_specs.append((uid, kind, None))
        elif isinstance(payload, CompiledTransfer):
            transfer_specs.append((uid, kind, ("transfer", len(bdd_roots))))
            bdd_roots.append(payload.constraint)
        elif isinstance(payload, CompiledCall):
            transfer_specs.append((uid, kind, ("call", len(bdd_roots))))
            bdd_roots.append(payload.bind)
        else:  # branch / assume / assert / return: a bare BDD
            transfer_specs.append((uid, kind, ("bdd", len(bdd_roots))))
            bdd_roots.append(payload)
    syms, nodes, refs, var_sym = _serialize_bdds(checker, bdd_roots)

    transfers = []
    for uid, kind, spec in transfer_specs:
        payload = table.transfers[uid][1]
        if spec is None:
            transfers.append((uid, kind, None))
        elif spec[0] == "transfer":
            transfers.append(
                (
                    uid,
                    kind,
                    {
                        "constraint": refs[spec[1]],
                        "quantified": sorted(
                            var_sym(v) for v in payload.quantified
                        ),
                        "shift_map": sorted(
                            (var_sym(s), var_sym(c))
                            for s, c in payload.shift_map.items()
                        ),
                    },
                )
            )
        elif spec[0] == "call":
            transfers.append(
                (
                    uid,
                    kind,
                    {
                        "callee": payload.callee,
                        "bind": refs[spec[1]],
                        "in_set": sorted(var_sym(v) for v in payload.in_set),
                        "dead": sorted(var_sym(v) for v in payload.dead),
                        "out_map": sorted(
                            (var_sym(o), var_sym(c))
                            for o, c in payload.out_map.items()
                        ),
                    },
                )
            )
        else:
            transfers.append((uid, kind, {"bdd": refs[spec[1]]}))
    return {
        "fingerprint": table.fingerprint,
        "syms": syms,
        "nodes": nodes,
        "enforce": refs[0],
        "entry_identity": refs[1],
        "ent_vars": [var_sym(v) for v in table.ent_vars],
        "in_to_ent": sorted(
            (var_sym(a), var_sym(b)) for a, b in table.in_to_ent.items()
        ),
        "summary_locals": sorted(var_sym(v) for v in table.summary_locals),
        "summary_map": sorted(
            (var_sym(a), var_sym(b)) for a, b in table.summary_map.items()
        ),
        "transfers": transfers,
    }


def deserialize_table(checker, data):
    """Rebuild a :class:`CompiledProc` inside ``checker``'s manager."""
    from repro.bebop.checker import CompiledCall, CompiledProc, CompiledTransfer

    manager = checker.manager
    var_of = [2 * checker._slot(key) + shadow for key, shadow in data["syms"]]
    refs = [manager.false, manager.true]
    tops = [_LEAF, _LEAF]  # refs[i]'s variable
    for sym, low_ref, high_ref in data["nodes"]:
        var = var_of[sym]
        if var < tops[low_ref] and var < tops[high_ref]:
            node = manager._mk(var, refs[low_ref], refs[high_ref])
        else:
            node = manager.ite(manager.var(var), refs[high_ref], refs[low_ref])
        refs.append(node)
        tops.append(getattr(node, "var", _LEAF))

    def bdd(ref):
        return None if ref is None else refs[ref]

    table = CompiledProc(data["fingerprint"])
    table.enforce = bdd(data["enforce"])
    table.entry_identity = bdd(data["entry_identity"])
    table.ent_vars = [var_of[s] for s in data["ent_vars"]]
    table.in_to_ent = {var_of[a]: var_of[b] for a, b in data["in_to_ent"]}
    table.summary_locals = frozenset(var_of[s] for s in data["summary_locals"])
    table.summary_map = {var_of[a]: var_of[b] for a, b in data["summary_map"]}
    for uid, kind, spec in data["transfers"]:
        if spec is None:
            table.transfers[uid] = (kind, None)
        elif kind == "assign":
            table.transfers[uid] = (
                kind,
                CompiledTransfer(
                    bdd(spec["constraint"]),
                    frozenset(var_of[s] for s in spec["quantified"]),
                    {var_of[a]: var_of[b] for a, b in spec["shift_map"]},
                ),
            )
        elif kind == "call":
            table.transfers[uid] = (
                kind,
                CompiledCall(
                    spec["callee"],
                    bdd(spec["bind"]),
                    frozenset(var_of[s] for s in spec["in_set"]),
                    frozenset(var_of[s] for s in spec["dead"]),
                    {var_of[a]: var_of[b] for a, b in spec["out_map"]},
                ),
            )
        else:
            table.transfers[uid] = (kind, bdd(spec["bdd"]))
    return table


class BebopTableStore:
    """Load/save compiled procedure tables from/to a persistent store,
    through a reuse level that keeps every record read or written here
    (decoded, read-only), so a repeat check reads no disk record."""

    def __init__(self, disk, level):
        self.disk = disk
        self.level = level

    def load(self, checker, proc_name, fingerprint):
        key = bebop_store_key(proc_name, fingerprint)
        hit, data = self.level.fetch("tables", key)
        if not hit:
            hit, data = self.disk.get(key)
            if not hit:
                return None
            self.level.keep("tables", key, data)
        if data.get("fingerprint") != fingerprint:
            return None
        try:
            table = deserialize_table(checker, data)
        except Exception:
            # A malformed (but checksum-valid) record — e.g. produced by
            # an incompatible build — must degrade to a recompile, never
            # a crash.
            return None
        return table

    def save(self, checker, proc_name, table):
        key = bebop_store_key(proc_name, table.fingerprint)
        data = serialize_table(checker, table)
        self.level.keep("tables", key, data)
        self.disk.put(key, data)
