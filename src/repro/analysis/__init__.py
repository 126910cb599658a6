"""The static-analysis subsystem.

Facts are computed once per abstraction run and consumed by several
clients (see ``docs/ANALYSIS.md``):

- :mod:`repro.analysis.framework` — the dataflow solver and call graph;
- :mod:`repro.analysis.modref` — canonical location keysets, the
  memoized :class:`TouchOracle`, and mod/ref summaries;
- :mod:`repro.analysis.livepreds` — backward live-predicate facts
  (C2bp's dead-slot pruning);
- :mod:`repro.analysis.intervals` — interval abstract interpretation
  (pre-prover query discharge and Newton-stall candidate predicates);
- :mod:`repro.analysis.bpdce` — boolean-program dead-variable
  elimination;
- :mod:`repro.analysis.reuse` — the procedure- and statement-abstraction
  cache, with position-free keys that carry the points-to facts they
  read.

Facts live as long as their inputs do.  :class:`ProgramFacts` holds what
the lowered program alone determines (points-to, CFGs, mod/ref); one
serves every C2bp run on that program, so a CEGAR loop builds them once.
It also memoizes, per predicate set, the signatures and the
:class:`ProgramAnalyses` (liveness, touch oracles, procedure and
statement keys) that every C2bp run builds.  :func:`memoized_program`
keeps a program and its facts on the engine context's reuse level, so a
warm daemon builds them once per program text.  :class:`AnalysisStats`
is shared across a whole engine context (via
:func:`ensure_analysis_stats`) so the CEGAR loop can report
per-iteration deltas.
"""

import collections
import hashlib

from repro.cfront import cast as C
from repro.cfront.cfg import build_program_cfgs
from repro.cfront.exprutils import variables, walk
from repro.cfront.pretty import pretty_stmt
from repro.pointers import PointsToAnalysis

from repro.analysis.framework import BACKWARD, FORWARD, CallGraph, DataflowAnalysis
from repro.analysis.modref import (
    WILDCARD,
    ModRefSummaries,
    TouchOracle,
    location_keyset,
)
from repro.analysis.livepreds import LivePredicates, enforce_variable_names
from repro.analysis.intervals import (
    IntervalDischarger,
    interval_candidate_predicates,
)
from repro.analysis.bpdce import eliminate_dead_variables
from repro.analysis.reuse import AbstractionReuse

__all__ = [
    "AbstractionReuse",
    "AnalysisStats",
    "BACKWARD",
    "CallGraph",
    "DataflowAnalysis",
    "FORWARD",
    "IntervalDischarger",
    "LivePredicates",
    "ModRefSummaries",
    "ProgramAnalyses",
    "ProgramFacts",
    "TouchOracle",
    "WILDCARD",
    "eliminate_dead_variables",
    "ensure_analysis_stats",
    "enforce_variable_names",
    "interval_candidate_predicates",
    "location_keyset",
    "memoized_program",
]


class AnalysisStats:
    """Counters for every pass, registered as the ``analysis`` stats
    section; one instance is shared across a CEGAR run's iterations so
    the loop can take per-iteration deltas."""

    FIELDS = (
        "predicates_skipped_dead",
        "queries_discharged_interval",
        "bp_vars_eliminated",
        "modref_summary_hits",
        "modref_touch_queries",
        "c2bp_stmts_reused",
        "c2bp_stmts_retranslated",
        "interval_candidates_exported",
    )

    __slots__ = FIELDS

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self):
        return {name: getattr(self, name) for name in self.FIELDS}


def ensure_analysis_stats(context):
    """The engine context's :class:`AnalysisStats`, created and
    registered on first use."""
    stats = getattr(context, "analysis_stats", None)
    if stats is None:
        stats = AnalysisStats()
        context.analysis_stats = stats
        context.stats.register("analysis", stats)
    return stats


class ProgramFacts:
    """The facts one lowered program determines, built once and lazily.

    Points-to, the CFGs and mod/ref depend on the program alone, so every
    C2bp run on it shares them.  Signatures and :class:`ProgramAnalyses`
    also depend on the predicate set; :meth:`abstraction_inputs` memoizes
    them per set, so re-abstracting a program under predicates it has
    seen before (a resubmission to a warm daemon) skips liveness and
    statement keys too.

    The program is read, never written: a memoized program is shared by
    every later request for the same text.
    """

    #: Predicate-set entries kept per program, least recently used first
    #: out.  A CEGAR loop adds one per iteration.
    ANALYSES_CAPACITY = 16

    def __init__(self, program, on_evict=None):
        self.program = program
        self._on_evict = on_evict  # called when a predicate-set entry goes
        self._points_to = None
        self._cfgs = None
        self._modref = None
        self._inputs = collections.OrderedDict()
        self._outlines = {}  # func name -> procedure outline
        self._declarations = None
        self._declared = {}  # (func name, name) -> declaration facts

    @property
    def points_to(self):
        if self._points_to is None:
            self._points_to = PointsToAnalysis(self.program)
        return self._points_to

    @property
    def cfgs(self):
        if self._cfgs is None:
            self._cfgs = build_program_cfgs(self.program)
        return self._cfgs

    @property
    def modref(self):
        if self._modref is None:
            self._modref = ModRefSummaries(self.program, points_to=self.points_to)
        return self._modref

    def outline(self, func):
        """The procedure as reuse keys read it: ``(text, names, unknowns,
        callees, sids, parts)``.  ``text`` is its printed body, ``names``,
        ``unknowns`` and ``callees`` what its statements mention
        (:func:`_mentions`), ``sids`` its statements' sids in
        :func:`_subtree_statements` order, and ``parts`` the same five per
        top-level statement."""
        outline = self._outlines.get(func.name)
        if outline is None:
            parts = []
            all_uids = []
            for stmt in func.body:
                statements = _subtree_statements(stmt)
                names, uids, callees = _mentions(statements)
                all_uids.extend(uids)
                parts.append((
                    pretty_stmt(stmt),
                    names,
                    _first_occurrences(uids),
                    callees,
                    tuple(sub.sid for sub in statements),
                ))
            outline = (
                "".join(part[0] for part in parts),
                frozenset().union(*(part[1] for part in parts)),
                _first_occurrences(all_uids),
                tuple(sorted(set().union(*(part[3] for part in parts)))),
                tuple(sid for part in parts for sid in part[4]),
                tuple(parts),
            )
            self._outlines[func.name] = outline
        return outline

    def declaration(self, func_name, name):
        """``(facts, var key)`` of a name in ``func_name``'s scope: whether
        it is a global name, a protected global or a local, its declared
        type, and its points-to variable key."""
        found = self._declared.get((func_name, name))
        if found is None:
            global_names, protected, _structs = self.declarations
            decl = self.program.lookup_var(func_name, name)
            var_key = self.points_to.var_key(func_name, name)
            found = (
                (
                    name,
                    name in global_names,
                    name in protected,
                    var_key[0] is not None,
                    None if decl is None else str(decl.type),
                ),
                var_key,
            )
            self._declared[(func_name, name)] = found
        return found

    @property
    def declarations(self):
        """``(global names, protected globals, struct layouts)``: the
        program-wide declarations a translation reads."""
        if self._declarations is None:
            program = self.program
            self._declarations = (
                frozenset(program.global_names()),
                frozenset(getattr(program, "protected_globals", ()) or ()),
                tuple(
                    (tag, tuple((f.name, str(f.type)) for f in struct.fields))
                    for tag, struct in sorted(program.structs.items())
                    if struct.is_complete
                ),
            )
        return self._declarations

    def abstraction_inputs(self, predicates, options, stats):
        """``(signatures, analyses)`` for one C2bp run.

        Keyed by the translation-relevant option values and the ordered
        ``(scope, name)`` of every predicate (a name is the predicate's
        printed expression).  An entry keeps a snapshot of the set, since
        the CEGAR loop grows its own set in place, and its counters go to
        ``stats``: the caller's context, not the one that built it.
        """
        # Imported here: repro.core imports this package.
        from repro.core.options import SEMANTIC_OPTION_FIELDS
        from repro.core.signatures import compute_signatures

        key = (
            tuple(getattr(options, name) for name in SEMANTIC_OPTION_FIELDS),
            tuple((p.scope, p.name) for p in predicates.all_predicates()),
        )
        entry = self._inputs.get(key)
        if entry is None:
            snapshot = predicates.copy()
            signatures = compute_signatures(self.program, snapshot)
            analyses = ProgramAnalyses(
                self.program, snapshot, signatures, options, self, stats
            )
            entry = (signatures, analyses)
            self._inputs[key] = entry
            if len(self._inputs) > self.ANALYSES_CAPACITY:
                self._inputs.popitem(last=False)
                if self._on_evict is not None:
                    self._on_evict()
        else:
            self._inputs.move_to_end(key)
            entry[1].attach(stats)
        return entry


def memoized_program(context, source, build, *key):
    """``(program, facts)`` for the program ``build()`` lowers from
    ``source``.

    The pair is looked up on the context's reuse level by the source's
    digest plus ``key`` (whatever else ``build`` reads), and a text seen
    twice is kept there for later requests: the program is then shared
    and must never be mutated.
    """
    level = context.reuse_level

    def build_entry():
        program = build()
        return program, ProgramFacts(program, on_evict=level.count_eviction)

    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return level.program((digest,) + key, build_entry)


class ProgramAnalyses:
    """The static facts for one (program, predicate set, options) triple,
    shared by every consumer.

    :meth:`ProgramFacts.abstraction_inputs` builds one per distinct
    predicate set and keeps it for later C2bp runs on the same program,
    so liveness and procedure and statement keys are solved once per
    set; the
    program-only facts (CFGs, mod/ref, points-to) come from the
    :class:`ProgramFacts`.  Everything heavier than the flag checks is
    computed lazily: a run that never asks for mod/ref summaries never
    builds them.  ``predicates`` is a snapshot, never the caller's set.
    """

    def __init__(self, program, predicates, signatures, options, facts, stats):
        self.program = program
        self.predicates = predicates
        self.signatures = signatures
        self.options = options
        self.facts = facts
        self.points_to = facts.points_to
        self.stats = stats
        self.live_enabled = options.live_predicates
        self.intervals_enabled = options.intervals
        self.discharger = (
            IntervalDischarger(stats) if self.intervals_enabled else None
        )
        self._touchers = {}
        self._keysets = {}  # predicate expression -> location keyset
        self._liveness = {}  # func name -> LivePredicates
        self._statement_keys = {}  # (func name, index) -> statement key
        self._procedure_keys = {}  # func name -> procedure key
        self._expr_names = {}  # predicate expression -> its variables

    def attach(self, stats):
        """Send every counter from here on to ``stats`` (the context of
        the run now using these facts)."""
        self.stats = stats
        if self.discharger is not None:
            self.discharger.stats = stats
        for oracle in self._touchers.values():
            oracle.stats = stats

    # -- shared building blocks -------------------------------------------------

    def may_alias(self, func_name):
        """A two-location may-alias oracle bound to one procedure's scope,
        or None (assume-everything) when alias pruning is disabled."""
        if not self.options.use_alias_analysis:
            return None
        return lambda a, b: self.points_to.may_alias(a, b, func_name)

    def toucher(self, func_name):
        oracle = self._touchers.get(func_name)
        if oracle is None:
            oracle = TouchOracle(self.may_alias(func_name), stats=self.stats)
            self._touchers[func_name] = oracle
        return oracle

    def predicate_keyset(self, predicate):
        """The predicate's canonical location keyset, once per distinct
        expression.  Keyed by the expression's value, not the predicate's
        name: call-site temporaries reuse names like ``__r0`` across
        procedures while standing for different meanings."""
        keyset = self._keysets.get(predicate.expr)
        if keyset is None:
            keyset = location_keyset(predicate.expr)
            self._keysets[predicate.expr] = keyset
        return keyset

    def cone(self, func_name, candidates, seed):
        """The candidates whose locations transitively touch the location
        keyset ``seed`` in ``func_name`` (the touch fixpoint behind C2bp's
        cone of influence and the statement keys' mod/ref closure), in
        candidate order."""
        # Canonical-text keysets plus the memoized TouchOracle: text
        # equality decides the common case without any alias query, and
        # each distinct location pair is asked of the points-to oracle at
        # most once per procedure.
        toucher = self.toucher(func_name)
        relevant = dict(seed)
        chosen = set()
        remaining = list(candidates)
        changed = True
        while changed:
            changed = False
            still_remaining = []
            for candidate in remaining:
                keyset = self.predicate_keyset(candidate)
                if toucher.touch(keyset, relevant):
                    chosen.add(id(candidate))
                    relevant.update(keyset)
                    changed = True
                else:
                    still_remaining.append(candidate)
            remaining = still_remaining
        return [c for c in candidates if id(c) in chosen]

    @property
    def cfgs(self):
        return self.facts.cfgs

    @property
    def modref(self):
        return self.facts.modref

    # -- live predicates --------------------------------------------------------

    def compute_liveness(self, func_name, enforce_expr):
        """Solve (once) the live-predicate facts for ``func_name`` given
        its enforce invariant; None when the pass is disabled."""
        if not self.live_enabled:
            return None
        solved = self._liveness.get(func_name)
        if solved is None:
            cfg = self.cfgs.get(func_name)
            if cfg is None:
                return None
            signature = self.signatures[func_name]
            solved = LivePredicates(
                cfg,
                self.predicates.in_scope(func_name),
                signature.return_predicates,
                self.may_alias(func_name),
                self.toucher(func_name),
                self.options,
                enforce_names=enforce_variable_names(enforce_expr),
            )
            self._liveness[func_name] = solved
        return solved

    def liveness(self, func_name):
        return self._liveness.get(func_name)

    def is_dead(self, func_name, stmt, predicate):
        solved = self._liveness.get(func_name)
        if solved is None:
            return False
        return not solved.is_live(stmt, predicate.name)

    # -- reuse keys -------------------------------------------------------------

    def relevant_names(self, func_name, stmt):
        """The scope predicates inside the statement's mod/ref closure,
        or None when the statement's effects are not precisely nameable
        (calls, wildcard writes) and every predicate is relevant."""
        summary = self.modref.statement_summary(stmt, func_name)
        if summary.has_call or WILDCARD in summary.mod or WILDCARD in summary.ref:
            return None
        touched = dict(summary.mod)
        touched.update(summary.ref)
        scope = self.predicates.in_scope(func_name)
        return {p.name for p in self.cone(func_name, scope, touched)}

    def _signature_fingerprint(self, func_name):
        signature = self.signatures.get(func_name)
        if signature is None:
            return (func_name, None)
        return (
            func_name,
            tuple(signature.formals),
            signature.return_var,
            tuple(p.name for p in signature.formal_predicates),
            tuple(p.name for p in signature.return_predicates),
        )

    def _scope_facts(self, func_name, names, predicates, callees):
        """What a translation reads of the program beyond its own text:
        for each variable it or ``predicates`` mention (or the callees'
        signature predicates, translated into its scope), its
        :meth:`ProgramFacts.declaration`; which callees are defined; the
        struct layouts; and the points-to partition restricted to the
        cells those variables reach, with the callees' transitive mod
        sets restricted the same way."""
        names = set(names)
        for predicate in predicates:
            names |= self._names(predicate.expr)
        defined = []
        for callee in callees:
            signature = self.signatures.get(callee)
            if signature is None:
                continue
            defined.append(callee)
            for predicate in signature.formal_predicates + signature.return_predicates:
                names |= self._names(predicate.expr)
        declared = [self.facts.declaration(func_name, name) for name in sorted(names)]
        modref = self.modref
        return (
            tuple(facts for facts, _key in declared),
            tuple(defined),
            self.facts.declarations[2],
            self.points_to.alias_facts(
                [key for _facts, key in declared],
                [modref.written_cells(callee) for callee in defined],
            ),
        )

    def _names(self, expr):
        names = self._expr_names.get(expr)
        if names is None:
            names = self._expr_names[expr] = frozenset(variables(expr))
        return names

    def statement_key(self, func, index, stmt):
        """A cache key covering everything the statement's translation
        reads; equal keys guarantee byte-identical translated parts, up
        to the statements' sids and the temporaries' prefix.  The key is
        position-free: it names no index or sid, so a statement that an
        edit shifted keeps its key.  Computed once per statement: call it
        after :meth:`compute_liveness` has run for ``func``."""
        key = self._statement_keys.get((func.name, index))
        if key is None:
            key = self._statement_key(func, stmt, self.facts.outline(func)[5][index])
            self._statement_keys[(func.name, index)] = key
        return key

    def _statement_key(self, func, stmt, part):
        scope = self.predicates.in_scope(func.name)
        relevant = self.relevant_names(func.name, stmt)
        if relevant is None:
            predicates = scope
            sig_part = tuple(
                self._signature_fingerprint(name)
                for name in sorted(self.signatures)
            )
        else:
            predicates = [p for p in scope if p.name in relevant]
            sig_part = (self._signature_fingerprint(func.name),)
        text, names, unknowns, callees, sids = part
        solved = self._liveness.get(func.name)
        if solved is None:
            live_part = "live-off"
        else:
            live_part = []
            for ordinal, sid in enumerate(sids):
                if sid is not None:
                    fact = solved.live_out_by_sid(sid)
                    live_part.append(
                        (ordinal, fact if fact is None else tuple(sorted(fact)))
                    )
            live_part = tuple(live_part)
        return (
            func.name,
            text,
            unknowns,
            tuple(stmt.labels),
            tuple((p.scope is None, p.name) for p in predicates),
            sig_part,
            live_part,
            self._scope_facts(func.name, names, predicates, callees),
        )

    def procedure_key(self, func):
        """A cache key covering everything the procedure's translation
        reads (C2bp abstracts each procedure on its own): its text, its
        ordered in-scope predicates, its own and its callees'
        signatures, its enforce key, and :meth:`_scope_facts`.  Equal
        keys guarantee the same assembled procedure up to sids.  Needs
        no liveness; computed once per procedure."""
        key = self._procedure_keys.get(func.name)
        if key is None:
            text, names, unknowns, callees, _sids, _parts = self.facts.outline(func)
            scope = self.predicates.in_scope(func.name)
            key = (
                func.name,
                text,
                unknowns,
                tuple((p.scope is None, p.name) for p in scope),
                tuple(
                    self._signature_fingerprint(name)
                    for name in (func.name,) + callees
                ),
                self.enforce_key(func.name),
                self._scope_facts(func.name, names, scope, callees),
            )
            self._procedure_keys[func.name] = key
        return key

    def enforce_key(self, func_name):
        return (
            func_name,
            tuple(p.name for p in self.predicates.in_scope(func_name)),
        )

    # -- Newton-stall fallback --------------------------------------------------

    def newton_fallback_predicates(self, func_name):
        """Loop-head interval invariants of ``func_name`` as candidate
        predicate expressions (empty when intervals are disabled)."""
        if not self.intervals_enabled:
            return []
        cfg = self.cfgs.get(func_name)
        if cfg is None:
            return []
        candidates = interval_candidate_predicates(
            cfg, may_alias=self.may_alias(func_name)
        )
        if candidates and self.stats is not None:
            self.stats.interval_candidates_exported += len(candidates)
        return candidates


def _subtree_statements(stmt):
    """``stmt`` and every statement nested in it, in preorder: the
    ordinals by which reuse keys and payloads name statements."""
    statements = []
    stack = [stmt]
    while stack:
        current = stack.pop()
        statements.append(current)
        for sub in reversed(current.substatements()):
            stack.extend(reversed(sub))
    return statements


def _statement_expressions(stmt):
    if isinstance(stmt, C.Assign):
        return (stmt.lhs, stmt.rhs)
    if isinstance(stmt, C.CallStmt):
        return tuple(stmt.args) + (() if stmt.lhs is None else (stmt.lhs,))
    if isinstance(stmt, C.Return):
        return () if stmt.value is None else (stmt.value,)
    cond = getattr(stmt, "cond", None)
    return () if cond is None else (cond,)


def _mentions(statements):
    """``(names, uids, callees)``: the variables the statements mention,
    the ids of their ``*`` values in order, and their sorted callee
    names.  Every ``*`` prints alike, but each is its own value unless it
    shares an id with another, so keys carry :func:`_first_occurrences`
    of the ids."""
    names = set()
    uids = []
    for stmt in statements:
        for expr in _statement_expressions(stmt):
            for node in walk(expr):
                if isinstance(node, C.Id):
                    names.add(node.name)
                elif isinstance(node, C.Unknown):
                    uids.append(node.uid)
    return frozenset(names), uids, tuple(sorted(_callees(statements)))


def _first_occurrences(values):
    """``values`` renumbered by first occurrence."""
    numbers = {}
    return tuple(numbers.setdefault(value, len(numbers)) for value in values)


def _callees(statements):
    return {stmt.name for stmt in statements if isinstance(stmt, C.CallStmt)}
