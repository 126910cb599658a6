"""The reuse level, and reuse of procedure and statement abstractions.

C2bp abstracts each procedure on its own, and its translation depends
only on what the procedure reads: its text, its in-scope predicates,
the signatures involved, and the program facts its statements touch.
:class:`AbstractionReuse` caches whole procedures keyed by exactly that
(:meth:`repro.analysis.ProgramAnalyses.procedure_key`), so a warm run on
a program whose procedure is unchanged (a resubmission, or any other
procedure of a one-procedure edit) fetches it without solving liveness
or keying a statement.  Below that it caches each top-level statement's
translated parts keyed by the statement text, the scope predicates
inside its mod/ref closure, its liveness fact, the involved signatures
and the points-to facts it reads, so a changed procedure, or the next
CEGAR iteration's larger predicate set, re-translates only the
statements whose inputs changed.  Neither key names a position: an edit
that shifts statements leaves the shifted statements' keys alone.

Every C2bp run translates through one, over its engine context's
:class:`ReuseLevel`, which also keeps the program memo and Bebop's
answers and tables.

Byte identity with a fresh run comes from C2bp's one assembly path:
every statement, fetched or fresh, is translated with a per-statement
temporary prefix and assembled with the same first-use renumbering,
applied part by part.  Entries are shared read-only; a part is cloned
only when assembly must write it: to rename its temporaries, or to
re-stamp its statements' source sids (payloads record the sids they were
translated at, by statement ordinal) when the program it is reused in
numbers them differently.
"""

import collections
import threading

from repro.boolprog import ast as B

# The bounds below are sized on the ``serve-edit-loop`` benchmark, whose
# traffic (60 % resubmissions of 18 texts, 40 % one-off edits) is an
# assumed mix, not a measured one.  The measurements are in
# docs/PERFORMANCE.md, "Program facts, the program memo and the frozen
# heap".

#: Programs a reuse level keeps (with their facts), least recently used
#: first out.  It must hold the resubmitted set: with 16 slots for that
#: benchmark's 18 texts the memo thrashes (30 evictions a round, each a
#: thaw and full collection in a daemon), from 24 up it never evicts;
#: 32 leaves headroom.
PROGRAM_CAPACITY = 32

#: Program keys a reuse level remembers having built once: a key is
#: admitted to the program memo on its second sighting, so one-off
#: texts (an edit submitted once) never displace a resubmitted one or
#: cost an eviction.  Admitting on first sighting made that benchmark's
#: rounds 2.5x slower at this ``PROGRAM_CAPACITY``, or 2.4x the memory
#: with room for every text.  A round there sees about 220 distinct
#: texts, so this bound is never reached; it only caps the set's size
#: in a long-lived daemon.
SEEN_ONCE_CAPACITY = 1024

#: Bebop answers a reuse level keeps, least recently used first out.
#: One round of ``serve-edit-loop`` makes 18 entries: its 500 requests
#: run 521 CEGAR iterations over only 18 distinct checked programs up to
#: skips and comments.  An entry is a 40-character digest (89 bytes) and
#: a bool: 1024 of them take about 165 KB, 75 KB of it the dict's own
#: (measured with tracemalloc).  So the bound holds far more programs
#: than ``PROGRAM_CAPACITY`` at no real cost, and only caps the memo of
#: a long-lived daemon.
ANSWER_CAPACITY = 1024

#: Entries each of a reuse level's procedure, statement, enforce and
#: Bebop table memos keeps, least recently used first out.  One round of
#: ``serve-edit-loop`` (priming plus 500 requests, 200 of them edits)
#: peaks at 300 procedure entries, 640 statement parts, 47 enforce
#: invariants and 79 tables (seeds 0 and 1 alike), so the round never
#: evicts; the bound only caps a long-lived daemon fed distinct edits,
#: which would otherwise keep every entry until ``flush``.
STATEMENT_CAPACITY = 4096

_ABSENT = object()


def clone_stmts(stmts, sids=None):
    """Deep-copy boolean statements (expressions are immutable and
    shared), preserving labels and comments.  Source sids are kept, or
    re-stamped through the ``sids`` mapping when one is given."""
    copies = []
    for stmt in stmts:
        if isinstance(stmt, B.BAssign):
            new = B.BAssign(list(stmt.targets), list(stmt.values))
        elif isinstance(stmt, B.BAssume):
            new = B.BAssume(stmt.cond)
        elif isinstance(stmt, B.BAssert):
            new = B.BAssert(stmt.cond)
        elif isinstance(stmt, B.BIf):
            new = B.BIf(
                stmt.cond,
                clone_stmts(stmt.then_body, sids),
                clone_stmts(stmt.else_body, sids),
            )
        elif isinstance(stmt, B.BWhile):
            new = B.BWhile(stmt.cond, clone_stmts(stmt.body, sids))
        elif isinstance(stmt, B.BCall):
            new = B.BCall(list(stmt.targets), stmt.name, list(stmt.args))
        elif isinstance(stmt, B.BReturn):
            new = B.BReturn(list(stmt.values))
        elif isinstance(stmt, B.BGoto):
            new = B.BGoto(stmt.label)
        else:
            new = B.BSkip()
        new.labels = list(stmt.labels)
        new.source_sid = (
            stmt.source_sid if sids is None
            else sids.get(stmt.source_sid, stmt.source_sid)
        )
        new.comment = stmt.comment
        copies.append(new)
    return copies


def _writable(stmts, stored_sids, sids, renamed):
    """``stmts`` themselves, or a clone when assembly must write them:
    to re-stamp ``stored_sids`` (the sids they were translated at) as
    ``sids``, or to rename temporaries."""
    if sids is not None and tuple(stored_sids) != tuple(sids):
        return clone_stmts(stmts, dict(zip(stored_sids, sids)))
    if renamed:
        return clone_stmts(stmts)
    return stmts


class ReuseLevel:
    """The in-memory level: procedure and statement payloads and enforce
    invariants by key, plus a count of the lookups it answered.

    An :class:`repro.engine.EngineContext` owns one; the daemon hands
    its one level to every request, with or without a store.  It also
    memoizes lowered programs with their facts (:meth:`program`), so a
    daemon that sees a text again skips its front end and analyses,
    Bebop's answer per checked boolean program (:meth:`answer`), so a
    CEGAR loop that meets a program Bebop already checked skips Bebop,
    and keeps the Bebop table records a store reads or writes
    (``tables``).
    """

    def __init__(self):
        self.procedures = collections.OrderedDict()  # key -> payload
        self.statements = collections.OrderedDict()  # key -> payload
        # key -> enforce expr (possibly None)
        self.enforce = collections.OrderedDict()
        # store key text -> Bebop table record (read-only)
        self.tables = collections.OrderedDict()
        self.hits = 0
        self.programs = collections.OrderedDict()  # key -> (program, facts)
        self._seen_once = collections.OrderedDict()  # key -> True
        self.program_hits = 0
        self.program_misses = 0
        self.program_admissions = 0
        #: Memo entries dropped so far: entries of the six memos, and the
        #: per-predicate-set analyses of memoized programs
        #: (:meth:`count_eviction`).  A daemon reads it to learn that warm
        #: state was let go.
        self.program_evictions = 0
        #: Bebop's answers by :func:`repro.bebop.reachability_key`:
        #: whether a failing assert is reachable (:meth:`answer`).
        self.answers = collections.OrderedDict()  # key -> error_reached
        self.answer_hits = 0
        self.answer_misses = 0
        # A daemon's flush clears every memo from the event loop while the
        # compute thread may be inside a lookup.
        self._memo_lock = threading.Lock()

    # The one LRU routine over the six memos; callers hold the lock.

    def _recall(self, memo, key):
        """``(hit, entry)``; a hit becomes ``memo``'s most recent entry."""
        entry = memo.get(key, _ABSENT)
        if entry is _ABSENT:
            return False, None
        memo.move_to_end(key)
        return True, entry

    def _keep(self, memo, key, entry, capacity):
        memo[key] = entry
        memo.move_to_end(key)
        if len(memo) > capacity:
            memo.popitem(last=False)
            self.program_evictions += 1

    def fetch(self, memo, key):
        """``(hit, entry)`` from the ``"procedures"``, ``"statements"``,
        ``"enforce"`` or ``"tables"`` memo; a hit counts in ``hits``."""
        with self._memo_lock:
            hit, entry = self._recall(getattr(self, memo), key)
            self.hits += hit
            return hit, entry

    def keep(self, memo, key, entry):
        """Store ``entry`` in the ``"procedures"``, ``"statements"``,
        ``"enforce"`` or ``"tables"`` memo."""
        with self._memo_lock:
            self._keep(getattr(self, memo), key, entry, STATEMENT_CAPACITY)

    def program(self, key, build):
        """The ``(program, facts)`` entry for ``key``, from the memo or
        from ``build()``.  A built entry is admitted on the key's second
        sighting; the caller must treat an entry as read-only either
        way."""
        with self._memo_lock:
            hit, entry = self._recall(self.programs, key)
            if hit:
                self.program_hits += 1
                return entry
            self.program_misses += 1
        entry = build()
        with self._memo_lock:
            if self._seen_once.pop(key, False):
                self.program_admissions += 1
                self._keep(self.programs, key, entry, PROGRAM_CAPACITY)
            else:
                self._seen_once[key] = True
                if len(self._seen_once) > SEEN_ONCE_CAPACITY:
                    self._seen_once.popitem(last=False)
        return entry

    def answer(self, key):
        """The memoized ``error_reached`` for a reachability key, or
        None when Bebop has not checked such a program yet."""
        with self._memo_lock:
            hit, reached = self._recall(self.answers, key)
            if hit:
                self.answer_hits += 1
            else:
                self.answer_misses += 1
            return reached

    def record_answer(self, key, error_reached):
        with self._memo_lock:
            self._keep(self.answers, key, error_reached, ANSWER_CAPACITY)

    def count_eviction(self):
        """Note that a memoized program's facts dropped an entry."""
        with self._memo_lock:
            self.program_evictions += 1

    def clear(self):
        """Empty the level; returns how many entries it dropped."""
        with self._memo_lock:
            dropped = (
                len(self.procedures) + len(self.statements) + len(self.enforce)
                + len(self.tables) + len(self.programs) + len(self.answers)
            )
            self.procedures.clear()
            self.statements.clear()
            self.enforce.clear()
            self.tables.clear()
            self.programs.clear()
            self._seen_once.clear()
            self.answers.clear()
        return dropped

    def snapshot(self):
        return {
            "procedures": len(self.procedures),
            "statements": len(self.statements),
            "enforce": len(self.enforce),
            "bebop_tables": len(self.tables),
            "hits": self.hits,
            "programs": len(self.programs),
            "program_hits": self.program_hits,
            "program_misses": self.program_misses,
            "program_admissions": self.program_admissions,
            "program_evictions": self.program_evictions,
            "bebop_answers": len(self.answers),
            "bebop_answer_hits": self.answer_hits,
            "bebop_answer_misses": self.answer_misses,
        }


class AbstractionReuse:
    """The cache C2bp consults per procedure, per top-level statement
    and per procedure enforce; an engine context keeps one.

    Entries sit on ``level`` under ``(options fingerprint, key)``, since
    a daemon's level serves requests whose options differ.  A subclass
    adds a disk through the ``_load``/``_save`` hooks, which every memo
    goes through.
    """

    def __init__(self, level, options, stats=None):
        # Imported here: repro.core imports this package.
        from repro.core.options import options_fingerprint

        self.level = level
        self.options = options
        self.stats = stats
        self._fingerprint = options_fingerprint(options)

    def _load(self, memo, key):
        """``(hit, payload)`` for a level miss from the lower level."""
        return False, None

    def _save(self, memo, key, payload):
        """Write a newly stored payload through to the lower level."""

    def _recall(self, memo, key):
        level_key = (self._fingerprint, key)
        hit, payload = self.level.fetch(memo, level_key)
        if not hit:
            hit, payload = self._load(memo, key)
            if hit:
                self.level.keep(memo, level_key, payload)
        return hit, payload

    def _keep(self, memo, key, payload):
        self.level.keep(memo, (self._fingerprint, key), payload)
        self._save(memo, key, payload)

    def _count(self, reused, retranslated):
        if self.stats is not None:
            self.stats.c2bp_stmts_reused += reused
            self.stats.c2bp_stmts_retranslated += retranslated

    # -- procedures -------------------------------------------------------------

    def fetch_procedure(self, key, sids):
        """The assembled procedure for ``key``, or None: its ``body``
        (re-stamped when ``sids``, its statements' current sids, differ
        from the payload's), ``locals`` (its renamed temporaries),
        ``temp_meanings``, ``enforce``, ``statements`` (its top-level
        statement count) and ``c2bp`` counters."""
        hit, payload = self._recall("procedures", key)
        if not hit:
            return None
        self._count(payload["statements"], 0)
        entry = dict(payload)
        entry["body"] = _writable(payload["body"], payload["sids"], sids, False)
        return entry

    def store_procedure(self, key, entry, sids):
        """Keep an assembled procedure (see :meth:`fetch_procedure`); its
        statements are shared read-only from here on."""
        payload = dict(entry, body=list(entry["body"]), sids=tuple(sids))
        self._keep("procedures", key, payload)

    # -- statements -------------------------------------------------------------

    def fetch(self, key, sids=None):
        """The translated part for a statement key, or None; see
        :func:`_writable` for when its ``stmts`` are a private clone."""
        hit, payload = self._recall("statements", key)
        if not hit:
            self._count(0, 1)
            return None
        self._count(1, 0)
        return {
            "stmts": _writable(
                payload["stmts"], payload["sids"], sids, payload["temps"]
            ),
            "temps": list(payload["temps"]),
            "temp_meanings": list(payload["temp_meanings"]),
            "c2bp": dict(payload["c2bp"]),
        }

    def store(self, key, stmts, temps, temp_meanings, c2bp_counters, sids=()):
        """Keep a translated part.  Assembly renames a part's temporaries
        in place, so a part with temporaries is kept as a clone; one
        without is shared read-only."""
        payload = {
            "stmts": clone_stmts(stmts) if temps else list(stmts),
            "temps": list(temps),
            "temp_meanings": list(temp_meanings),
            "c2bp": dict(c2bp_counters),
            "sids": tuple(sids),
        }
        self._keep("statements", key, payload)

    # -- enforce invariants -----------------------------------------------------

    def fetch_enforce(self, key):
        """``(hit, enforce)`` — a hit's enforce can legitimately be None
        (no inconsistent cubes), so presence must be reported separately."""
        return self._recall("enforce", key)

    def store_enforce(self, key, enforce):
        self._keep("enforce", key, enforce)
