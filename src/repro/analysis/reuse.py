"""Cross-iteration reuse of statement abstractions.

Each CEGAR iteration re-runs C2bp with a slightly larger predicate set,
yet most statements' translations cannot have changed: a new predicate
only affects a statement when it reaches the statement's mod/ref closure
(it gains a slot there, or enters some slot's cone of influence).
:class:`AbstractionReuse` caches each top-level statement's translated
parts keyed by everything the translation reads — the statement text,
the scope predicates inside its mod/ref closure, its liveness fact, and
the involved signatures — so the next iteration re-translates only the
statements the new predicates actually touch.

Byte identity with a fresh run comes from reusing the parallel-merge
discipline: translations are produced (and cached) with per-statement
temporary prefixes, then assembled with the same first-use renumbering
``_run_parallel`` applies, which the test suite already pins as
identical to a serial translation.  Cached parts are cloned once on
store and once per hit, because assembly renames statement nodes in place.
"""

from repro.boolprog import ast as B


def clone_stmts(stmts):
    """Deep-copy boolean statements (expressions are immutable and
    shared), preserving labels, source sids, and comments."""
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
                stmt.cond, clone_stmts(stmt.then_body), clone_stmts(stmt.else_body)
            )
        elif isinstance(stmt, B.BWhile):
            new = B.BWhile(stmt.cond, clone_stmts(stmt.body))
        elif isinstance(stmt, B.BCall):
            new = B.BCall(list(stmt.targets), stmt.name, list(stmt.args))
        elif isinstance(stmt, B.BReturn):
            new = B.BReturn(list(stmt.values))
        elif isinstance(stmt, B.BGoto):
            new = B.BGoto(stmt.label)
        else:
            new = B.BSkip()
        new.labels = list(stmt.labels)
        new.source_sid = stmt.source_sid
        new.comment = stmt.comment
        copies.append(new)
    return copies


class ReuseLevel:
    """The in-memory level: statement payloads and enforce invariants by
    key, plus a count of the lookups it answered.

    A plain :class:`AbstractionReuse` owns one for one CEGAR loop; the
    store-backed subclass shares the one on its persistent store, so there
    it lives as long as the store object does.
    """

    def __init__(self):
        self.statements = {}  # key -> payload
        self.enforce = {}  # key -> enforce expr (possibly None)
        self.hits = 0

    def clear(self):
        """Empty the level; returns how many entries it dropped."""
        dropped = len(self.statements) + len(self.enforce)
        self.statements.clear()
        self.enforce.clear()
        return dropped

    def snapshot(self):
        return {
            "statements": len(self.statements),
            "enforce": len(self.enforce),
            "hits": self.hits,
        }


class AbstractionReuse:
    """The cache.  One instance lives across the CEGAR loop; C2bp
    consults it per top-level statement (and per procedure enforce).

    Subclasses add a lower level under the in-memory one through the
    ``_level_key``/``_load``/``_save`` hooks (and their enforce twins).
    """

    def __init__(self, stats=None, level=None):
        self.level = ReuseLevel() if level is None else level
        self.stats = stats

    def _level_key(self, key):
        return key

    def _load(self, key):
        """A level miss's payload from the lower level, or None."""
        return None

    def _save(self, key, payload):
        """Write a newly stored payload through to the lower level."""

    def _load_enforce(self, key):
        return False, None

    def _save_enforce(self, key, enforce):
        pass

    # -- statements -------------------------------------------------------------

    def fetch(self, key):
        level_key = self._level_key(key)
        payload = self.level.statements.get(level_key)
        if payload is not None:
            self.level.hits += 1
        else:
            payload = self._load(key)
            if payload is None:
                if self.stats is not None:
                    self.stats.c2bp_stmts_retranslated += 1
                return None
            self.level.statements[level_key] = payload
        if self.stats is not None:
            self.stats.c2bp_stmts_reused += 1
        return {
            "stmts": clone_stmts(payload["stmts"]),
            "temps": list(payload["temps"]),
            "temp_meanings": list(payload["temp_meanings"]),
            "c2bp": dict(payload["c2bp"]),
        }

    def store(self, key, stmts, temps, temp_meanings, c2bp_counters):
        payload = {
            "stmts": clone_stmts(stmts),
            "temps": list(temps),
            "temp_meanings": list(temp_meanings),
            "c2bp": dict(c2bp_counters),
        }
        self.level.statements[self._level_key(key)] = payload
        self._save(key, payload)

    # -- enforce invariants -----------------------------------------------------

    def fetch_enforce(self, key):
        """``(hit, enforce)`` — a hit's enforce can legitimately be None
        (no inconsistent cubes), so presence must be reported separately."""
        level_key = self._level_key(key)
        if level_key in self.level.enforce:
            self.level.hits += 1
            return True, self.level.enforce[level_key]
        hit, enforce = self._load_enforce(key)
        if hit:
            self.level.enforce[level_key] = enforce
        return hit, enforce

    def store_enforce(self, key, enforce):
        self.level.enforce[self._level_key(key)] = enforce
        self._save_enforce(key, enforce)
