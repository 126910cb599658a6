"""A store-backed :class:`repro.analysis.reuse.AbstractionReuse`.

The statement-abstraction cache is the big cross-run lever: a warm
re-verification fetches every unchanged top-level statement's translated
parts (and every procedure's enforce invariant) from disk and runs zero
cube searches for them.

This class adds only the disk: an engine context with a store builds it
over the context's reuse level, as it builds a plain
:class:`~repro.analysis.reuse.AbstractionReuse` without one.  A level
miss reads the record, and the level keeps the decoded payload, so in
the ``repro serve`` daemon (whose level serves every request) a repeated
statement is read from disk and decoded once.  The level key is
``(options fingerprint, statement key)``; statement keys are nested
tuples of strings and ints, equal exactly when their ``repr``s are, so a
level key is equal exactly when the disk key text (the fingerprint plus
that ``repr``) is, and ablation configurations that can legitimately
translate differently share entries in neither level.

Byte identity is inherited from the reuse assembly path: cached parts are
produced with per-statement temp prefixes and merged with the pinned
first-use renumbering, so a level hit, a disk hit and a fresh translation
print the same bytes (the fuzz oracle's ``cache-divergence`` check holds
the line).
"""

from repro.analysis.reuse import AbstractionReuse
from repro.serve.keys import enforce_store_key, statement_store_key


class PersistentAbstractionReuse(AbstractionReuse):
    """Statement/enforce reuse through the level, then the store's disk."""

    def __init__(self, disk, level, options, stats=None):
        super().__init__(level, options, stats=stats)
        self.disk = disk

    def _load(self, key):
        hit, stored = self.disk.get(statement_store_key(key, self.options))
        # A freshly unpickled payload is nobody else's: the level keeps it.
        return stored if hit else None

    def _save(self, key, payload):
        self.disk.put(statement_store_key(key, self.options), payload)

    def _load_enforce(self, key):
        hit, stored = self.disk.get(enforce_store_key(key, self.options))
        # ``stored`` wraps the expression so a legitimate None enforce
        # (no inconsistent cubes) still reads as a hit.
        return (True, stored["enforce"]) if hit else (False, None)

    def _save_enforce(self, key, enforce):
        self.disk.put(enforce_store_key(key, self.options), {"enforce": enforce})
