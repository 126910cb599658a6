"""A store-backed :class:`repro.analysis.reuse.AbstractionReuse`.

The abstraction cache is the big cross-run lever: a warm
re-verification fetches every unchanged procedure (else every unchanged
top-level statement's translated parts, and the procedure's enforce
invariant) from disk and runs zero cube searches for them.

This class adds only the disk: an engine context with a store builds it
over the context's reuse level, as it builds a plain
:class:`~repro.analysis.reuse.AbstractionReuse` without one.  A level
miss reads the record, and the level keeps the decoded payload, so in
the ``repro serve`` daemon (whose level serves every request) a repeated
procedure or statement is read from disk and decoded once.  The level
key is ``(options fingerprint, key)``; procedure and statement keys are
nested tuples of strings, ints, bools and None, equal exactly when their
``repr``s are, so a level key is equal exactly when the disk key text
(the fingerprint plus that ``repr``) is, and ablation configurations
that can legitimately translate differently share entries in neither
level.

Byte identity is inherited from the reuse assembly path: cached parts are
produced with per-statement temp prefixes and merged with the pinned
first-use renumbering, so a level hit, a disk hit and a fresh translation
print the same bytes (the fuzz oracle's ``cache-divergence`` check holds
the line).
"""

from repro.analysis.reuse import AbstractionReuse
from repro.serve.keys import (
    enforce_store_key,
    procedure_store_key,
    statement_store_key,
)

_STORE_KEYS = {
    "procedures": procedure_store_key,
    "statements": statement_store_key,
    "enforce": enforce_store_key,
}


class PersistentAbstractionReuse(AbstractionReuse):
    """Procedure/statement/enforce reuse through the level, then the
    store's disk."""

    def __init__(self, disk, level, options, stats=None):
        super().__init__(level, options, stats=stats)
        self.disk = disk

    def _load(self, memo, key):
        # A freshly unpickled payload is nobody else's: the level keeps it.
        hit, stored = self.disk.get(_STORE_KEYS[memo](key, self.options))
        if hit and memo == "enforce":
            # Wrapped so that a legitimate None enforce (no inconsistent
            # cubes) is a record too.
            stored = stored["enforce"]
        return hit, stored

    def _save(self, memo, key, payload):
        if memo == "enforce":
            payload = {"enforce": payload}
        self.disk.put(_STORE_KEYS[memo](key, self.options), payload)
