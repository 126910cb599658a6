"""A store-backed :class:`repro.analysis.reuse.AbstractionReuse`.

The statement-abstraction cache is the big cross-run lever: a warm
re-verification fetches every unchanged top-level statement's translated
parts (and every procedure's enforce invariant) from disk and runs zero
cube searches for them.

The in-memory level above the disk is the one on the
:class:`~repro.serve.store.PersistentStore` object, so it lasts as long as
the store does: in the ``repro serve`` daemon that is every request, not
one CEGAR loop, and a repeated statement is read from disk and decoded
once.  The level is keyed by ``(options fingerprint, statement key)``.
Statement keys are nested tuples of strings and ints, equal exactly when
their ``repr``s are, so a level key is equal exactly when the disk key
text (the fingerprint plus that ``repr``) is, and ablation configurations
that can legitimately translate differently share entries in neither
level.  The daemon's ``flush`` empties the level.

Byte identity is inherited from the reuse assembly path: cached parts are
produced with per-statement temp prefixes and merged with the pinned
first-use renumbering, so a level hit, a disk hit and a fresh translation
print the same bytes (the fuzz oracle's ``cache-divergence`` check holds
the line).
"""

from repro.analysis.reuse import AbstractionReuse
from repro.serve.keys import (
    enforce_store_key,
    options_fingerprint,
    statement_store_key,
)


class PersistentAbstractionReuse(AbstractionReuse):
    """Statement/enforce reuse through the store's level, then its disk."""

    def __init__(self, disk, options, stats=None):
        super().__init__(stats=stats, level=disk.reuse_level)
        self.disk = disk
        self.options = options

    def _level_key(self, key):
        return (options_fingerprint(self.options), key)

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
