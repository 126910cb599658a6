"""The canonical-form theorem prover query cache.

Section 5.2 (optimization five) caches prover queries.  Historically the
cache was a private dict inside each :class:`repro.prover.Prover`, so its
benefit ended at that prover's lifetime.  Lifting it into a standalone
object makes the cache *shareable*: one :class:`QueryCache` handed to an
:class:`repro.engine.EngineContext` serves every C2bp run, every Newton
path analysis, and every CEGAR iteration of a verification task — the
bulk of iteration ``i+1``'s queries were already answered in iteration
``i``.

Keys are canonical forms: antecedents and consequents are constant-folded
and antecedent order is forgotten, so syntactically different but
structurally identical queries share an entry.
"""

from repro.cfront.exprutils import fold_constants


class QueryCache:
    """A hit/miss-counting map from canonical query keys to results."""

    _MISSING = object()

    def __init__(self):
        self._entries = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(kind, exprs, consequent=None):
        """The canonical key for a query.

        ``kind`` distinguishes query families ("implies" vs "sat");
        ``exprs`` is the iterable of antecedent/conjunct C expressions;
        ``consequent`` is the goal for implication queries.
        """
        return QueryCache.folded_key(
            kind,
            [fold_constants(e) for e in exprs],
            fold_constants(consequent) if consequent is not None else None,
        )

    @staticmethod
    def folded_key(kind, folded_exprs, folded_consequent=None):
        """:meth:`key` from parts the caller has already constant-folded
        (a cube session folds each literal once, not once per query)."""
        return (kind, frozenset(folded_exprs), folded_consequent)

    def lookup(self, key):
        """``(hit, value)`` — value is None on a miss."""
        value = self._entries.get(key, self._MISSING)
        if value is self._MISSING:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def store(self, key, value):
        self._entries[key] = value

    def clear(self):
        self._entries.clear()

    def __len__(self):
        return len(self._entries)

    def snapshot(self):
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}

    def __repr__(self):
        return "QueryCache(%r)" % (self.snapshot(),)
