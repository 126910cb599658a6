"""A store-backed :class:`repro.prover.cache.QueryCache`.

Drop-in for the in-memory cache on the :class:`repro.engine.EngineContext`
spine: lookups fall through to the disk store on an in-memory miss (a
disk hit is promoted into the in-memory dict), and every store writes
through, so answers survive the process and are shared across runs,
configurations, and serve clients.
"""

from repro.prover.cache import QueryCache
from repro.serve.keys import query_store_key


class PersistentQueryCache(QueryCache):
    """The canonical-form query cache with a disk second level.

    The disk store rides on ``self.disk`` (``store`` would shadow the
    inherited :meth:`QueryCache.store` mutator every caller uses).
    """

    def __init__(self, disk):
        super().__init__()
        self.disk = disk
        self.disk_hits = 0
        self._key_texts = {}  # in-memory key -> canonical store key text

    def _key_text(self, key):
        text = self._key_texts.get(key)
        if text is None:
            text = query_store_key(key)
            self._key_texts[key] = text
        return text

    def lookup(self, key):
        value = self._entries.get(key, self._MISSING)
        if value is not self._MISSING:
            self.hits += 1
            return True, value
        hit, value = self.disk.get(self._key_text(key))
        if hit:
            # Promote to memory so future lookups see it like any locally
            # computed answer.
            self._entries[key] = value
            self.hits += 1
            self.disk_hits += 1
            return True, value
        self.misses += 1
        return False, None

    def store(self, key, value):
        self._entries[key] = value
        self.disk.put(self._key_text(key), value)

    def snapshot(self):
        out = super().snapshot()
        out["disk_hits"] = self.disk_hits
        return out
