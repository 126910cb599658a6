"""The content-addressed persistent store.

Layout: ``<root>/<shard>/<digest>.rec`` where ``digest`` is the SHA-256
of the record's canonical key text and ``shard`` its first two hex
digits.  Each record is self-verifying::

    MAGIC (4 bytes) | version (1 byte) | SHA-256 payload checksum (32)
    | payload = pickle((key_text, value))

Writes go to a same-directory temp file then ``os.replace`` — readers
never observe a torn record; concurrent writers of the same key race
benignly (both write the same deterministic answer).  A checksum or
unpickling failure is *detection, not propagation*: the record is deleted,
counted under ``cache_corrupt_records``, and reported as a miss, so a
flipped bit on disk can cost wall-clock but never an answer.

The store enforces an LRU byte cap (``max_bytes``): record files carry
their access recency in mtime (touched on hit), and a put that pushes the
total past the cap evicts oldest-first down to 90% of the cap.
"""

import hashlib
import os
import pickle
import tempfile

from repro.analysis.reuse import ReuseLevel

_MAGIC = b"RPCS"
_RECORD_VERSION = 1
_HEADER_LEN = len(_MAGIC) + 1 + 32

#: Fraction of ``max_bytes`` eviction shrinks to (hysteresis, so one
#: oversized put does not trigger an eviction scan per subsequent put).
_EVICT_TARGET = 0.9


class StoreRecordError(Exception):
    """A record failed verification (bad magic/version/checksum/pickle)."""


def encode_record(key_text, value):
    """The on-disk bytes for one record."""
    payload = pickle.dumps((key_text, value), protocol=pickle.HIGHEST_PROTOCOL)
    checksum = hashlib.sha256(payload).digest()
    return _MAGIC + bytes([_RECORD_VERSION]) + checksum + payload


def decode_record(blob):
    """``(key_text, value)`` from record bytes; :class:`StoreRecordError`
    on any verification failure."""
    if len(blob) < _HEADER_LEN or not blob.startswith(_MAGIC):
        raise StoreRecordError("bad magic or truncated header")
    if blob[len(_MAGIC)] != _RECORD_VERSION:
        raise StoreRecordError("unsupported record version %d" % blob[len(_MAGIC)])
    checksum = blob[len(_MAGIC) + 1 : _HEADER_LEN]
    payload = blob[_HEADER_LEN:]
    if hashlib.sha256(payload).digest() != checksum:
        raise StoreRecordError("payload checksum mismatch")
    try:
        key_text, value = pickle.loads(payload)
    except Exception as error:
        raise StoreRecordError("payload does not unpickle: %s" % error)
    return key_text, value


class PersistentStore:
    """A sharded, size-capped, self-verifying record store."""

    #: Counter names surfaced by :meth:`snapshot`.
    COUNTER_FIELDS = (
        "hits",
        "misses",
        "writes",
        "write_skips",
        "evictions",
        "bytes_read",
        "bytes_written",
        "bytes_evicted",
        "cache_corrupt_records",
    )

    def __init__(self, root, max_bytes=None):
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        self._total_bytes = None  # lazy: scanned on first capped put
        self._namespace_counts = {}  # namespace -> {"hits": n, "misses": n}
        #: Decoded statement/enforce payloads above the disk
        #: (:mod:`repro.serve.abscache`), the program memo and Bebop's
        #: answers, kept for this object's lifetime.
        self.reuse_level = ReuseLevel()
        for name in self.COUNTER_FIELDS:
            setattr(self, name, 0)
        os.makedirs(self.root, exist_ok=True)

    # -- paths -----------------------------------------------------------------

    @staticmethod
    def digest(key_text):
        return hashlib.sha256(key_text.encode("utf-8")).hexdigest()

    def _path(self, key_text):
        digest = self.digest(key_text)
        return os.path.join(self.root, digest[:2], digest + ".rec")

    @staticmethod
    def _namespace(key_text):
        return key_text.split("|", 1)[0]

    def _count_namespace(self, key_text, field):
        entry = self._namespace_counts.setdefault(
            self._namespace(key_text), {"hits": 0, "misses": 0}
        )
        entry[field] += 1

    # -- record access ---------------------------------------------------------

    def get(self, key_text):
        """``(hit, value)``; corrupt records are deleted and miss."""
        path = self._path(key_text)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            self.misses += 1
            self._count_namespace(key_text, "misses")
            return False, None
        except OSError:
            self.misses += 1
            self._count_namespace(key_text, "misses")
            return False, None
        try:
            stored_key, value = decode_record(blob)
            if stored_key != key_text:
                raise StoreRecordError("key text mismatch (digest collision?)")
        except StoreRecordError:
            self.cache_corrupt_records += 1
            self.misses += 1
            self._count_namespace(key_text, "misses")
            self._remove(path)
            return False, None
        self.hits += 1
        self.bytes_read += len(blob)
        self._count_namespace(key_text, "hits")
        try:  # refresh LRU recency; best-effort (read-only mounts etc.)
            os.utime(path)
        except OSError:
            pass
        return True, value

    def contains(self, key_text):
        return os.path.exists(self._path(key_text))

    def put(self, key_text, value, overwrite=False):
        """Write one record atomically; a no-op (unless ``overwrite``) when
        the record already exists — answers are deterministic, so the
        first write wins and rewrites are waste."""
        path = self._path(key_text)
        if not overwrite and os.path.exists(path):
            self.write_skips += 1
            return False
        blob = encode_record(key_text, value)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.writes += 1
        self.bytes_written += len(blob)
        if self._total_bytes is not None:
            self._total_bytes += len(blob)
        if self.max_bytes is not None:
            self._maybe_evict()
        return True

    def _remove(self, path):
        try:
            size = os.path.getsize(path)
            os.unlink(path)
        except OSError:
            return 0
        if self._total_bytes is not None:
            self._total_bytes = max(0, self._total_bytes - size)
        return size

    # -- size accounting and LRU eviction --------------------------------------

    def _scan(self):
        """``[(mtime, size, path)]`` for every record file."""
        records = []
        try:
            shards = os.scandir(self.root)
        except OSError:
            return records
        with shards:
            for shard in shards:
                if not shard.is_dir():
                    continue
                try:
                    entries = os.scandir(shard.path)
                except OSError:
                    continue
                with entries:
                    for entry in entries:
                        if not entry.name.endswith(".rec"):
                            continue
                        try:
                            stat = entry.stat()
                        except OSError:
                            continue
                        records.append((stat.st_mtime, stat.st_size, entry.path))
        return records

    def total_bytes(self):
        if self._total_bytes is None:
            self._total_bytes = sum(size for _, size, _ in self._scan())
        return self._total_bytes

    def _maybe_evict(self):
        if self.total_bytes() <= self.max_bytes:
            return
        target = int(self.max_bytes * _EVICT_TARGET)
        for _, size, path in sorted(self._scan()):
            if self._total_bytes <= target:
                break
            removed = self._remove(path)
            if removed:
                self.evictions += 1
                self.bytes_evicted += removed

    def clear(self):
        """Delete every record (``flush`` with ``disk=true``)."""
        removed = 0
        for _, _, path in self._scan():
            if self._remove(path):
                removed += 1
        self._total_bytes = 0
        return removed

    # -- stats -----------------------------------------------------------------

    def counters(self):
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def counters_with_namespaces(self):
        out = self.counters()
        out["namespaces"] = {
            name: dict(entry) for name, entry in self._namespace_counts.items()
        }
        return out

    def snapshot(self):
        out = self.counters()
        out["namespaces"] = {
            name: dict(entry)
            for name, entry in sorted(self._namespace_counts.items())
        }
        out["root"] = self.root
        out["max_bytes"] = self.max_bytes
        out["reuse_level"] = self.reuse_level.snapshot()
        return out

    def close(self):
        """Nothing buffered — provided for symmetric lifecycle wiring."""

    def __repr__(self):
        return "PersistentStore(%r, hits=%d, misses=%d, writes=%d)" % (
            self.root,
            self.hits,
            self.misses,
            self.writes,
        )
