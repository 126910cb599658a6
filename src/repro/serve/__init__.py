"""Verification-as-a-service: persistent caches and the ``repro serve``
daemon.

The in-process reuse machinery — the canonical-form prover query cache
(:mod:`repro.prover.cache`), the fingerprint-keyed Bebop compiled-transfer
tables (:mod:`repro.bebop.reuse`), and the reuse level with its
mod/ref-keyed statement abstraction cache (:mod:`repro.analysis.reuse`)
— dies with the process.  This package puts a content-addressed disk
tier under all three, turning per-run reuse into cross-run reuse, and
serves them to many clients from one process:

- :mod:`repro.serve.store` — the content-addressed disk store (SHA-256
  keys, sharded directories, atomic renames, versioned checksummed
  records, LRU size cap);
- :mod:`repro.serve.keys` — canonical key texts (alpha-normalized
  temporaries, order-insensitive antecedents);
- :mod:`repro.serve.provercache` / :mod:`repro.serve.abscache` /
  :mod:`repro.serve.bebopcache` — store-backed drop-ins for the three
  in-memory caches;
- :mod:`repro.serve.protocol` / :mod:`repro.serve.server` /
  :mod:`repro.serve.client` — the length-prefixed JSON protocol, the
  asyncio ``repro serve`` daemon, and the ``--remote`` client.

The store is strictly an answer cache: every wired layer is pinned (by
the fuzz oracle's ``cache-divergence`` check and the serve test tier) to
produce byte-identical boolean programs and verdicts with the cache off,
cold, or warm.
"""

from repro.serve.abscache import PersistentAbstractionReuse
from repro.serve.bebopcache import BebopTableStore
from repro.serve.keys import (
    canonical_query_text,
    enforce_store_key,
    options_fingerprint,
    procedure_store_key,
    query_store_key,
    statement_store_key,
)
from repro.serve.provercache import PersistentQueryCache
from repro.serve.store import PersistentStore, StoreRecordError

__all__ = [
    "BebopTableStore",
    "PersistentAbstractionReuse",
    "PersistentQueryCache",
    "PersistentStore",
    "StoreRecordError",
    "canonical_query_text",
    "enforce_store_key",
    "options_fingerprint",
    "procedure_store_key",
    "query_store_key",
    "statement_store_key",
]
