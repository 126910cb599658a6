"""The ``repro serve`` daemon: verification as a service.

One long-lived process holds the expensive state every one-shot CLI run
rebuilds from scratch — the warm in-memory prover cache, the reuse level
(:class:`repro.analysis.reuse.ReuseLevel`) and, with ``--cache-dir``, the
content-addressed :class:`PersistentStore` under that level — and
answers ``abstract``/``check``/``slam`` requests over a unix socket
(optionally also TCP).  Requests arrive as length-prefixed JSON frames
(:mod:`repro.serve.protocol`); a frame holding a JSON list is a batch
answered positionally in one reply frame.

Each verification request runs the *same* subcommand core the CLI runs
(:func:`repro.cli.run_abstract` and friends) into a string buffer, inside
a per-request :class:`~repro.engine.EngineContext` that shares the
daemon's caches — so ``--remote`` output is byte-identical to a local
run, warm caches aside.  Compute is serialized through a single worker
thread: concurrent clients multiplex on the event loop (connects, frame
parsing, control ops stay responsive) while verification jobs queue.

The warm state -- the prover cache and the reuse level, with its
statement parts, its memo of lowered programs with their analyses and
its memo of Bebop's answers -- outlives every request, with or without
a store, so after each compute request the
daemon collects the request's garbage and freezes what survives
(:func:`gc.freeze`): later full collections scan only the objects
younger than that, not the whole warm heap.
This module alone decides when to thaw (:func:`gc.unfreeze`): ``flush``
thaws before it drops the warm state, so the next request's collection
reclaims it, and a request during which the reuse level counted
an eviction (a program, or a memoized program's per-predicate-set
analyses) thaws before its own collection.

Control ops: ``ping``, ``stats`` (server counters, per-op compute times,
the compute-queue depth, cache and reuse-level snapshots, collector
state), ``flush`` (drop the warm in-memory caches -- the prover cache and
the procedure/statement/enforce/program/Bebop-answer level -- and keep
the disk store), and
``shutdown`` (reply, then exit cleanly).
"""

import asyncio
import concurrent.futures
import dataclasses
import gc
import io
import json
import os
import threading
import time

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    read_message,
    write_message,
)

#: Ops answered inline on the event loop.
_CONTROL_OPS = ("ping", "stats", "flush", "shutdown")

#: Ops that run a verification pipeline (on the compute thread).
_COMPUTE_OPS = ("abstract", "check", "slam")


def _error(op, message):
    return {"ok": False, "op": op, "protocol": PROTOCOL_VERSION, "error": message}


class ReproServer:
    """State and request handlers for one daemon instance."""

    def __init__(
        self, socket_path=None, tcp=None, cache_dir=None, cache_max_bytes=None
    ):
        self.socket_path = socket_path
        self.tcp = tcp  # "HOST:PORT" or None
        self.cache_dir = cache_dir
        self.store = None
        if cache_dir:
            from repro.serve.store import PersistentStore

            self.store = PersistentStore(cache_dir, max_bytes=cache_max_bytes)
        # One reuse level for every request, the store's if there is one.
        from repro.analysis.reuse import ReuseLevel

        self.reuse_level = (
            self.store.reuse_level if self.store is not None else ReuseLevel()
        )
        self.cache = self._fresh_cache()
        self.requests = 0
        self.op_counts = {}
        # op -> {"requests", "total_s", "max_s"}: written by the compute
        # thread, read by ``stats`` on the event loop, under the lock.
        self.compute_times = {}
        self._compute_times_lock = threading.Lock()
        self.queue_depth = 0  # compute requests submitted, not yet answered
        self.queue_peak = 0
        self.flushes = 0
        self._executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        self._stop = None  # asyncio.Event, created inside the loop

    def _fresh_cache(self):
        if self.store is not None:
            from repro.serve.provercache import PersistentQueryCache

            return PersistentQueryCache(self.store)
        from repro.prover.cache import QueryCache

        return QueryCache()

    # -- request dispatch ---------------------------------------------------

    async def respond(self, message):
        """One frame in, one frame out (a list request gets a list reply)."""
        if isinstance(message, list):
            return [await self._respond_one(item) for item in message]
        return await self._respond_one(message)

    async def _respond_one(self, request):
        if not isinstance(request, dict) or "op" not in request:
            return _error("?", "request must be an object with an 'op'")
        op = request["op"]
        self.requests += 1
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if op in _CONTROL_OPS:
            return getattr(self, "_op_" + op)(request)
        if op in _COMPUTE_OPS:
            loop = asyncio.get_running_loop()
            self.queue_depth += 1
            self.queue_peak = max(self.queue_peak, self.queue_depth)
            try:
                return await loop.run_in_executor(
                    self._executor, self._run_job, request
                )
            finally:
                self.queue_depth -= 1
        return _error(op, "unknown op %r" % op)

    # -- control ops --------------------------------------------------------

    def _op_ping(self, request):
        return {"ok": True, "op": "ping", "protocol": PROTOCOL_VERSION}

    def _op_stats(self, request):
        return {
            "ok": True,
            "op": "stats",
            "protocol": PROTOCOL_VERSION,
            "requests": self.requests,
            "ops": dict(self.op_counts),
            "compute": self._compute_snapshot(),
            "queue": {"depth": self.queue_depth, "peak": self.queue_peak},
            "flushes": self.flushes,
            "prover_cache": self.cache.snapshot(),
            "reuse_level": self.reuse_level.snapshot(),
            "persistent_cache": (
                self.store.snapshot() if self.store is not None else None
            ),
            "gc": {
                "frozen": gc.get_freeze_count(),
                "collections": [
                    generation["collections"] for generation in gc.get_stats()
                ],
            },
        }

    def _op_flush(self, request):
        """Drop the warm in-memory caches; the disk store stays intact (a
        later request re-promotes from it)."""
        # Thaw the warm heap, so the next request's collection reclaims
        # what this drops.
        gc.unfreeze()
        dropped = self.cache.snapshot().get("entries", 0)
        self.cache = self._fresh_cache()
        dropped += self.reuse_level.clear()
        self.flushes += 1
        return {"ok": True, "op": "flush", "entries_dropped": dropped}

    def _op_shutdown(self, request):
        if self._stop is not None:
            self._stop.set()
        return {"ok": True, "op": "shutdown"}

    # -- compute ops (single worker thread) ---------------------------------

    def _request_options(self, fields):
        """Client option fields -> this request's :class:`C2bpOptions`.

        Unknown keys are dropped (newer clients degrade gracefully), and
        the cache wiring is forced to the daemon's own store.  An invalid
        value (``jobs`` other than 1) raises, which fails the request.
        """
        from repro.core.options import C2bpOptions

        known = {field.name for field in dataclasses.fields(C2bpOptions)}
        kwargs = {k: v for k, v in dict(fields or {}).items() if k in known}
        options = C2bpOptions(**kwargs)
        options.cache_dir = None
        options.cache_max_bytes = None
        return options

    def _run_job(self, request):
        op = request["op"]
        started = time.perf_counter()
        evictions = self.reuse_level.program_evictions
        try:
            return self._run_job_inner(op, request)
        except Exception as exc:  # a bad program must not kill the daemon
            return _error(op, "%s: %s" % (type(exc).__name__, exc))
        finally:
            # The request's garbage goes now; what survives joins the
            # frozen warm heap that later collections skip.  Memo entries
            # evicted during the request may sit in that heap, so thaw it
            # first and this collection reclaims them too.
            if self.reuse_level.program_evictions != evictions:
                gc.unfreeze()
            gc.collect()
            gc.freeze()
            seconds = time.perf_counter() - started
            with self._compute_times_lock:
                entry = self.compute_times.setdefault(
                    op, {"requests": 0, "total_s": 0.0, "max_s": 0.0}
                )
                entry["requests"] += 1
                entry["total_s"] += seconds
                entry["max_s"] = max(entry["max_s"], seconds)

    def _compute_snapshot(self):
        with self._compute_times_lock:
            return {op: dict(entry) for op, entry in self.compute_times.items()}

    def _run_job_inner(self, op, request):
        from repro.cli import run_abstract, run_check, run_slam
        from repro.engine import EngineContext

        options = self._request_options(request.get("options"))
        out = io.StringIO()
        context = EngineContext(
            options=options, cache=self.cache, store=self.store,
            reuse_level=self.reuse_level,
        )
        try:
            name = request.get("name", "<remote>")
            if op == "abstract":
                code = run_abstract(
                    context, request["source"], request["predicates"], out,
                    name=name,
                )
            elif op == "check":
                code = run_check(
                    context, request["source"], request["predicates"], out,
                    name=name,
                    entry=request.get("entry", "main"),
                    labels=request.get("labels") or (),
                )
            else:  # slam
                spec = self._slam_spec(request)
                code = run_slam(
                    context, request["source"], spec, out,
                    entry=request.get("entry", "main"),
                    max_iterations=request.get("max_iterations", 10),
                )
            response = {
                "ok": True,
                "op": op,
                "protocol": PROTOCOL_VERSION,
                "exit_code": code,
                "output": out.getvalue(),
            }
            # Round-trip through the registries' own JSON encoders so the
            # remote files match local --stats-json/--trace-json output.
            if request.get("want_stats"):
                response["stats"] = json.loads(context.stats.to_json())
            if request.get("want_trace"):
                response["trace"] = json.loads(context.events.to_json())
            return response
        finally:
            context.close()

    def _slam_spec(self, request):
        from repro.slam import SafetySpec

        if request.get("lock"):
            acquire, release = request["lock"]
            return SafetySpec.lock_discipline(acquire, release)
        if request.get("complete_once"):
            return SafetySpec.complete_exactly_once(request["complete_once"])
        raise ValueError("slam request needs 'lock' or 'complete_once'")

    # -- connection + lifecycle ---------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    await write_message(writer, _error("?", str(exc)))
                    break
                if message is None:
                    break
                await write_message(writer, await self.respond(message))
                if self._stop is not None and self._stop.is_set():
                    break
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def serve(self, ready=None):
        """Listen until a ``shutdown`` request (or cancellation)."""
        self._stop = asyncio.Event()
        servers = []
        endpoints = []
        try:
            if self.socket_path:
                servers.append(
                    await asyncio.start_unix_server(
                        self._handle_connection, path=self.socket_path
                    )
                )
                endpoints.append("unix:%s" % self.socket_path)
            if self.tcp:
                host, _, port = self.tcp.rpartition(":")
                servers.append(
                    await asyncio.start_server(
                        self._handle_connection, host=host or "127.0.0.1",
                        port=int(port),
                    )
                )
                endpoints.append("tcp:%s" % self.tcp)
            if not servers:
                raise ValueError("serve needs a --socket path or --tcp address")
            if ready is not None:
                ready(endpoints)
            await self._stop.wait()
        finally:
            for server in servers:
                server.close()
                await server.wait_closed()
            self._executor.shutdown(wait=True)
            gc.unfreeze()  # an in-process server leaves its host's heap thawed
            if self.socket_path and os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            if self.store is not None:
                self.store.close()


def run_server(server, out=None):
    """Blocking entry point for the ``repro serve`` subcommand."""

    def ready(endpoints):
        if out is not None:
            out.write("repro serve: listening on %s\n" % ", ".join(endpoints))
            try:
                out.flush()
            except (AttributeError, ValueError):
                pass

    try:
        asyncio.run(server.serve(ready=ready))
    except KeyboardInterrupt:
        pass
    if out is not None:
        out.write("repro serve: stopped after %d request(s)\n" % server.requests)
    return 0
