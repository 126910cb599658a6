"""A persistent worker pool for parallel statement abstraction.

The original ``--jobs`` implementation forked a fresh
``multiprocessing.Pool`` for every :meth:`repro.core.abstractor.C2bp.run`
and relied on fork inheritance to hand workers the parent's state.  That
meant every CEGAR iteration paid the full fork + warm-up cost again, and
(worse) the per-run pool could not carry solver state, learned theory
lemmas, or prover-cache entries from one abstraction run to the next.

:class:`StatementPool` replaces it with long-lived workers:

- workers are forked once (lazily, by the owning
  :class:`repro.engine.EngineContext`) and persist across statements and
  CEGAR iterations;
- each abstraction run re-targets them with one ``configure`` message
  carrying the pickled program, predicates, options, the precomputed
  ``enforce`` invariants (liveness anchors), and the parent's
  prover-cache *delta* since the last configure — workers keep their own
  :class:`repro.prover.cache.QueryCache` alive across configures, so
  iteration ``i+1`` starts with everything any process learned in
  iteration ``i``;
- tasks are batched onto per-worker request queues and drained from one
  shared result queue; replies carry the translated statements plus
  per-task deltas of the prover stats, new cache entries, analysis
  counters, events, and the process-wide SAT/CNF construction counters
  (:data:`repro.prover.sat.COUNTERS`, :data:`repro.prover.cnf.COUNTERS`)
  so a ``--jobs`` run reports the same truthful numbers a serial run
  does;
- shutdown is deterministic: workers ignore SIGINT (the parent drives
  teardown), ``close()`` sends stop messages, joins with a timeout, and
  terminates stragglers, and a task exception is shipped back as the
  formatted remote traceback and re-raised in the parent as
  :class:`WorkerError` after the drain completes — no zombies, no hangs.
"""

import multiprocessing
import os
import signal
import traceback

#: Cap for the auto-selected worker count.  Unmeasured: ``perfbench``
#: runs every job serially (``jobs=1``), so no benchmark in the repo
#: times the pool.  The pool's configure/serialize overhead grows with
#: the worker count while a statement batch stays small, so the cap is
#: kept at a handful of workers.
MAX_AUTO_JOBS = 4


def auto_jobs():
    """The worker count ``C2bpOptions(jobs=0)`` resolves to at
    :class:`repro.engine.EngineContext` startup: 1 on single-core hosts
    (serial in-process — keeps CI numbers identical to ``--jobs=1``),
    otherwise ``os.cpu_count()`` capped at :data:`MAX_AUTO_JOBS`."""
    count = os.cpu_count() or 1
    if count <= 1:
        return 1
    return min(count, MAX_AUTO_JOBS)


class WorkerError(Exception):
    """A worker task (or its configure) failed; carries the remote
    traceback so the parent error message shows the original failure."""

    def __init__(self, remote_traceback):
        super().__init__(
            "statement-abstraction worker failed:\n%s" % remote_traceback
        )
        self.remote_traceback = remote_traceback


def create_pool(jobs):
    """A :class:`StatementPool` with ``jobs`` workers, or ``None`` when
    the platform has no ``fork`` start method (the caller runs serially)."""
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    return StatementPool(jobs, mp_context)


class StatementPool:
    """``jobs`` forked workers answering statement-abstraction tasks."""

    def __init__(self, jobs, mp_context=None):
        if mp_context is None:
            mp_context = multiprocessing.get_context("fork")
        self.jobs = jobs
        #: How many parent-cache entries have been shipped to the workers
        #: already (maintained by the abstractor around ``configure`` so
        #: each run only sends the delta).
        self.shipped_cache_watermark = 0
        self._result_queue = mp_context.SimpleQueue()
        self._request_queues = []
        self._workers = []
        self._closed = False
        for _ in range(jobs):
            request_queue = mp_context.SimpleQueue()
            process = mp_context.Process(
                target=_worker_main,
                args=(request_queue, self._result_queue),
                daemon=True,  # never outlive the parent, even sans close()
            )
            process.start()
            self._request_queues.append(request_queue)
            self._workers.append(process)

    def configure(self, payload):
        """Broadcast the next run's inputs to every worker.

        No acknowledgement round-trip: the per-worker queues are FIFO, so
        a worker-side configure failure surfaces as a :class:`WorkerError`
        on the first :meth:`run` drain."""
        for request_queue in self._request_queues:
            request_queue.put(("configure", payload))

    def run(self, tasks):
        """Execute ``tasks`` across the pool; results come back in task
        order regardless of completion order.

        Tasks are sent as contiguous chunks, round-robin over the
        workers; every chunk produces exactly one reply message (results
        or an error), so the drain always terminates.  The first remote
        failure is re-raised as :class:`WorkerError` — after the drain,
        so the pool is left idle and reusable."""
        if not tasks:
            return []
        chunk = max(1, -(-len(tasks) // (self.jobs * 4)))
        pending = 0
        for start in range(0, len(tasks), chunk):
            worker = (start // chunk) % self.jobs
            batch = [
                (start + offset, task)
                for offset, task in enumerate(tasks[start : start + chunk])
            ]
            self._request_queues[worker].put(("tasks", batch))
            pending += 1
        results = [None] * len(tasks)
        failure = None
        while pending:
            message = self._result_queue.get()
            pending -= 1
            if message[0] == "error":
                if failure is None:
                    failure = message[1]
                continue
            for index, payload in message[1]:
                results[index] = payload
        if failure is not None:
            raise WorkerError(failure)
        return results

    def close(self):
        """Stop the workers; idempotent, never hangs (stragglers that miss
        the stop message — e.g. blocked mid-write after an interrupt —
        are terminated after a bounded join)."""
        if self._closed:
            return
        self._closed = True
        for request_queue in self._request_queues:
            try:
                request_queue.put(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._workers:
            process.join(timeout=5)
        for process in self._workers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        self._workers = []
        self._request_queues = []

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


# -- worker side ----------------------------------------------------------------


def _worker_main(request_queue, result_queue):
    """The worker loop: configure / tasks / stop."""
    # The parent drives shutdown; a ^C in the terminal must not kill
    # workers mid-protocol (the parent's close() tears them down).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    state = None
    configure_error = None
    while True:
        try:
            message = request_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "configure":
            try:
                state = _WorkerState(message[1], state)
                configure_error = None
            except BaseException:
                state = None
                configure_error = traceback.format_exc()
            continue
        # kind == "tasks"
        try:
            if state is None:
                raise WorkerError(configure_error or "worker not configured")
            replies = [
                (index, state.run_task(task)) for index, task in message[1]
            ]
            result_queue.put(("results", replies))
        except BaseException:
            try:
                result_queue.put(("error", traceback.format_exc()))
            except Exception:
                break


class _WorkerState:
    """One worker's long-lived abstraction state.

    A private :class:`repro.core.abstractor.C2bp` is rebuilt from the
    pickled inputs at every configure; the prover cache is carried over
    from the previous configure, so cube-query answers survive CEGAR
    iterations inside the worker exactly as they do in the parent."""

    def __init__(self, payload, previous):
        from repro.core.abstractor import C2bp
        from repro.engine import EngineContext

        cache = previous.cache if previous is not None else None
        # Workers open the persistent store (if the options configure one)
        # read-only: disk hits flow in, but every write reaches disk only
        # through the parent's write-through absorb of the shipped cache
        # delta — no multi-process write contention on the store.
        context = EngineContext(
            options=payload["options"], cache=cache, store_readonly=True
        )
        self.cache = context.cache
        self.store = context.store
        self.cache.absorb(payload["cache"])
        self.cache_watermark = len(self.cache)
        self.tool = C2bp(
            payload["program"], payload["predicates"], context=context
        )
        if self.tool.analysis is not None and self.tool.analysis.live_enabled:
            # The parent solved enforce pre-fork (Ω anchors the always-live
            # set); replaying compute_liveness with the shipped Ω gives the
            # worker identical liveness facts without re-running the cube
            # searches.
            for func_name, enforce in payload["enforce"].items():
                self.tool.analysis.compute_liveness(func_name, enforce)

    def run_task(self, task):
        """Translate one top-level statement (or compute one procedure's
        enforce invariant); the reply packages the translated piece plus
        every per-task accounting delta the parent merges back."""
        from repro.boolprog import ast as B
        from repro.core.abstractor import _ProcedureAbstractor
        from repro.prover import cnf as cnf_module
        from repro.prover import sat as sat_module

        tool = self.tool
        kind, func_name, index = task
        func = tool.program.functions[func_name]
        tool.prover.stats.reset()
        tool.stats.__init__()
        tool.temp_meanings.clear()
        analysis_before = (
            tool.analysis.stats.snapshot() if tool.analysis is not None else None
        )
        sat_before = dict(sat_module.COUNTERS)
        cnf_before = dict(cnf_module.COUNTERS)
        store_before = (
            self.store.counters_with_namespaces() if self.store is not None else None
        )
        events = tool.context.events
        events.events.clear()  # long-lived worker: never hit the record cap
        if kind == "stmt":
            proc_abs = _ProcedureAbstractor(
                tool, func, temp_prefix="__rw%d_" % index
            )
            stmt = func.body[index]
            translated = proc_abs._abstract_stmt(stmt)
            if stmt.labels:
                if not translated:
                    translated = [B.BSkip()]
                translated[0].labels = list(stmt.labels) + list(
                    translated[0].labels
                )
            payload = {"stmts": translated, "temps": list(proc_abs._extra_locals)}
        else:
            scope_predicates = tool.predicates.in_scope(func_name)
            payload = {
                "enforce": (
                    tool.search.enforce_expr(scope_predicates)
                    if scope_predicates
                    else None
                ),
                "temps": [],
            }
        payload["cache"] = self.cache.export_since(self.cache_watermark)
        self.cache_watermark = len(self.cache)
        payload["prover"] = tool.prover.stats.snapshot()
        payload["c2bp"] = {
            "assignments_abstracted": tool.stats.assignments_abstracted,
            "assignments_skipped_unchanged": (
                tool.stats.assignments_skipped_unchanged
            ),
            "calls_abstracted": tool.stats.calls_abstracted,
            "conditionals_abstracted": tool.stats.conditionals_abstracted,
        }
        payload["temp_meanings"] = list(tool.temp_meanings.items())
        if analysis_before is not None:
            payload["analysis"] = {
                name: value - analysis_before[name]
                for name, value in tool.analysis.stats.snapshot().items()
                if value != analysis_before[name]
            }
        else:
            payload["analysis"] = {}
        payload["events"] = list(events.events)
        if store_before is not None:
            after = self.store.counters_with_namespaces()
            delta = {
                name: after[name] - store_before[name]
                for name in self.store.COUNTER_FIELDS
                if after[name] != store_before[name]
            }
            namespaces = {}
            for namespace, counts in after["namespaces"].items():
                before = store_before["namespaces"].get(namespace, {})
                diff = {
                    field: value - before.get(field, 0)
                    for field, value in counts.items()
                    if value != before.get(field, 0)
                }
                if diff:
                    namespaces[namespace] = diff
            if namespaces:
                delta["namespaces"] = namespaces
            payload["store"] = delta
        else:
            payload["store"] = {}
        payload["construction"] = {
            "sat": {
                key: sat_module.COUNTERS[key] - sat_before[key]
                for key in sat_before
            },
            "cnf": {
                key: cnf_module.COUNTERS[key] - cnf_before[key]
                for key in cnf_before
            },
        }
        return payload
