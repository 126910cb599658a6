"""The benchmark's two workloads.

Every workload is a closed loop with one caller: the next job starts when
the previous one has returned.  A workload builds its job list in
:meth:`setup` (which also runs one untimed warm-up job), hands the
harness one round of it per :meth:`round_jobs` call, runs one job per
:meth:`execute` call, and judges each job's output in :meth:`check`
against an answer that does not come from the pipeline under test.

Each in-process job gets a fresh ``EngineContext(options=C2bpOptions(jobs=1))``.
``jobs=1`` is pinned because ``jobs=0`` resolves from the host's core
count, which would change the work itself from host to host.

Pipeline functions are called through the ``repro`` package attributes
(``repro.cegar_loop``, ...) so that the traced run's patches see them.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

import repro
from repro.cfront.interp import AssertionFailure, InterpError, Interpreter
from repro.fuzz.gen import ProgramGenerator
from repro.fuzz.oracle import SoundnessOracle, _extern_oracle
from repro.programs import all_drivers, all_table2_programs
from repro.serve.client import ServeClient
from repro.serve.protocol import ProtocolError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: CEGAR bound for every SLAM job (the Table-1 benchmark's setting).
MAX_ITERATIONS = 8

#: The fuzz oracle's interpreter step limit for concrete replays.
ORACLE_MAX_STEPS = SoundnessOracle().max_steps

LOCK = ("KeAcquireSpinLock", "KeReleaseSpinLock")
IRP = "IoCompleteRequest"
SPECS = {
    "lock": repro.SafetySpec.lock_discipline(*LOCK),
    "irp": repro.SafetySpec.complete_exactly_once(IRP),
}


def fresh_context():
    return repro.EngineContext(options=repro.C2bpOptions(jobs=1))


class Job:
    __slots__ = ("id", "kind", "label", "payload")

    def __init__(self, job_id, kind, label, payload):
        self.id = job_id
        self.kind = kind
        self.label = label
        self.payload = payload


class Workload:
    """Shared shape: in-process jobs, no helper process."""

    name = None
    why = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.jobs = []

    def round_jobs(self, index):
        """The jobs of round ``index``; every round does the same work."""
        return self.jobs

    def setup(self, traced=False):
        """Build the job list and run the warm-up; a later call starts
        over (after :meth:`close`).  ``traced`` asks a helper process to
        trace its own layers."""
        raise NotImplementedError

    def execute(self, job):
        """Run one job; returns the summary :meth:`check` judges."""
        raise NotImplementedError

    def check(self, job, summary):
        """``(correct, decided)`` for one job's summary."""
        raise NotImplementedError

    def helper_pid(self):
        """The process doing the verification work, if not this one."""
        return None

    def store_counters(self):
        """Persistent-store counters of the helper process (serve only)."""
        return {}

    def helper_trace(self):
        """``{"self_times": ..., "counts": ...}`` recorded inside the helper
        process by a traced set-up, once :meth:`close` has stopped it."""
        return None

    def close(self):
        pass


# -- cegar-generated ---------------------------------------------------------


class CegarGenerated(Workload):
    """SLAM runs from empty predicate sets: generated programs through
    ``cegar_loop`` plus the Table-1 drivers x {lock, irp} through
    ``check_property``.

    The generated cases are a fixed prefix of generator seed 0, and the
    run's seed shuffles the job order.  Per-case cost is heavy-tailed (a
    few cases take seconds, the median a few ms), so a case set drawn
    afresh per seed would make the timed work itself vary several-fold
    between seeds.  A round is 136 jobs, of which two generated cases
    take about half the time.
    """

    name = "cegar-generated"
    why = "hundreds of short SLAM jobs from empty predicate sets with a heavy tail"
    GENERATOR_SEED = 0
    CASES = 120

    def setup(self, traced=False):
        cases = ProgramGenerator(seed=self.GENERATOR_SEED).cases(self.CASES)
        # Rendered once here: FuzzCase.source re-renders on every access.
        jobs = [
            ("case", case.name, _Rendered(case.name, case.source, case.args_list,
                                          case.oracle_seeds, case.entry))
            for case in cases
        ]
        for driver in all_drivers():
            for key in ("lock", "irp"):
                jobs.append(("driver", "%s/%s" % (driver.name, key), (driver, key)))
        random.Random("cegar:%d" % self.seed).shuffle(jobs)
        self.jobs = [
            Job(index, kind, label, payload)
            for index, (kind, label, payload) in enumerate(jobs)
        ]
        warmup = Job(-1, "driver", "ioctl/lock", (all_drivers()[1], "lock"))
        summary = self.execute(warmup)
        if not self.check(warmup, summary)[0]:
            raise RuntimeError("warm-up job %s gave a wrong answer" % warmup.label)

    def execute(self, job):
        with fresh_context() as context:
            if job.kind == "case":
                case = job.payload
                program = repro.parse_c_program(case.source, case.name)
                result = repro.cegar_loop(
                    program, max_iterations=MAX_ITERATIONS, context=context
                )
            else:
                driver, key = job.payload
                result = repro.check_property(
                    driver.source,
                    SPECS[key],
                    entry=driver.entry,
                    max_iterations=MAX_ITERATIONS,
                    context=context,
                )
        return {"verdict": result.verdict}

    def check(self, job, summary):
        verdict = summary["verdict"]
        if job.kind == "driver":
            driver, key = job.payload
            return verdict == driver.expected[key], verdict in ("safe", "unsafe")
        if verdict not in ("safe", "unsafe", "unknown"):
            return False, False
        if verdict == "safe":
            return _no_concrete_failure(job.payload), True
        return True, verdict == "unsafe"


class _Rendered:
    """A generated case with its source text rendered once."""

    __slots__ = ("name", "source", "args_list", "oracle_seeds", "entry")

    def __init__(self, name, source, args_list, oracle_seeds, entry):
        self.name = name
        self.source = source
        self.args_list = args_list
        self.oracle_seeds = oracle_seeds
        self.entry = entry


def _no_concrete_failure(case):
    """A ``safe`` verdict survives every planned concrete execution of
    the case in the C interpreter, with the fuzz oracle's extern values
    and step limit."""
    program = repro.parse_c_program(case.source, case.name)
    for args in case.args_list:
        for seed in case.oracle_seeds:
            interpreter = Interpreter(
                program, extern_oracle=_extern_oracle(seed), max_steps=ORACLE_MAX_STEPS
            )
            try:
                interpreter.run(case.entry, list(args))
            except AssertionFailure:
                return False
            except InterpError:
                # Out of steps or a trap: no evidence either way.
                continue
    return True


# -- serve-edit-loop ---------------------------------------------------------


class ServeEditLoop(Workload):
    """A warm ``repro serve`` daemon with a ``--cache-dir`` store.

    Set-up starts the daemon and primes its store with a base corpus:
    the Table-1 drivers x {lock, irp} as ``slam`` requests and the two
    small Table-2 programs as ``check`` requests.  One client connection
    then sends a seeded mix of unchanged resubmissions (store reads) and
    one-procedure edits (re-abstraction of that procedure, store writes).
    An edit adds a fresh local and an assignment to it at the top of one
    procedure body, which changes no verdict.  Every round sends the same
    requests to a daemon primed afresh, so every round does the same
    reads and writes.

    ``EDIT_SHARE`` is an assumed mix, not a measured one: no edit-versus-
    resubmission ratio of real users was available.
    """

    name = "serve-edit-loop"
    why = "warm daemon round trips mixing store reads and one-procedure edits"
    JOBS = 500
    EDIT_SHARE = 0.4
    SMALL_TABLE2 = ("partition", "listfind")
    START_TIMEOUT = 60.0

    def __init__(self, seed, workdir):
        Workload.__init__(self, seed, workdir)
        self.process = None
        self.client = None
        self.daemons = 0
        self.corpus = []
        self.trace_path = None

    def setup(self, traced=False):
        self.daemons += 1
        self.corpus = _serve_corpus()
        self.trace_path = None
        if traced:
            self.trace_path = os.path.join(
                self.workdir, "daemon-trace-%d.json" % self.daemons
            )
        store = os.path.join(self.workdir, "store-%d" % self.daemons)
        # Relative to the working directory both ends share, which keeps
        # the socket path under the unix-socket length limit.
        socket_path = os.path.relpath(
            os.path.join(self.workdir, "serve-%d.sock" % self.daemons)
        )
        self._start(socket_path, store)
        for item in self.corpus:
            summary = self._submit(item, item["source"])
            if not item["check"](summary)[0]:
                raise RuntimeError("priming request %s gave a wrong answer" % item["label"])
        # Marks the end of set-up (a traced daemon records from here on).
        self.client.ping()
        self.jobs = self._plan()

    def _start(self, socket_path, store):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        log = open(os.path.join(self.workdir, "serve-%d.log" % self.daemons), "w")
        if self.trace_path is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            here = os.path.dirname(os.path.abspath(__file__))
            command = [sys.executable, os.path.join(here, "daemon.py"), self.trace_path]
        command += ["--socket", socket_path, "--cache-dir", store]
        try:
            self.process = subprocess.Popen(
                command, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        finally:
            log.close()
        deadline = time.monotonic() + self.START_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("repro serve exited with %s" % self.process.returncode)
            if os.path.exists(socket_path):
                try:
                    self.client = ServeClient.connect_unix(socket_path, timeout=120)
                    break
                except OSError:
                    pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start")
            time.sleep(0.01)
        if not self.client.ping().get("ok"):
            raise RuntimeError("repro serve did not answer ping")

    def _plan(self):
        """A seeded job list: exactly ``EDIT_SHARE`` of it edits, cycling
        through every (corpus item, procedure) pair in a shuffled order;
        the rest resubmissions cycling through the shuffled corpus."""
        rng = random.Random("serve:%d" % self.seed)
        edits = int(round(self.JOBS * self.EDIT_SHARE))
        kinds = ["edit"] * edits + ["resubmit"] * (self.JOBS - edits)
        rng.shuffle(kinds)
        targets = [(item, proc) for item in self.corpus for proc in item["procs"]]
        rng.shuffle(targets)
        items = list(self.corpus)
        rng.shuffle(items)
        jobs = []
        counts = {"edit": 0, "resubmit": 0}
        for index, kind in enumerate(kinds):
            nth = counts[kind]
            counts[kind] += 1
            if kind == "edit":
                item, proc = targets[nth % len(targets)]
                source = _edit(item["source"], proc, "%d_%d" % (self.seed, index), nth)
                label = "%s:%s" % (item["label"], proc)
            else:
                item = items[nth % len(items)]
                source = item["source"]
                label = item["label"]
            jobs.append(Job(index, kind, label, (item, source)))
        return jobs

    def round_jobs(self, index):
        # The store keys are alpha-invariant, so an edit seen in an earlier
        # round, even under new names, would be a hit.  Each later round
        # therefore starts from a freshly primed daemon, as the first did.
        if index > 0:
            self.close()
            self.setup()
        return self.jobs

    def _submit(self, item, source):
        request = dict(item["request"], source=source)
        response = self.client.request(request)
        if not response.get("ok"):
            raise RuntimeError("serve error: %s" % response.get("error"))
        return {"output": response["output"], "exit_code": response["exit_code"]}

    def execute(self, job):
        item, source = job.payload
        return self._submit(item, source)

    def check(self, job, summary):
        item, _ = job.payload
        return item["check"](summary)

    def helper_pid(self):
        return self.process.pid if self.process is not None else None

    def store_counters(self):
        stats = self.client.stats()
        return dict(stats.get("persistent_cache") or {})

    def helper_trace(self):
        if self.trace_path is None or not os.path.exists(self.trace_path):
            return None
        with open(self.trace_path) as handle:
            return json.load(handle)

    def close(self):
        if self.client is not None:
            try:
                self.client.shutdown()
            except (OSError, ProtocolError):
                pass  # the daemon is gone already; the process is reaped below
            self.client.close()
            self.client = None
        if self.process is not None:
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process = None
        for name in os.listdir(self.workdir):
            if name.startswith("store-"):
                shutil.rmtree(os.path.join(self.workdir, name), ignore_errors=True)


def _serve_corpus():
    corpus = []
    for driver in all_drivers():
        for key in ("lock", "irp"):
            request = {
                "op": "slam",
                "name": driver.name,
                "entry": driver.entry,
                "max_iterations": MAX_ITERATIONS,
                "options": {"jobs": 1},
            }
            if key == "lock":
                request["lock"] = list(LOCK)
            else:
                request["complete_once"] = IRP
            expected = driver.expected[key]
            corpus.append({
                "label": "%s/%s" % (driver.name, key),
                "source": driver.source,
                "procs": _procedures(driver.source),
                "request": request,
                "check": _verdict_check(expected),
            })
    for study in all_table2_programs():
        if study.name not in ServeEditLoop.SMALL_TABLE2:
            continue
        corpus.append({
            "label": study.name,
            "source": study.source,
            "procs": _procedures(study.source),
            "request": {
                "op": "check",
                "name": study.name,
                "entry": study.entry,
                "predicates": study.predicate_text,
                "options": {"jobs": 1},
            },
            "check": _discharged_check,
        })
    return corpus


_VERDICT = re.compile(r"^verdict: (\w+)", re.MULTILINE)


def _verdict_check(expected):
    def check(summary):
        match = _VERDICT.search(summary["output"])
        verdict = match.group(1) if match else None
        return verdict == expected, verdict in ("safe", "unsafe")

    return check


def _discharged_check(summary):
    ok = summary["exit_code"] == 0 and "all asserts discharged." in summary["output"]
    return ok, ok


def _procedures(source):
    """Names of the procedures defined in ``source`` (parsed by repro's
    front end, so only real definitions are edit targets)."""
    program = repro.parse_c_program(source)
    return [func.name for func in program.defined_functions()]


def _edit(source, proc, token, value):
    """``source`` with a fresh local assigned at the top of ``proc``."""
    match = re.search(r"\b%s\s*\([^)]*\)\s*\{" % re.escape(proc), source)
    if match is None:
        raise ValueError("no definition of %s" % proc)
    name = "bench_edit_%s" % token
    insert = "\n    int %s;\n    %s = %d;" % (name, name, value)
    return source[: match.end()] + insert + source[match.end():]


WORKLOADS = {
    workload.name: workload
    for workload in (CegarGenerated, ServeEditLoop)
}
