"""Run one workload: set up, time rounds of the job list, check every
answer, and assemble the end-to-end or per-layer metrics.

An untraced run repeats the workload's job list in rounds for about
``--seconds`` and reports the end-to-end metrics: ``wall_s`` and
``cpu_s`` per round, averaged over the rounds, and job-latency
percentiles over every job of every round.

A traced run executes round 0 twice, first untraced and then under the
:class:`tracing.Tracer`, and reports the per-layer metrics, with
``trace.overhead_ratio`` the traced over the untraced wall time.
"""

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Imported here, not lazily by the CEGAR stall fallback, so that the
# traced run finds ``run_bmc`` in ``repro.bmc`` when it patches.
import repro.bmc  # noqa: F401

import tracing
import workloads

#: Cold set-ups per untraced run, each in a fresh process from its start
#: to the first timed job; ``setup_s`` takes their median.
SETUP_SAMPLES = 3

#: Seconds a cold set-up in a child process may take.
SETUP_TIMEOUT = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("decided_ratio", "ratio"),
)

PER_LAYER = (
    ("cfront.self_s", "s"),
    ("cfront.calls", "count"),
    ("pointers.self_s", "s"),
    ("analysis.self_s", "s"),
    ("analysis.discharge_calls", "count"),
    ("analysis.discharge_ratio", "ratio"),
    ("analysis.stmts_reused", "count"),
    ("analysis.stmts_retranslated", "count"),
    ("core.self_s", "s"),
    ("core.prover_queries", "count"),
    ("prover.self_s", "s"),
    ("prover.calls", "count"),
    ("prover.queries", "count"),
    ("prover.cache_hit_ratio", "ratio"),
    ("prover.allsat_models", "count"),
    ("prover.theory_delta_queries", "count"),
    ("prover.generalize_s", "s"),
    ("prover.theory_fallback_s", "s"),
    ("bebop.self_s", "s"),
    ("bebop.worklist_steps", "count"),
    ("bebop.transfers_reused", "count"),
    ("bdd.ite_calls", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("newton.self_s", "s"),
    ("newton.calls", "count"),
    ("newton.refine_ratio", "ratio"),
    ("bmc.self_s", "s"),
    ("bmc.calls", "count"),
    ("slam.self_s", "s"),
    ("slam.iterations", "count"),
    ("serve.request_s", "s"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.store_writes", "count"),
    ("serve.store_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def host_probe():
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic,
    neither gated nor used to rescale anything."""
    started = time.perf_counter()
    acc = 0
    for index in range(3_000_000):
        acc = (acc * 31 + index) & 0xFFFF
    return time.perf_counter() - started


def percentile(values, fraction):
    """Nearest-rank percentile: always one of the measured values."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def _proc_cpu_seconds(pid):
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rpartition(")")[2].split()
    # utime and stime are fields 14 and 15 of the full line.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %d" % pid)


def _cpu_seconds(workload):
    """CPU seconds of this process, its reaped children and the helper."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    pid = workload.helper_pid()
    if pid is not None:
        total += _proc_cpu_seconds(pid)
    return total


class Phase:
    """One round over the workload's job list."""

    def __init__(self):
        self.latencies = []
        self.outcomes = []  # (job, summary, error)
        self.wall = 0.0
        self.cpu = 0.0


def run_phase(workload, round_index, tracer=None):
    phase = Phase()
    jobs = workload.round_jobs(round_index)
    cpu_before = _cpu_seconds(workload)
    started = time.perf_counter()
    for job in jobs:
        span = tracer.begin_job(job.id) if tracer is not None else None
        job_started = time.perf_counter()
        summary = error = None
        try:
            summary = workload.execute(job)
        except Exception as exc:  # a crashed job is a failed job
            error = "%s: %s" % (type(exc).__name__, exc)
        phase.latencies.append(time.perf_counter() - job_started)
        if tracer is not None:
            tracer.end_job(span)
        phase.outcomes.append((job, summary, error))
    phase.wall = time.perf_counter() - started
    phase.cpu = _cpu_seconds(workload) - cpu_before
    return phase


def check_phase(workload, phase):
    """(failed, decided) counts over a phase's jobs; every job counts."""
    failed = decided = 0
    for job, summary, error in phase.outcomes:
        if error is not None:
            failed += 1
            continue
        try:
            correct, job_decided = workload.check(job, summary)
        except Exception:  # a check that cannot run counts the job failed
            correct, job_decided = False, False
        failed += not correct
        decided += bool(job_decided)
    return failed, decided


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, untraced, traced, store_delta, helper):
    counts = dict(tracer.counts)
    self_times = tracer.self_times()
    if helper is not None:
        # Layers that ran inside the helper process (the serve daemon).
        for layer, seconds in helper["self_times"].items():
            self_times[layer] = self_times.get(layer, 0.0) + seconds
        for name, amount in helper["counts"].items():
            counts[name] = counts.get(name, 0) + amount
    values = {}
    for layer in tracing.LAYERS:
        values[layer + ".self_s"] = self_times.get(layer, 0.0)
    values["cfront.calls"] = counts.get("parse_c_program", 0)
    values["analysis.discharge_calls"] = counts.get("IntervalDischarger.decide", 0)
    values["analysis.discharge_ratio"] = _ratio(
        counts.get("discharged", 0), counts.get("IntervalDischarger.decide", 0)
    )
    values["analysis.stmts_reused"] = counts.get("analysis.c2bp_stmts_reused", 0)
    values["analysis.stmts_retranslated"] = counts.get(
        "analysis.c2bp_stmts_retranslated", 0
    )
    values["core.prover_queries"] = counts.get("c2bp_prover_queries", 0)
    for field in ("calls", "queries", "allsat_models", "theory_delta_queries",
                  "generalize_s", "theory_fallback_s"):
        values["prover." + field] = counts.get("prover." + field, 0)
    values["prover.cache_hit_ratio"] = _ratio(
        counts.get("prover.cache_hits", 0), counts.get("prover.queries", 0)
    )
    values["bebop.worklist_steps"] = counts.get("worklist_steps", 0)
    values["bebop.transfers_reused"] = counts.get("transfers_reused", 0)
    values["bdd.ite_calls"] = counts.get("bdd.ite_calls", 0)
    values["bdd.cache_hit_rate"] = _ratio(
        counts.get("bdd.cache_hits", 0), counts.get("bdd.cache_lookups", 0)
    )
    values["newton.calls"] = counts.get("analyze_path", 0)
    values["newton.refine_ratio"] = _ratio(
        counts.get("newton_refined", 0), counts.get("analyze_path", 0)
    )
    values["bmc.calls"] = counts.get("run_bmc", 0)
    values["slam.iterations"] = counts.get("iterations", 0)
    values["serve.request_s"] = self_times.get("serve", 0.0)
    values["serve.store_hit_ratio"] = _ratio(
        store_delta.get("hits", 0),
        store_delta.get("hits", 0) + store_delta.get("misses", 0),
    )
    values["serve.store_writes"] = store_delta.get("writes", 0)
    values["serve.store_bytes"] = store_delta.get("bytes_written", 0)
    values["trace.overhead_ratio"] = _ratio(traced.wall, untraced.wall)
    return values


def run_rounds(workload, seconds):
    """Untraced rounds until the timed work is as close to ``seconds`` as
    whole rounds get, judged by the mean round so far; at least one."""
    rounds = []
    timed = 0.0
    while not rounds or timed + timed / len(rounds) / 2 <= seconds:
        rounds.append(run_phase(workload, len(rounds)))
        timed += rounds[-1].wall
    return rounds


def _store_delta(before, after):
    return {key: after.get(key, 0) - before.get(key, 0)
            for key in ("hits", "misses", "writes", "bytes_written")}


def run(name, seed, seconds, trace, started, workdir):
    """Run workload ``name``; returns ``(result_line, diagnostics, spans)``.

    ``started`` is the ``perf_counter`` reading taken when the process
    began, so ``setup_s`` includes imports, lazy first-use costs and the
    workload's set-up.
    """
    workload = workloads.WORKLOADS[name](seed, workdir)
    tracer = None
    try:
        workload.setup()
        setup_samples = [time.perf_counter() - started]
        probe_before = host_probe()
        if trace:
            rounds = [run_phase(workload, 0)]
            # The traced round gets fresh state too: for serve, a new daemon
            # primed the same way, so its edits are misses again.
            workload.close()
            workload.setup(traced=True)
            tracer = tracing.Tracer()
            store_before = workload.store_counters()
            with tracer:
                traced = run_phase(workload, 0, tracer)
            store_delta = _store_delta(store_before, workload.store_counters())
            phases = rounds + [traced]
        else:
            rounds = run_rounds(workload, seconds)
            phases = rounds
        peak_rss_mb = _peak_rss_mb(workload)
    finally:
        workload.close()
    helper = workload.helper_trace()
    if not trace:
        setup_samples += [cold_setup(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    probe_after = host_probe()

    attempted = failed = decided = 0
    for phase in phases:
        phase_failed, phase_decided = check_phase(workload, phase)
        attempted += len(phase.outcomes)
        failed += phase_failed
        decided += phase_decided
    if trace:
        values = layer_metrics(tracer, rounds[0], traced, store_delta, helper)
        units = PER_LAYER
    else:
        latencies = [latency for phase in rounds for latency in phase.latencies]
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.mean(phase.wall for phase in rounds),
            "cpu_s": statistics.mean(phase.cpu for phase in rounds),
            "peak_rss_mb": peak_rss_mb,
            "job_p50_s": percentile(latencies, 0.5),
            "job_p90_s": percentile(latencies, 0.9),
            "decided_ratio": _ratio(decided, attempted),
        }
        units = END_TO_END
    metrics = {
        metric: {"value": values[metric], "unit": unit} for metric, unit in units
    }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    diagnostics = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "host_probe_before_s": probe_before,
        "host_probe_after_s": probe_after,
        "setup_samples_s": setup_samples,
        "round_walls_s": [phase.wall for phase in rounds],
        "jobs_per_round": len(rounds[0].outcomes),
    }
    spans = tracer.spans if tracer is not None else None
    return line, diagnostics, spans


def setup_only(name, seed, started, workdir):
    """Seconds from ``started`` until ``name`` is ready for its first job."""
    workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        workload.setup()
        return time.perf_counter() - started
    finally:
        workload.close()


def cold_setup(name, seed):
    """``setup_only`` in a fresh process, so imports and first-use costs
    are paid again."""
    command = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--workload", name, "--seed", str(seed), "--setup-only",
    ]
    child = subprocess.run(
        command, capture_output=True, text=True, timeout=SETUP_TIMEOUT, check=True
    )
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


def _peak_rss_mb(workload):
    pid = workload.helper_pid()
    if pid is not None:
        return _proc_peak_rss_mb(pid)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_workdir(root, name):
    path = os.path.join(root, ".perfbench-run", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
