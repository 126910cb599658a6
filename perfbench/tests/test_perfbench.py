"""Tests of the benchmark itself: exact count determinism, span sanity,
the answer checks, and the failure mode outside a source checkout.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The workloads run here are cut down (a few seconds each) so the suite
stays short; the traced code paths are the same as in a full run.  Child
processes that time cold set-ups run the full-size set-up, which is
short.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
import workloads  # noqa: E402
from repro.programs import all_drivers  # noqa: E402

#: Per-layer metrics that are timings, not counts.
TIMED_UNITS = ("s",)

#: Counts the program itself does not repeat exactly.  Bebop's worklist
#: re-queues the callers of a procedure whose summary grew by iterating
#: ``call_sites[callee]``, a set of (caller, node) pairs hashed by object
#: identity (``repro/bebop/checker.py``, ``_update_summary_fast``), so the
#: visiting order, and with it the step count, can change by a step or two
#: between runs.  Verdicts and invariants do not change.  Such a count
#: cannot back a count-based claim until the program orders that set.
NOT_REPEATABLE = ("bebop.worklist_steps",)


@pytest.fixture
def small(monkeypatch):
    """Short rounds of both workloads."""
    monkeypatch.setattr(workloads.CegarGenerated, "CASES", 20)
    monkeypatch.setattr(workloads.ServeEditLoop, "JOBS", 40)


def _untraced(name, seed, seconds):
    workdir = harness.fresh_workdir(ROOT, "test-" + name)
    try:
        return harness.run(name, seed, seconds, 0, time.perf_counter(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(name, seed, seconds):
    workdir = harness.fresh_workdir(ROOT, "test-" + name)
    try:
        return harness.run(name, seed, seconds, 1, time.perf_counter(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _counts(line):
    return {
        name: metric["value"]
        for name, metric in line["metrics"].items()
        if metric["unit"] not in TIMED_UNITS and name != "trace.overhead_ratio"
    }


def _split(counts):
    exact = {k: v for k, v in counts.items() if k not in NOT_REPEATABLE}
    loose = {k: counts[k] for k in NOT_REPEATABLE}
    return exact, loose


@pytest.mark.parametrize(
    "name,seconds",
    [("cegar-generated", 2), ("serve-edit-loop", 2)],
)
def test_per_layer_counts_repeat_exactly(small, name, seconds):
    first, _, _ = _traced(name, 7, seconds)
    second, _, _ = _traced(name, 7, seconds)
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"]
    counts, loose = _split(_counts(first))
    again, loose_again = _split(_counts(second))
    assert counts == again
    for metric, value in loose.items():
        assert abs(value - loose_again[metric]) <= 0.01 * max(value, 1), metric
    if name == "cegar-generated":
        for metric in ("prover.calls", "bdd.ite_calls", "slam.iterations",
                       "newton.calls", "cfront.calls"):
            assert counts[metric] > 0, metric
    if name == "serve-edit-loop":
        assert counts["serve.store_writes"] > 0
        assert 0 < counts["serve.store_hit_ratio"] < 1


@pytest.mark.parametrize(
    "name,seconds",
    [("cegar-generated", 3), ("serve-edit-loop", 6)],
)
def test_untraced_run_averages_rounds(small, name, seconds):
    line, diagnostics, _ = _untraced(name, 4, seconds)
    assert line["correct"] and line["failed"] == 0
    metrics = {metric: value["value"] for metric, value in line["metrics"].items()}
    assert list(metrics) == [metric for metric, _ in harness.END_TO_END]
    walls = diagnostics["round_walls_s"]
    assert len(walls) >= 2
    # Another round starts only while it brings the timed work closer to
    # --seconds.
    assert sum(walls[:-1]) + sum(walls[:-1]) / (len(walls) - 1) / 2 <= seconds
    assert line["attempted"] == len(walls) * diagnostics["jobs_per_round"]
    assert metrics["wall_s"] == pytest.approx(sum(walls) / len(walls))
    assert 0 < metrics["job_p50_s"] <= metrics["job_p90_s"] <= max(walls)
    assert len(diagnostics["setup_samples_s"]) == harness.SETUP_SAMPLES
    assert metrics["setup_s"] == sorted(diagnostics["setup_samples_s"])[1]
    assert all(metric > 0 for metric in metrics.values())


def test_serve_rounds_start_from_a_fresh_store(small):
    workdir = harness.fresh_workdir(ROOT, "test-serve-rounds")
    serve = workloads.ServeEditLoop(2, workdir)
    try:
        serve.setup()
        writes = []
        for index in range(2):
            jobs = serve.round_jobs(index)
            before = serve.store_counters().get("writes", 0)
            for job in jobs:
                assert serve.check(job, serve.execute(job))[0]
            writes.append(serve.store_counters()["writes"] - before)
        assert writes[0] == writes[1] > 0
    finally:
        serve.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _span_tree(spans):
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    return children


def test_spans_nest_and_cover_each_job(small):
    line, _, spans = _traced("cegar-generated", 3, 2)
    assert line["correct"]
    assert 0 < line["metrics"]["trace.overhead_ratio"]["value"]
    children = _span_tree(spans)
    jobs = 0
    for index, (layer, start, end, parent, job) in enumerate(spans):
        assert end >= start
        if parent >= 0:
            # A child lies inside its parent and belongs to the same job.
            _, p_start, p_end, _, p_job = spans[parent]
            assert p_start <= start and end <= p_end
            assert job == p_job
        else:
            assert layer == "job"
        if layer == "job":
            jobs += 1
            covered = sum(spans[c][2] - spans[c][1] for c in children[index])
            assert covered <= end - start
            assert covered >= 0.95 * (end - start), (job, covered, end - start)
    assert jobs == line["attempted"] // 2


def test_answer_checks_reject_wrong_outputs():
    cegar = workloads.CegarGenerated(0, None)
    floppy = [d for d in all_drivers() if d.name == "floppy"][0]
    job = workloads.Job(0, "driver", "floppy/irp", (floppy, "irp"))
    assert floppy.expected["irp"] == "unsafe"
    assert cegar.check(job, {"verdict": "unsafe"}) == (True, True)
    assert cegar.check(job, {"verdict": "safe"}) == (False, True)
    assert cegar.check(job, {"verdict": "unknown"}) == (False, False)

    # A program whose assert fails on the planned concrete run: a "safe"
    # verdict on it is contradicted by the interpreter.
    source = "int main(int n0) {\n    int a;\n    a = n0 + 1;\n    assert(a < 0);\n    return 0;\n}\n"
    case = workloads._Rendered("wrong", source, [(3,)], [0], "main")
    job = workloads.Job(1, "case", "wrong", case)
    assert cegar.check(job, {"verdict": "safe"}) == (False, True)
    assert cegar.check(job, {"verdict": "unsafe"}) == (True, True)
    assert cegar.check(job, {"verdict": "unknown"}) == (True, False)

    check = workloads._verdict_check("safe")
    assert check({"output": "verdict: safe (after 1 iteration(s))\n"}) == (True, True)
    assert check({"output": "verdict: unsafe (after 2 iteration(s))\n"}) == (False, True)
    assert workloads._discharged_check(
        {"exit_code": 1, "output": "1 assert(s) not discharged:\n"}
    ) == (False, False)


def test_edits_change_one_procedure_only():
    driver = all_drivers()[0]
    procs = workloads._procedures(driver.source)
    edited = workloads._edit(driver.source, procs[-1], "t", 5)
    assert edited != driver.source
    assert workloads._procedures(edited) == procs
    assert edited.count("bench_edit_t") == 2


def test_fails_without_a_source_checkout(tmp_path):
    """Only the benchmark's own files: exit non-zero, print no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cegar-generated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode != 0
    assert "correct" not in run.stdout


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in harness.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in harness.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in harness.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in harness.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in spec["workloads"]:
        assert workload["why"] == workloads.WORKLOADS[workload["name"]].why
