"""Integration tests for verification-as-a-service.

Three layers:

- **the CLI store wiring** — ``--cache-dir`` with ``--stats-json`` writes
  the store's counters (cold/warm byte identity and warm hits are
  ``tests/test_serve_store.py``'s);
- **the daemon** — ``repro serve`` round trip over a unix socket:
  batched requests, control ops, ``--remote`` output identical to a
  local run, clean shutdown with no orphan socket or process;
- **warm state** — the store's statement level and its memo of lowered
  programs outlive requests, memoized programs stay unmodified, and the
  daemon's ``stats`` reports the memo and its frozen heap.
"""

import gc
import io
import json
import os
import subprocess
import sys
import time

import pytest

from repro.cli import main as cli_main
from repro.core import C2bpOptions
from repro.programs import get_driver, get_program

_SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture(autouse=True)
def _thawed_heap():
    """In-process servers freeze the heap after each compute request;
    thaw it so one test's leftovers stay collectable in the next."""
    yield
    gc.unfreeze()


def _run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def study_files(tmp_path):
    study = get_program("partition")
    c_file = tmp_path / "p.c"
    c_file.write_text(study.source)
    pred_file = tmp_path / "p.preds"
    pred_file.write_text(study.predicate_text)
    return study, str(c_file), str(pred_file)


# -- the CLI store wiring --------------------------------------------------


def test_stats_json_schema(study_files, tmp_path):
    _, c_file, pred_file = study_files
    stats_file = str(tmp_path / "stats.json")
    code, _ = _run_cli(
        ["abstract", c_file, pred_file, "--cache-dir",
         str(tmp_path / "cache"), "--stats-json", stats_file]
    )
    assert code == 0
    stats = json.load(open(stats_file))
    assert stats["schema_version"] == 2
    store = stats["persistent_cache"]
    for field in ("hits", "misses", "writes", "evictions",
                  "cache_corrupt_records", "namespaces", "root"):
        assert field in store, field
    assert store["writes"] > 0


# -- the daemon ------------------------------------------------------------


def _start_daemon(tmp_path, *extra):
    sock = str(tmp_path / "daemon.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC_ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock] + list(extra),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.time() + 20
    while not os.path.exists(sock):
        if proc.poll() is not None or time.time() > deadline:
            proc.kill()
            raise RuntimeError("daemon failed to listen: %s" % proc.stderr.read())
        time.sleep(0.05)
    return proc, sock


def test_serve_round_trip_smoke(tmp_path):
    from repro.serve.client import ServeClient

    study = get_program("partition")
    proc, sock = _start_daemon(tmp_path, "--cache-dir", str(tmp_path / "cache"))
    try:
        with ServeClient.connect_unix(sock, timeout=120) as client:
            assert client.ping()["ok"]
            request = {
                "op": "check",
                "source": study.source,
                "predicates": study.predicate_text,
                "entry": study.entry,
                "name": study.name,
            }
            first, second = client.batch([request, request])
            assert first["ok"] and second["ok"]
            assert first["exit_code"] == 0
            assert first["output"] == second["output"]
            stats = client.stats()
            assert stats["ops"]["check"] == 2
            assert stats["persistent_cache"]["writes"] > 0
            assert stats["compute"]["check"]["requests"] == 2
            assert stats["queue"] == {"depth": 0, "peak": 1}
            assert stats["persistent_cache"]["reuse_level"]["hits"] > 0
            assert stats["gc"]["frozen"] > 0
            flushed = client.flush()
            assert flushed["ok"] and flushed["entries_dropped"] > 0
            # Unknown and failing ops must not kill the daemon.
            bad = client.request({"op": "no-such-op"})
            assert not bad["ok"]
            broken = client.request(
                {"op": "check", "source": "int main( {", "predicates": ""}
            )
            assert not broken["ok"] and "error" in broken
            assert client.ping()["ok"]
            # A job count other than 1 names the removed worker pool.
            stale = client.request(dict(request, options={"jobs": 2}))
            assert not stale["ok"] and "worker pool" in stale["error"]
            assert client.ping()["ok"]
            assert client.shutdown()["ok"]
        assert proc.wait(timeout=15) == 0
        assert not os.path.exists(sock), "socket must be removed on shutdown"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_remote_check_is_byte_identical_smoke(tmp_path, study_files):
    study, c_file, pred_file = study_files
    proc, sock = _start_daemon(tmp_path, "--cache-dir", str(tmp_path / "cache"))
    try:
        local_code, local_out = _run_cli(
            ["check", c_file, pred_file, "--entry", study.entry]
        )
        remote_outputs = []
        for _ in range(2):  # second round trip rides the warm caches
            remote_code, remote_out = _run_cli(
                ["check", c_file, pred_file, "--entry", study.entry,
                 "--remote", sock]
            )
            assert remote_code == local_code
            remote_outputs.append(remote_out)
        assert remote_outputs[0] == local_out
        assert remote_outputs[1] == local_out
        from repro.serve.client import ServeClient

        with ServeClient.connect_unix(sock, timeout=30) as client:
            client.shutdown()
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


# -- the store's reuse level and the daemon's stats op ---------------------


def _check_request(study):
    return {
        "op": "check",
        "source": study.source,
        "predicates": study.predicate_text,
        "entry": study.entry,
        "name": study.name,
    }


def _abstraction_disk_reads(store):
    """Procedure and statement records looked up on disk."""
    reads = 0
    for namespace in ("c2bp-proc", "c2bp-stmt"):
        counts = store.snapshot()["namespaces"].get(namespace, {})
        reads += counts.get("hits", 0) + counts.get("misses", 0)
    return reads


def test_smoke_reuse_level_outlives_requests(tmp_path):
    """A repeated request is answered from the store's in-memory level
    (every procedure whole) without reading a procedure or statement
    record from disk; after ``flush`` the same request reads the disk
    again and prints the same bytes."""
    from repro.serve.server import ReproServer

    server = ReproServer(cache_dir=str(tmp_path / "cache"))
    try:
        request = _check_request(get_program("partition"))
        cold = server._run_job(request)
        assert cold["ok"] and cold["exit_code"] == 0
        level = server.store.reuse_level
        assert level.procedures and level.statements and level.enforce
        reads, hits = _abstraction_disk_reads(server.store), level.hits
        warm = server._run_job(request)
        assert warm["output"] == cold["output"]
        assert _abstraction_disk_reads(server.store) == reads
        assert level.hits >= len(level.procedures) + hits

        entries = len(level.procedures) + len(level.statements) + len(level.enforce)
        flushed = server._op_flush({})
        assert flushed["entries_dropped"] >= entries
        assert not level.procedures and not level.statements and not level.enforce
        after = server._run_job(request)
        assert after["output"] == cold["output"]
        assert _abstraction_disk_reads(server.store) > reads
    finally:
        server._executor.shutdown()


def test_smoke_reuse_level_hits_are_private_copies(tmp_path):
    """Neither the stored parts nor a fetched payload alias the level's
    entry: mutating them does not change the next hit."""
    from repro.boolprog import ast as B
    from repro.serve import PersistentAbstractionReuse, PersistentStore

    store = PersistentStore(str(tmp_path / "cache"))
    options = C2bpOptions()
    key = ("main", 0, 7, "x = 1;", (), ("p",), ("sig",), "live-off")
    stmt = B.BAssign(["p"], [B.BConst(True)])
    stmt.labels = ["L1"]
    temps, meanings, counters = ["__t0"], [("__t0", None)], {"prover_calls": 3}
    PersistentAbstractionReuse(store, store.reuse_level, options).store(
        key, [stmt], temps, meanings, counters
    )
    stmt.labels.append("after-store")
    temps.append("after-store")
    counters["prover_calls"] = 0

    def fetch():
        reuse = PersistentAbstractionReuse(store, store.reuse_level, options)
        return reuse.fetch(key)

    first = fetch()
    first["stmts"][0].labels.append("mutated")
    first["stmts"][0].targets[0] = "q"
    first["temps"].append("mutated")
    first["temp_meanings"].clear()
    first["c2bp"]["prover_calls"] = 99
    second = fetch()
    assert second["stmts"][0].labels == ["L1"]
    assert second["stmts"][0].targets == ["p"]
    assert second["temps"] == ["__t0"]
    assert second["temp_meanings"] == [("__t0", None)]
    assert second["c2bp"] == {"prover_calls": 3}
    assert second["stmts"][0] is not first["stmts"][0]
    # Both fetches were level hits: the disk was never read.
    assert _abstraction_disk_reads(store) == 0
    assert store.reuse_level.hits == 2


_TEMPS_SOURCE = """int g;
int inc(int v) { int r; r = v + 1; return r; }
void main() {
    int x; int y; int z;
    x = 0; z = 1; y = inc(x); g = y;
    if (y == 1) { g = 2; }
    assert(g == 2);
}
"""
# ``z == 3`` is never read: BP-DCE drops it.
_TEMPS_PREDICATES = (
    "global\ng == 2\ninc\nv == 0\nr == 1\nmain\nx == 0\ny == 1\nz == 3\n"
)


def test_smoke_shared_entries_survive_assembly_and_dce():
    """Reused entries are shared read-only, and nothing downstream writes
    them: a program assembled from fetched entries, then reduced by
    BP-DCE and printed, leaves the entries as they were, so a second
    fetch prints the first printing again."""
    from repro import C2bp, parse_c_program, parse_predicate_file
    from repro.analysis import eliminate_dead_variables
    from repro.boolprog.printer import print_bool_program
    from repro.engine import EngineContext

    program = parse_c_program(_TEMPS_SOURCE)
    predicates = parse_predicate_file(_TEMPS_PREDICATES, program)
    context = EngineContext()
    cold = print_bool_program(C2bp(program, predicates, context=context).run())
    level = context.reuse_level
    # Both kinds of statement part: one renamed in assembly, some shared.
    assert {bool(part["temps"]) for part in level.statements.values()} == {
        False, True
    }

    def fetch():
        return C2bp(program, predicates, context=context).run()

    first = fetch()
    printed = print_bool_program(first)
    assert printed == cold
    shared = {id(stmt) for entry in level.procedures.values()
              for stmt in entry["body"]}
    assert any(id(stmt) in shared for stmt in first.procedures["main"].body)
    reduced, eliminated = eliminate_dead_variables(first)
    assert eliminated > 0
    assert print_bool_program(reduced) != printed
    second = fetch()
    assert print_bool_program(first) == printed
    assert print_bool_program(second) == printed


def test_stats_op_counts_compute_requests_and_queue_depth(tmp_path):
    import asyncio

    from repro.serve.server import ReproServer

    server = ReproServer(cache_dir=str(tmp_path / "cache"))
    study = get_program("partition")
    check = _check_request(study)
    abstract = dict(check, op="abstract")
    broken = {"op": "check", "source": "int main( {", "predicates": ""}

    async def drive():
        # Two concurrent frames: the second queues behind the first.
        return await asyncio.gather(
            server.respond([check, {"op": "ping"}, abstract]),
            server.respond([check, broken]),
        )

    try:
        replies = asyncio.run(drive())
        assert [r["ok"] for r in replies[0] + replies[1]] == [
            True, True, True, True, False
        ]
        stats = server._op_stats({})
    finally:
        server._executor.shutdown()
    compute = stats["compute"]
    assert {op: entry["requests"] for op, entry in compute.items()} == {
        "check": 3, "abstract": 1
    }
    assert sum(e["requests"] for e in compute.values()) + 1 == stats["requests"]
    assert stats["ops"] == {"check": 3, "ping": 1, "abstract": 1}
    for entry in compute.values():
        assert 0 < entry["max_s"] <= entry["total_s"]
    assert stats["queue"] == {"depth": 0, "peak": 2}
    level = stats["persistent_cache"]["reuse_level"]
    assert level["statements"] > 0 and level["enforce"] > 0
    assert level["hits"] > 0


def test_stats_reads_race_compute_accounting():
    """``stats`` on the event loop reads what the compute thread writes."""
    import threading

    from repro.serve.server import _COMPUTE_OPS, ReproServer

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            server = ReproServer()
            errors = []
            done = threading.Event()

            def read():
                while not done.is_set():
                    try:
                        server._op_stats({})
                    except Exception as error:  # a lost race
                        errors.append(error)
                        return

            reader = threading.Thread(target=read)
            reader.start()
            try:
                for op in _COMPUTE_OPS * 3:
                    assert not server._run_job({"op": op, "source": "@"})["ok"]
            finally:
                done.set()
                reader.join(timeout=10)
            assert not reader.is_alive()
            assert not errors
            compute = server._op_stats({})["compute"]
            total = sum(entry["requests"] for entry in compute.values())
            assert total == 3 * len(_COMPUTE_OPS)
    finally:
        sys.setswitchinterval(interval)


# -- the program memo and the frozen warm heap ------------------------------


def test_smoke_program_memo_admits_on_second_sighting(tmp_path, monkeypatch):
    """A text is parsed on its first two sightings and admitted on the
    second; the third is a memo hit with no parse.  A one-off text is never
    admitted, ``flush`` drops the memo, and ``stats`` reports all of it."""
    import repro.cli
    from repro.serve.server import ReproServer

    parses = []
    parse = repro.cli.parse_c_program
    monkeypatch.setattr(
        repro.cli, "parse_c_program",
        lambda *args, **kwargs: parses.append(1) or parse(*args, **kwargs),
    )
    server = ReproServer(cache_dir=str(tmp_path / "cache"))
    try:
        request = _check_request(get_program("partition"))
        outputs = [server._run_job(request)["output"] for _ in range(3)]
        assert outputs[1] == outputs[2] == outputs[0]
        assert len(parses) == 2
        stats = server._op_stats({})
        level = stats["persistent_cache"]["reuse_level"]
        assert (level["programs"], level["program_admissions"]) == (1, 1)
        assert level["program_hits"] == 1
        assert stats["gc"]["frozen"] == gc.get_freeze_count() > 0
        assert len(stats["gc"]["collections"]) == len(gc.get_stats())

        edited = dict(request, source=request["source"] + "\n")
        assert server._run_job(edited)["output"] == outputs[0]
        level = server._op_stats({})["persistent_cache"]["reuse_level"]
        assert (level["programs"], level["program_admissions"]) == (1, 1)

        dropped = level["statements"] + level["enforce"] + level["programs"]
        flushed = server._op_flush({})
        assert flushed["entries_dropped"] >= dropped
        assert gc.get_freeze_count() == 0, "flush thaws the warm heap"
        level = server._op_stats({})["persistent_cache"]["reuse_level"]
        assert level["programs"] == 0
        # Flushed means forgotten: the next sighting is a first one again.
        assert server._run_job(request)["output"] == outputs[0]
        level = server._op_stats({})["persistent_cache"]["reuse_level"]
        assert (level["programs"], level["program_admissions"]) == (0, 1)
    finally:
        server._executor.shutdown()


def test_smoke_program_memo_evicts_least_recent(monkeypatch):
    from repro.analysis import reuse
    from repro.analysis.reuse import ReuseLevel

    monkeypatch.setattr(reuse, "PROGRAM_CAPACITY", 2)
    level = ReuseLevel()
    for key in ("a", "a", "b", "b", "a", "c"):
        level.program(key, lambda: (key, None))
    assert list(level.programs) == ["b", "a"]
    assert level.program_evictions == 0
    level.program("c", lambda: ("c", None))  # admits c, evicts b
    assert list(level.programs) == ["a", "c"]
    assert (level.program_admissions, level.program_hits) == (3, 1)
    assert level.program_evictions == 1


def test_statement_memos_are_bounded_least_recent_first(monkeypatch):
    """The statement, enforce and Bebop table memos hold at most
    ``STATEMENT_CAPACITY`` entries each, drop the least recently used
    one first, count each drop as an eviction, and ``clear`` (a
    daemon's ``flush``) still empties every memo."""
    from repro.analysis import reuse
    from repro.analysis.reuse import ReuseLevel

    monkeypatch.setattr(reuse, "STATEMENT_CAPACITY", 2)
    level = ReuseLevel()
    for memo in ("statements", "enforce", "tables"):
        level.keep(memo, "a", 1)
        level.keep(memo, "b", 2)
        assert level.fetch(memo, "a") == (True, 1)  # a is now the most recent
        level.keep(memo, "c", 3)  # evicts b
        assert list(getattr(level, memo)) == ["a", "c"]
        assert level.fetch(memo, "b") == (False, None)
    assert (level.hits, level.program_evictions) == (3, 3)
    level.program("p", lambda: ("p", None))
    level.program("p", lambda: ("p", None))
    level.record_answer("k", True)
    assert level.clear() == 2 * 3 + 2
    snapshot = level.snapshot()
    for field in ("statements", "enforce", "bebop_tables", "programs", "bebop_answers"):
        assert snapshot[field] == 0


def test_smoke_evicted_memo_entries_are_reclaimed(tmp_path, monkeypatch):
    """A memoized program lives in the frozen warm heap, and so do its
    per-predicate-set analyses.  When a request evicts such an entry (a
    new predicate set past ``ANALYSES_CAPACITY``, or a program past
    ``PROGRAM_CAPACITY``), the daemon thaws the heap before that request's
    collection, so the evicted facts are reclaimed at once."""
    import weakref

    from repro.analysis import ProgramFacts, reuse
    from repro.serve.server import ReproServer

    monkeypatch.setattr(ProgramFacts, "ANALYSES_CAPACITY", 1)
    monkeypatch.setattr(reuse, "PROGRAM_CAPACITY", 1)
    server = ReproServer(cache_dir=str(tmp_path / "cache"))
    try:
        request = _check_request(get_program("partition"))
        for _ in range(2):  # the second sighting admits the program
            assert server._run_job(request)["ok"]
        level = server.store.reuse_level
        (program, facts), = level.programs.values()
        (_signatures, analyses), = facts._inputs.values()
        analyses = weakref.ref(analyses)
        assert gc.get_freeze_count() > 0 and analyses() is not None

        fewer = dict(request, predicates="partition\ncurr == NULL, prev == NULL\n")
        assert server._run_job(fewer)["ok"]
        assert level.program_evictions == 1
        assert analyses() is None, "the evicted analyses were reclaimed"

        facts = weakref.ref(facts)
        del program
        other = _check_request(get_program("listfind"))
        for _ in range(2):  # admitting listfind evicts partition
            assert server._run_job(other)["ok"]
        assert level.program_evictions == 2
        assert facts() is None, "the evicted program was reclaimed"
        assert gc.get_freeze_count() > 0
    finally:
        server._executor.shutdown()


def _memo_snapshot(level):
    """Everything downstream could mutate in each memoized program."""
    from repro.cfront.pretty import pretty_program

    def sids(stmts, out):
        for stmt in stmts:
            out.append(stmt.sid)
            for sub in stmt.substatements():
                sids(sub, out)
        return out

    return {
        key: (
            pretty_program(program),
            {
                func.name: sids(func.body, [])
                for func in program.defined_functions()
            },
            sorted(program.protected_globals),
        )
        for key, (program, _facts) in level.programs.items()
    }


def test_smoke_memoized_programs_are_read_only(tmp_path):
    """Every driver under both properties, plus two Table-2 checks, run
    through one daemon store until each program is memoized; two more
    passes answer from the memo and leave every program as it was."""
    from repro.programs import all_drivers
    from repro.serve.server import ReproServer

    requests = []
    for driver in all_drivers():
        base = {
            "op": "slam", "source": driver.source, "name": driver.name,
            "entry": driver.entry,
        }
        requests.append(
            dict(base, lock=["KeAcquireSpinLock", "KeReleaseSpinLock"])
        )
        requests.append(dict(base, complete_once="IoCompleteRequest"))
    for name in ("partition", "listfind"):
        requests.append(_check_request(get_program(name)))
    server = ReproServer(cache_dir=str(tmp_path / "cache"))
    try:
        outputs = []
        for _ in range(4):
            replies = [server._run_job(request) for request in requests]
            assert all(reply["ok"] for reply in replies)
            outputs.append([reply["output"] for reply in replies])
            if len(outputs) == 2:
                level = server.store.reuse_level
                assert len(level.programs) == len(requests)
                before = _memo_snapshot(level)
        assert level.program_hits == 2 * len(requests)
        assert _memo_snapshot(level) == before
        # A slam reply prints its prover calls, so only the warm passes
        # match byte for byte; verdicts match the cold pass.
        assert outputs[1] == outputs[2] == outputs[3]
        assert [out.splitlines()[0] for out in outputs[0]] == [
            out.splitlines()[0] for out in outputs[3]
        ]
    finally:
        server._executor.shutdown()


def test_program_memo_survives_concurrent_flush(monkeypatch):
    """``flush`` clears the memos on the event loop while the compute
    thread is inside ``program()`` or a statement lookup; neither may see
    the other half done."""
    import threading

    from repro.analysis import reuse
    from repro.analysis.reuse import ReuseLevel

    monkeypatch.setattr(reuse, "PROGRAM_CAPACITY", 2)
    monkeypatch.setattr(reuse, "STATEMENT_CAPACITY", 2)
    level = ReuseLevel()
    errors = []
    done = threading.Event()

    def lookups(offset):
        try:
            for index in range(20000):
                key = (index + offset) % 5
                level.program(key, lambda: (key, None))
                level.keep("statements", key, key)
                level.fetch("statements", key)
        except Exception as error:  # a lost race
            errors.append(error)

    def flushes():
        while not done.is_set():
            level.clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lookups, args=(offset,)) for offset in range(4)
        ]
        flusher = threading.Thread(target=flushes)
        flusher.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        done.set()
        flusher.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers + [flusher])
    assert not errors
    assert len(level.programs) <= 2
    assert len(level.statements) <= 2


# -- Bebop's answer memo -----------------------------------------------------


_LOCK = ["KeAcquireSpinLock", "KeReleaseSpinLock"]


def _slam_request(source):
    return {
        "op": "slam", "source": source, "name": "floppy", "entry": "main",
        "lock": _LOCK, "max_iterations": 8,
    }


def _storeless_slam(source):
    from repro.cli import run_slam
    from repro.engine import EngineContext
    from repro.slam.spec import SafetySpec

    out = io.StringIO()
    with EngineContext() as context:
        run_slam(context, source, SafetySpec.lock_discipline(*_LOCK), out,
                 max_iterations=8)
    return out.getvalue()


def _without_counts(output):
    """A slam reply without its per-iteration prover counts, which a warm
    store legitimately lowers."""
    return [
        line.split(":")[0] if line.startswith("  iteration ") else line
        for line in output.splitlines()
    ]


def test_smoke_bebop_answer_memo_round_trip(tmp_path, monkeypatch):
    """A live daemon answers a resubmitted driver and a predicate-irrelevant
    edit of it from the Bebop answer memo, and a verdict-changing edit
    (one lock acquire deleted) from Bebop.  Every reply is byte-identical
    to a daemon without the memo fed the same requests, and matches a
    store-less run up to its prover counts (a warm store lowers them);
    ``flush`` empties the memo, and the replies after it still match the
    memo-less daemon's."""
    from repro.analysis import reuse
    from repro.serve.client import ServeClient
    from repro.serve.server import ReproServer

    source = get_driver("floppy").source
    irrelevant = source.replace(
        "int floppy_read(int length) {\n",
        "int floppy_read(int length) {\n    int fresh;\n    fresh = 7;\n",
    )
    unsafe = source.replace("    KeAcquireSpinLock();\n", "", 1)
    assert irrelevant != source and unsafe != source
    sources = [source, source, irrelevant, unsafe, unsafe]

    proc, sock = _start_daemon(tmp_path, "--cache-dir", str(tmp_path / "cache"))
    try:
        with ServeClient.connect_unix(sock, timeout=120) as client:
            replies, hits = [], []
            for text in sources:
                reply = client.request(_slam_request(text))
                assert reply["ok"], reply
                replies.append(reply["output"])
                level = client.stats()["persistent_cache"]["reuse_level"]
                hits.append(level["bebop_answer_hits"])
            assert client.flush()["ok"]
            level = client.stats()["persistent_cache"]["reuse_level"]
            assert level["bebop_answers"] == 0
            flushed = [client.request(_slam_request(text))["output"]
                       for text in sources[:3]]
            assert client.shutdown()["ok"]
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # The resubmit, the irrelevant edit and the unsafe resubmit each answer
    # at least one iteration from the memo; the priming request and the
    # unsafe edit's first sighting answer none.
    assert hits[0] == 0
    assert hits[1] > hits[0] and hits[2] > hits[1]
    assert hits[3] == hits[2] and hits[4] > hits[3]
    assert replies[3].startswith("verdict: unsafe")

    monkeypatch.setattr(reuse, "ANSWER_CAPACITY", 0)
    reference = ReproServer(cache_dir=str(tmp_path / "reference"))
    try:
        expected = [reference._run_job(_slam_request(text))["output"]
                    for text in sources]
        reference._op_flush({})
        expected_flushed = [reference._run_job(_slam_request(text))["output"]
                            for text in sources[:3]]
        assert reference.store.reuse_level.answer_hits == 0
    finally:
        reference._executor.shutdown()
    assert replies == expected
    assert flushed == expected_flushed
    for text, reply in zip(sources + sources[:3], replies + flushed):
        assert _without_counts(reply) == _without_counts(_storeless_slam(text))
    assert replies[0] == _storeless_slam(source)


# -- option compatibility ----------------------------------------------------


def test_removed_option_fields_are_ignored():
    """Older clients still send the removed engine selectors; the daemon
    drops option keys it does not know, so a ``check`` and a ``slam``
    request carrying them get the replies of the same requests without
    them."""
    from repro.serve.server import ReproServer

    removed = {
        "strengthen": "cubes",
        "theory_incremental": False,
        "persistent_cache": False,
        "use_analysis": False,
    }
    requests = [
        _check_request(get_program("partition")),
        _slam_request(get_driver("floppy").source),
    ]
    replies = []
    for options in (None, removed):
        server = ReproServer()
        try:
            replies.append(
                [server._run_job(dict(request, options=options))
                 for request in requests]
            )
        finally:
            server._executor.shutdown()
    for plain, old_client in zip(*replies):
        assert plain["ok"] and old_client["ok"], (plain, old_client)
        assert old_client["output"] == plain["output"]
        assert old_client["exit_code"] == plain["exit_code"]


# -- the store-less daemon ---------------------------------------------------


def test_storeless_daemon_keeps_its_reuse_level(tmp_path):
    """A daemon without ``--cache-dir`` still reuses across requests: a
    resubmitted ``slam`` request hits the program memo and Bebop's answer
    memo, prints the verdict a ``--cache-dir`` daemon prints, and
    ``flush`` empties the level.  ``stats`` reports the level either way,
    and ``persistent_cache`` only with a store."""
    from repro.serve.server import ReproServer

    request = _slam_request(get_driver("floppy").source)
    replies = {}
    for label, cache_dir in (("storeless", None),
                             ("store", str(tmp_path / "cache"))):
        server = ReproServer(cache_dir=cache_dir)
        try:
            outputs = [server._run_job(request)["output"] for _ in range(3)]
            stats = server._op_stats({})
            level = stats["reuse_level"]
            assert level["program_hits"] > 0, label
            assert level["bebop_answer_hits"] > 0, label
            assert level["statements"] > 0, label
            if cache_dir is None:
                assert stats["persistent_cache"] is None
            else:
                assert stats["persistent_cache"]["reuse_level"] == level
            flushed = server._op_flush({})
            assert flushed["entries_dropped"] >= (
                level["statements"] + level["programs"] + level["bebop_answers"]
            )
            level = server._op_stats({})["reuse_level"]
            assert level["statements"] == level["programs"] == 0
            assert level["bebop_answers"] == 0
            replies[label] = outputs
        finally:
            server._executor.shutdown()
    verdicts = {
        label: {output.splitlines()[0] for output in outputs}
        for label, outputs in replies.items()
    }
    assert verdicts["storeless"] == verdicts["store"]
    assert len(verdicts["storeless"]) == 1
    assert replies["storeless"][0] == _storeless_slam(request["source"])


def test_c2bp_op_alias_is_unknown():
    """``abstract`` is the one name of the abstraction op."""
    import asyncio

    from repro.serve.server import ReproServer

    server = ReproServer()
    try:
        reply = asyncio.run(server.respond({"op": "c2bp"}))
    finally:
        server._executor.shutdown()
    assert reply["ok"] is False
    assert reply["error"] == "unknown op 'c2bp'"


# -- warm replies across program variants ----------------------------------


def _variant_request(source, predicates):
    return {"op": "check", "source": source, "predicates": predicates,
            "entry": "main", "name": "variant"}


def _cold_reply(request):
    from repro.serve.server import ReproServer

    server = ReproServer()
    try:
        return server._run_job(request)
    finally:
        server._executor.shutdown()


def _warm_replies(tmp_path, first, second):
    """``second``'s reply from a store-less daemon that answered ``first``
    before it, and from a fresh daemon over the store ``first`` filled."""
    from repro.serve.server import ReproServer

    replies = []
    server = ReproServer()
    try:
        server._run_job(first)
        replies.append(server._run_job(second))
    finally:
        server._executor.shutdown()
    cache = str(tmp_path / "cache")
    for request in (first, second):
        server = ReproServer(cache_dir=cache)
        try:
            reply = server._run_job(request)
        finally:
            server._executor.shutdown()
    replies.append(reply)
    return replies


def _assert_warm_matches_cold(tmp_path, first, second):
    cold = _cold_reply(second)
    assert cold["ok"]
    for reply in _warm_replies(tmp_path, first, second):
        assert reply["output"] == cold["output"]
        assert reply["exit_code"] == cold["exit_code"]
    return cold


_ALIAS_VARIANT = (
    "int *r; int *t; void g(int *s) { *s = 1; } "
    "void main() { int a; int b; r = &a; t = &b; a = 0; g(t); assert(a == 0); } "
    "void h() { %s }"
)


def test_smoke_alias_merge_after_main_is_not_answered_stale(tmp_path):
    """Variant B differs from A only in ``h``, after ``main``: ``r = t``
    merges the classes of ``a`` and ``b``, so ``g(t)`` may write ``a``.
    No text of ``main`` changed, yet its translation did; the points-to
    facts in the keys keep A's translation from answering B."""
    predicates = "\nmain\na == 0\n"
    first = _variant_request(_ALIAS_VARIANT % "r = r;", predicates)
    second = _variant_request(_ALIAS_VARIANT % "r = t;", predicates)
    assert _cold_reply(first)["output"] == "all asserts discharged.\n"
    cold = _assert_warm_matches_cold(tmp_path, first, second)
    assert cold["exit_code"] == 1
    assert "main: assert(a == 0);" in cold["output"]


_SHIFT_SOURCE = """int g;
int inc(int v) { int r; r = v + 1; return r; }
void set(int v) { g = v; }
void main() {
    int x; int y; int z;
    x = 0; z = 1; y = inc(x); set(y);
    if (y == 1) { g = 2; }
    assert(g == 2);
}
"""


def test_smoke_position_shifting_edit_matches_a_cold_reply(tmp_path):
    """An edit at the top of the first procedure shifts every later
    statement's sid; the reused procedures and statements are re-stamped
    and still print a cold daemon's bytes."""
    edited = _SHIFT_SOURCE.replace(
        "int inc(int v) {", "int inc(int v) {\n    int bench_edit_0;\n    bench_edit_0 = 7;"
    )
    first = _variant_request(_SHIFT_SOURCE, _TEMPS_PREDICATES)
    second = _variant_request(edited, _TEMPS_PREDICATES)
    _assert_warm_matches_cold(tmp_path, first, second)


def test_smoke_global_named_like_a_local_matches_a_cold_reply(tmp_path):
    """A new global named like ``main``'s local ``x`` changes no text of
    ``main``, but the call rule now reads ``x == 0`` as mentioning a
    global name; the keys record which names are globals."""
    local = "void f() { } void main() { int x; x = 0; f(); assert(x == 0); }"
    predicates = "\nmain\nx == 0\n"
    first = _variant_request(local, predicates)
    second = _variant_request("int x; " + local, predicates)
    _assert_warm_matches_cold(tmp_path, first, second)
