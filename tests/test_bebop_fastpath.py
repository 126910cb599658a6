"""The Bebop engine (compiled transfer relations, frontier propagation,
cross-iteration reuse) against the explicit-state reference and against
fresh runs: corpus differentials, transfer-cache reuse, the stats
plumbing, and the fuzz oracle catching an injected engine bug."""

import pytest
from hypothesis import given, settings

from repro import (
    Bebop,
    C2bp,
    SafetySpec,
    check_property,
    parse_c_program,
    parse_predicate_file,
)
from repro.bebop import BebopReuse, ExplicitEngine, explicit_divergence
from repro.bebop.checker import procedure_fingerprint
from repro.boolprog import parse_bool_program
from repro.core import C2bpOptions
from repro.engine import EngineContext
from repro.fuzz.gen import ProgramGenerator
from repro.fuzz.oracle import KIND_ENGINE, SoundnessOracle
from repro.programs import all_table2_programs

from .test_bebop_differential import bool_programs


def _assert_matches_explicit(program, main="main"):
    result = Bebop(program, main=main).run()
    assert explicit_divergence(result, ExplicitEngine(program, main=main)) is None
    return result


INTERPROC = """
decl g;

bool flip(p) {
    if (p) { return 0; }
    return 1;
}

void toggle() {
    g = flip(g);
}

void main() {
    decl x;
    g = 1;
    toggle();
    L1: skip;
    x = flip(g);
    assert (x);
    while (*) {
        toggle();
        toggle();
    }
    L2: assert (!g);
}
"""


def test_fast_equals_explicit_interprocedural():
    program = parse_bool_program(INTERPROC)
    result = _assert_matches_explicit(program)
    assert result.invariant_string("main", label="L1") == "!{g}"
    assert result.statistics()["transfers_compiled"] > 0


@settings(max_examples=60, deadline=None)
@given(bool_programs())
def test_fast_equals_explicit_on_random_programs(program):
    """A run on compile tables reused from an earlier run of the same
    program matches the explicit reference too, failing asserts included."""
    reuse = BebopReuse()
    fresh = Bebop(program, reuse=reuse).run()
    reuse.end_iteration()
    reused = Bebop(program, reuse=reuse)
    assert reused.transfers_compiled == 0
    result = reused.run()
    assert explicit_divergence(result, ExplicitEngine(program, max_configs=200_000)) is None
    assert result.all_invariants() == fresh.all_invariants()


def test_fast_equals_explicit_on_table2_corpus():
    for study in all_table2_programs():
        if study.name not in ("partition", "listfind"):
            continue  # the small studies keep the explicit reference's
            # exhaustive search quick
        program = parse_c_program(study.source, study.name)
        predicates = parse_predicate_file(study.predicate_text, program)
        boolean_program = C2bp(program, predicates).run()
        _assert_matches_explicit(boolean_program, main=study.entry)


def test_summary_growth_requeues_callers_in_program_order(monkeypatch):
    program = parse_bool_program(INTERPROC)
    order = {name: index for index, name in enumerate(program.procedures)}
    batches = []  # the call sites each summary growth re-queued, in order
    update = Bebop._update_summary_fast
    push = Bebop._push

    def recording_update(self, proc_name, exit_delta, worklist):
        batches.append([])
        try:
            return update(self, proc_name, exit_delta, worklist)
        finally:
            batches.append(None)

    def recording_push(self, proc_name, node, worklist):
        if batches and batches[-1] is not None:
            batches[-1].append((order[proc_name], node.uid))
        return push(self, proc_name, node, worklist)

    monkeypatch.setattr(Bebop, "_update_summary_fast", recording_update)
    monkeypatch.setattr(Bebop, "_push", recording_push)
    checker = Bebop(program)
    # Call sites are registered in program order: procedures as declared,
    # nodes by uid within each.
    assert [caller for caller, _ in checker.call_sites["flip"]] == ["toggle", "main"]
    for sites in checker.call_sites.values():
        keys = [(order[caller], uid) for caller, uid in sites]
        assert keys == sorted(keys)
    checker.run()
    requeued = [batch for batch in batches if batch]
    assert requeued
    for batch in requeued:
        assert batch == sorted(batch)
    # A repeatable re-queue order makes the worklist step count exact.
    assert Bebop(program).run().steps == checker.steps


# -- cross-run reuse ------------------------------------------------------------


def test_reuse_recompiles_nothing_for_unchanged_program():
    program = parse_bool_program(INTERPROC)
    reuse = BebopReuse()
    first = Bebop(program, reuse=reuse)
    baseline = first.run().all_invariants()
    assert first.transfers_compiled > 0 and first.transfers_reused == 0
    reuse.end_iteration()
    second = Bebop(program, reuse=reuse)
    assert second.transfers_compiled == 0
    assert second.transfers_reused == first.transfers_compiled
    assert second.run().all_invariants() == baseline
    snapshot = reuse.snapshot()
    assert snapshot["iterations"] == 1
    assert snapshot["transfers_reused"] == first.transfers_compiled


def test_reuse_recompiles_only_changed_procedures():
    changed = INTERPROC.replace("L1: skip;", "L1: x = 0;")
    before = parse_bool_program(INTERPROC)
    after = parse_bool_program(changed)
    reuse = BebopReuse()
    Bebop(before, reuse=reuse).run()
    reuse.end_iteration()
    second = Bebop(after, reuse=reuse)
    # main changed; flip and toggle compile tables are reused.
    reused_procs = {
        name
        for name in after.procedures
        if procedure_fingerprint(after, after.procedures[name])
        == procedure_fingerprint(before, before.procedures[name])
    }
    assert reused_procs == {"flip", "toggle"}
    assert second.transfers_reused > 0
    assert second.transfers_compiled > 0
    assert second.run().all_invariants() == Bebop(after).run().all_invariants()


def test_gc_between_iterations_bounds_nodes():
    program = parse_bool_program(INTERPROC)
    reuse = BebopReuse()
    sizes = []
    for _ in range(4):
        Bebop(program, reuse=reuse).run()
        reuse.end_iteration()
        sizes.append(reuse.manager.live_nodes)
    # Collection keeps the unique table from growing run over run.
    assert sizes[-1] == sizes[0]
    assert reuse.manager.gc_runs == 4


def test_cegar_reports_transfer_reuse():
    from repro.programs import all_drivers

    driver = next(d for d in all_drivers() if d.name == "floppy")
    spec = SafetySpec.complete_exactly_once("IoCompleteRequest")
    context = EngineContext(options=C2bpOptions())
    result = check_property(
        driver.source, spec, entry=driver.entry, max_iterations=8, context=context
    )
    assert result.iterations > 1  # needs refinement for reuse to show up
    snapshot = context.stats.snapshot()
    assert snapshot["bebop_loop"]["transfers_reused"] > 0
    per_iteration = snapshot["iterations"]
    assert per_iteration[0]["bebop_transfers_reused"] == 0
    assert any(r["bebop_transfers_reused"] > 0 for r in per_iteration[1:])
    # The bebop section carries the BDD counters for --stats-json.
    assert "bdd" in snapshot["bebop"]
    assert snapshot["bebop"]["bdd"]["ite_calls"] > 0


# Table 1 under CEGAR: (driver, property) -> (verdict, iterations,
# predicates, prover calls); 390 calls over the 16 rows.
TABLE1_CEGAR = {
    ("floppy", "lock"): ("safe", 1, 2, 15),
    ("floppy", "irp"): ("unsafe", 3, 5, 133),
    ("ioctl", "lock"): ("safe", 1, 2, 15),
    ("ioctl", "irp"): ("safe", 1, 2, 15),
    ("openclos", "lock"): ("safe", 1, 2, 15),
    ("openclos", "irp"): ("safe", 1, 2, 15),
    ("srdriver", "lock"): ("safe", 1, 2, 15),
    ("srdriver", "irp"): ("safe", 1, 2, 15),
    ("log", "lock"): ("safe", 1, 2, 15),
    ("log", "irp"): ("safe", 1, 2, 15),
    ("serial", "lock"): ("safe", 1, 2, 23),
    ("serial", "irp"): ("safe", 1, 2, 23),
    ("kbfiltr", "lock"): ("safe", 1, 2, 17),
    ("kbfiltr", "irp"): ("safe", 1, 2, 17),
    ("toaster", "lock"): ("safe", 1, 2, 21),
    ("toaster", "irp"): ("safe", 1, 2, 21),
}

TABLE1_SPECS = {
    "lock": SafetySpec.lock_discipline("KeAcquireSpinLock", "KeReleaseSpinLock"),
    "irp": SafetySpec.complete_exactly_once("IoCompleteRequest"),
}


@pytest.mark.parametrize(
    "driver_name, key", list(TABLE1_CEGAR), ids=lambda value: value
)
def test_cegar_floppy_irp_verdict_pinned(driver_name, key):
    """The CEGAR contract on every Table-1 row: verdict, iterations,
    predicate count and prover calls.  The floppy driver's IRP property
    (the paper's in-development driver) is unsafe after exactly three
    iterations."""
    from repro.programs import get_driver

    driver = get_driver(driver_name)
    result = check_property(
        driver.source,
        TABLE1_SPECS[key],
        entry=driver.entry,
        max_iterations=8,
        context=EngineContext(options=C2bpOptions()),
    )
    assert (
        result.verdict,
        result.iterations,
        len(result.predicates),
        result.cegar.total_prover_calls,
    ) == TABLE1_CEGAR[driver_name, key]


def _floppy_irp(max_iterations=8):
    from repro.programs import get_driver

    driver = get_driver("floppy")
    context = EngineContext()
    result = check_property(
        driver.source,
        TABLE1_SPECS["irp"],
        entry=driver.entry,
        max_iterations=max_iterations,
        context=context,
    )
    return result.cegar, context.stats.snapshot()["cegar"]


def test_cegar_unknown_names_the_explicit_budget(monkeypatch):
    """An explicit witness search that runs out of budget is an
    ``unknown`` that says so, not a silent one."""
    from repro.slam import cegar as cegar_module

    class TinyExplicitEngine(ExplicitEngine):
        def __init__(self, program, main="main"):
            ExplicitEngine.__init__(self, program, main=main, max_configs=1)

    monkeypatch.setattr(cegar_module, "ExplicitEngine", TinyExplicitEngine)
    result, section = _floppy_irp()
    assert (result.verdict, result.iterations) == ("unknown", 1)
    assert result.unknown_reason == section["unknown_reason"] == "explicit_budget"


def test_cegar_unknown_names_an_empty_explicit_search(monkeypatch):
    from repro.slam import cegar as cegar_module

    class EmptyExplicitEngine(ExplicitEngine):
        def find_assertion_failure(self):
            return None

    monkeypatch.setattr(cegar_module, "ExplicitEngine", EmptyExplicitEngine)
    result, section = _floppy_irp()
    assert result.verdict == "unknown"
    assert section["unknown_reason"] == "explicit_search_empty"


def test_cegar_unknown_names_the_iteration_bound():
    result, section = _floppy_irp(max_iterations=2)
    assert (result.verdict, result.iterations) == ("unknown", 2)
    assert section["unknown_reason"] == "max_iterations"
    result, section = _floppy_irp()
    assert result.verdict == "unsafe"
    assert section["unknown_reason"] is None


# -- the oracle catches an injected engine bug -------------------------------------


def test_oracle_catches_injected_frontier_bug(monkeypatch):
    """A frontier join that drops every state reaching a procedure's exit
    label is reported as engine-divergence against the explicit
    reference."""
    join = Bebop._join_fast

    def dropping_join(self, proc_name, node, pe, worklist):
        if node.stmt is not None and "__exit" in node.stmt.labels:
            return
        return join(self, proc_name, node, pe, worklist)

    monkeypatch.setattr(Bebop, "_join_fast", dropping_join)
    oracle = SoundnessOracle()
    for seed in range(8):
        report = oracle.check(ProgramGenerator("engine").generate(seed))
        if report.kind == KIND_ENGINE:
            assert "/__exit differ" in report.detail
            return
    raise AssertionError("no generated case exposed the injected frontier bug")
