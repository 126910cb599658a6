"""The Bebop fast path (compiled transfer relations, frontier propagation,
cross-iteration reuse) against the legacy engine: random-program and
corpus differentials, transfer-cache reuse, and the stats plumbing."""

import itertools

from hypothesis import given, settings, strategies as st

from repro import (
    Bebop,
    C2bp,
    SafetySpec,
    check_property,
    parse_c_program,
    parse_predicate_file,
)
from repro.bebop import BebopReuse
from repro.bebop.checker import procedure_fingerprint
from repro.boolprog import (
    BAssert,
    BAssign,
    BAssume,
    BCall,
    BChoose,
    BConst,
    BIf,
    BNondet,
    BNot,
    BProcedure,
    BProgram,
    BSkip,
    BUnknown,
    BVar,
    BWhile,
    parse_bool_program,
    validate_bool_program,
)
from repro.core import C2bpOptions
from repro.engine import EngineContext
from repro.programs import all_table2_programs

_VARS = ["a", "b", "c"]


@st.composite
def bool_exprs(draw, depth=0):
    choice = draw(st.integers(0, 4 if depth < 2 else 1))
    if choice == 0:
        return BVar(draw(st.sampled_from(_VARS)))
    if choice == 1:
        return BConst(draw(st.booleans()))
    if choice == 2:
        return BNot(draw(bool_exprs(depth=depth + 1)))
    from repro.boolprog import BAnd, BOr

    left = draw(bool_exprs(depth=depth + 1))
    right = draw(bool_exprs(depth=depth + 1))
    return BAnd(left, right) if choice == 3 else BOr(left, right)


@st.composite
def bool_stmts(draw, depth=0):
    choice = draw(st.integers(0, 5 if depth < 2 else 3))
    if choice == 0:
        target = draw(st.sampled_from(_VARS))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            value = draw(bool_exprs())
        elif kind == 1:
            value = BUnknown()
        else:
            value = BChoose(draw(bool_exprs()), draw(bool_exprs()))
        return BAssign([target], [value])
    if choice == 1:
        return BSkip()
    if choice == 2:
        return BAssume(draw(bool_exprs()))
    if choice == 3:
        return BAssert(draw(bool_exprs()))
    if choice == 4:
        then_body = draw(st.lists(bool_stmts(depth=depth + 1), min_size=0, max_size=2))
        else_body = draw(st.lists(bool_stmts(depth=depth + 1), min_size=0, max_size=2))
        cond = BNondet() if draw(st.booleans()) else draw(bool_exprs())
        return BIf(cond, then_body, else_body)
    body = draw(st.lists(bool_stmts(depth=depth + 1), min_size=0, max_size=2))
    return BWhile(BNondet(), body)


@st.composite
def bool_programs(draw):
    body = draw(st.lists(bool_stmts(), min_size=1, max_size=5))
    tail = BSkip()
    tail.labels.append("L")
    program = BProgram()
    program.add_procedure(BProcedure("main", [], list(_VARS), 0, body + [tail]))
    return program


def _assert_same_results(program, main="main"):
    fast = Bebop(program, main=main).run()
    legacy = Bebop(program, main=main, legacy=True).run()
    assert fast.all_invariants() == legacy.all_invariants()
    assert len(fast.assertion_failures) == len(legacy.assertion_failures)
    fast_sites = {(p, n.uid) for p, n, _ in fast.assertion_failures}
    legacy_sites = {(p, n.uid) for p, n, _ in legacy.assertion_failures}
    assert fast_sites == legacy_sites
    return fast, legacy


@settings(max_examples=60, deadline=None)
@given(bool_programs())
def test_fast_equals_legacy_on_random_programs(program):
    validate_bool_program(program)
    _assert_same_results(program)


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


def test_fast_equals_legacy_interprocedural():
    program = parse_bool_program(INTERPROC)
    fast, legacy = _assert_same_results(program)
    assert fast.invariant_string("main", label="L1") == "!{g}"
    stats = fast.statistics()
    assert stats["mode"] == "fast"
    assert stats["transfers_compiled"] > 0
    assert legacy.statistics()["mode"] == "legacy"


def test_fast_equals_legacy_on_table2_corpus():
    for study in all_table2_programs():
        if study.name not in ("partition", "listfind"):
            continue  # the small, fixture-free studies; the benchmark
            # covers the full corpus
        program = parse_c_program(study.source, study.name)
        predicates = parse_predicate_file(study.predicate_text, program)
        boolean_program = C2bp(program, predicates).run()
        _assert_same_results(boolean_program, main=study.entry)


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


def test_context_option_selects_legacy():
    program = parse_bool_program(INTERPROC)
    context = EngineContext(options=C2bpOptions(bebop_legacy=True))
    checker = Bebop(program, context=context)
    assert checker.legacy
    assert checker.run().statistics()["mode"] == "legacy"


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
    assert (
        second.run().all_invariants()
        == Bebop(after, legacy=True).run().all_invariants()
    )


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
    assert snapshot["bebop_reuse"]["transfers_reused"] > 0
    per_iteration = snapshot["iterations"]
    assert per_iteration[0]["bebop_transfers_reused"] == 0
    assert any(r["bebop_transfers_reused"] > 0 for r in per_iteration[1:])
    # The bebop section carries the BDD counters for --stats-json.
    assert "bdd" in snapshot["bebop"]
    assert snapshot["bebop"]["bdd"]["ite_calls"] > 0


def test_cegar_verdicts_match_legacy():
    from repro.programs import all_drivers

    driver = next(d for d in all_drivers() if d.name == "floppy")
    spec = SafetySpec.complete_exactly_once("IoCompleteRequest")
    fast = check_property(
        driver.source,
        spec,
        entry=driver.entry,
        max_iterations=8,
        context=EngineContext(options=C2bpOptions()),
    )
    legacy = check_property(
        driver.source,
        spec,
        entry=driver.entry,
        max_iterations=8,
        context=EngineContext(options=C2bpOptions(bebop_legacy=True)),
    )
    assert fast.verdict == legacy.verdict
    assert fast.iterations == legacy.iterations
