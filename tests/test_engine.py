"""The unified engine spine: context threading, shared prover cache,
stats registry, event bus, and the prover backend seam."""

import json

import pytest

from repro.cfront import cast as C
from repro.cfront import parse_c_program
from repro.core import C2bp, C2bpOptions, Predicate, PredicateSet
from repro.engine import EngineContext, StatsRegistry
from repro.prover import Prover, Satisfiability
from repro.newton import analyze_path
from repro.slam import SafetySpec, SlamToolkit, cegar_loop
from repro.slam.instrument import STATE_VAR, instrument_program

# The nPackets lock-discipline driver of examples/cegar_refinement.py:
# iteration 1 (state predicates only) reports a spurious double-acquire,
# Newton adds the data predicates, and iteration 2 validates.
NPACKETS_SOURCE = r"""
void main(void) {
    int nPackets, nPacketsOld, request;
    nPackets = 0;
    do {
        KeAcquireSpinLock();
        nPacketsOld = nPackets;
        request = *;
        if (request > 0) {
            KeReleaseSpinLock();
            nPackets = nPackets + 1;
        }
    } while (nPackets != nPacketsOld);
    KeReleaseSpinLock();
}
"""


def _npackets_setup():
    spec = SafetySpec.lock_discipline("KeAcquireSpinLock", "KeReleaseSpinLock")
    program = parse_c_program(NPACKETS_SOURCE, "npackets.c")
    instrument_program(program, spec, entry="main")
    predicates = PredicateSet()
    for index, _state in enumerate(spec.states):
        predicates.add(
            Predicate(C.BinOp("==", C.Id(STATE_VAR), C.IntLit(index)), None)
        )
    return program, predicates


def test_cross_iteration_cache_reuse():
    """Iteration 2 of the CEGAR loop re-issues strictly fewer raw prover
    calls than abstracting with a fresh prover, because the shared
    canonical-form cache already holds iteration 1's (and Newton's)
    answers."""
    program, predicates = _npackets_setup()
    context = EngineContext()
    result = cegar_loop(
        program, initial_predicates=predicates, main="main", context=context
    )
    assert result.verdict == "safe"
    assert len(result.iteration_stats) == 2
    second = result.iteration_stats[1]
    assert second["cache_hits"] > 0

    # Baseline: the same final abstraction built against a fresh prover
    # (no state carried over from iteration 1 or Newton).
    fresh = C2bp(program, result.predicates, context=EngineContext())
    fresh.run()
    assert second["prover_calls"] < fresh.stats.prover_calls


def test_per_iteration_stats_are_deltas():
    program, predicates = _npackets_setup()
    context = EngineContext()
    result = cegar_loop(
        program, initial_predicates=predicates, main="main", context=context
    )
    total_calls = sum(s["prover_calls"] for s in result.iteration_stats)
    assert total_calls == result.total_prover_calls
    assert result.iteration_stats[0]["error_reached"]
    assert not result.iteration_stats[1]["error_reached"]
    # The registry's iterations section mirrors the result's records.
    log = context.stats.snapshot()["iterations"]
    assert len(log) == len(result.iteration_stats)
    assert log[0]["prover_calls"] == result.iteration_stats[0]["prover_calls"]


def test_stats_registry_json_round_trip():
    program, predicates = _npackets_setup()
    context = EngineContext()
    cegar_loop(program, initial_predicates=predicates, main="main", context=context)
    text = context.stats.to_json()
    snapshot = StatsRegistry.from_json(text)
    assert snapshot == json.loads(text)
    for section in ("phases", "prover", "prover_cache", "c2bp", "bebop",
                    "iterations", "cegar", "events"):
        assert section in snapshot
    assert snapshot["cegar"]["verdict"] == "safe"
    assert snapshot["phases"]["c2bp"]["count"] == 2
    assert snapshot["prover"]["calls"] == snapshot["cegar"]["total_prover_calls"]
    # The snapshot is stable under a second serialization.
    assert json.loads(context.stats.to_json()) == snapshot


def test_event_bus_records_pipeline_events():
    program, predicates = _npackets_setup()
    context = EngineContext()
    seen = []
    context.events.subscribe(lambda event: seen.append(event["kind"]))
    cegar_loop(program, initial_predicates=predicates, main="main", context=context)
    kinds = {event["kind"] for event in context.events.events}
    assert {"phase-start", "phase-end", "prover-query", "cube-test",
            "c2bp-procedure", "cegar-iteration"} <= kinds
    assert set(seen) == kinds
    iterations = context.events.of_kind("cegar-iteration")
    assert [event["iteration"] for event in iterations] == [1, 2]
    cached = [e for e in context.events.of_kind("prover-query") if e["cached"]]
    assert cached, "shared cache should answer some queries"


@pytest.mark.parametrize(
    "keyword", [{"options": C2bpOptions()}, {"prover": Prover()}],
    ids=["options", "prover"],
)
def test_entry_points_reject_loose_configuration_keywords(keyword):
    """The engine context is the only configuration channel: a loose
    ``options=`` or ``prover=`` keyword is a TypeError at every entry
    point, never silently ignored beside a ``context=``."""
    program, predicates = _npackets_setup()
    spec = SafetySpec.lock_discipline("KeAcquireSpinLock", "KeReleaseSpinLock")
    calls = [
        lambda: C2bp(program, predicates, context=EngineContext(), **keyword),
        lambda: cegar_loop(program, initial_predicates=predicates, **keyword),
        lambda: SlamToolkit(NPACKETS_SOURCE).check(spec, **keyword),
        lambda: analyze_path(program, [], **keyword),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()


@pytest.mark.parametrize("jobs", [0, 2])
def test_jobs_other_than_one_is_rejected(jobs):
    """The statement worker pool is gone: a stale job count fails loudly
    instead of being silently ignored."""
    with pytest.raises(ValueError, match="worker pool"):
        C2bpOptions(jobs=jobs)
    with pytest.raises(ValueError, match="worker pool"):
        C2bpOptions().copy(jobs=jobs)
    assert C2bpOptions(jobs=1).jobs == 1


def test_backend_registry():
    """Backends are objects, not registered names: any object with the
    check methods answers the context's implication queries."""

    class AlwaysUnknown:
        name = "always-unknown"

        def check_implication(self, antecedents, consequent):
            return Satisfiability.UNKNOWN

        def check_satisfiable(self, exprs):
            return Satisfiability.UNKNOWN

    context = EngineContext(backend=AlwaysUnknown())
    x = C.Id("x")
    assert not context.prover.implies([x], x)
    assert context.prover.stats.unknown == 1
