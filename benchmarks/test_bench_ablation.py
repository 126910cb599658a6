"""Section 5.2 ablations: what each optimization buys.

The paper: "The method described above ... is impractical without several
important optimizations" and "the above optimizations dramatically reduce
the number of calls made to the theorem prover in most examples".  It also
describes two precision-trading knobs (cube length bound k, distributing F
through && and ||).

This bench toggles each knob on the partition and listfind studies and
regenerates a table of theorem prover calls, asserting the qualitative
claims:

- disabling the cone of influence increases prover calls;
- disabling the WP-unchanged skip increases prover calls;
- disabling caching increases actual prover invocations;
- k = 3 suffices for full precision on these examples (same boolean
  program as unbounded k);
- all ablated configurations stay *sound* (their boolean programs still
  validate the partition invariant).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

pytestmark = pytest.mark.bench

from _tables import write_table

from repro import (
    Bebop,
    C2bp,
    C2bpOptions,
    EngineContext,
    parse_c_program,
    parse_predicate_file,
)
from repro.programs import get_program

CONFIGS = [
    ("baseline", {}),
    ("no cone of influence", {"cone_of_influence": False}),
    ("no WP-unchanged skip", {"skip_unchanged": False}),
    ("no syntactic shortcut", {"syntactic_heuristics": False}),
    ("no prover cache", {"cache_prover": False}),
    ("cube length k=1", {"max_cube_length": 1}),
    ("cube length k=2", {"max_cube_length": 2}),
    ("cube length unbounded", {"max_cube_length": None}),
    ("distribute F over &&/||", {"distribute_f": True}),
    ("no alias analysis", {"use_alias_analysis": False}),
]


def _run(study_name, overrides):
    study = get_program(study_name)
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    options = C2bpOptions(**overrides)
    tool = C2bp(program, predicates, context=EngineContext(options=options))
    boolean_program = tool.run()
    return tool, boolean_program


def _ablate(study_name):
    rows = {}
    for label, overrides in CONFIGS:
        tool, boolean_program = _run(study_name, overrides)
        rows[label] = (tool.stats.prover_calls, boolean_program)
    return rows


def test_ablation_partition(benchmark):
    rows = benchmark.pedantic(lambda: _ablate("partition"), rounds=1, iterations=1)
    table = [
        [label, calls] for label, (calls, _) in rows.items()
    ]
    write_table(
        "ablation_partition",
        ["configuration", "thm. prover calls"],
        table,
        notes=[
            "Section 5.2: the exact optimizations leave BP(P, E) "
            "semantically unchanged; k-bounded cubes and F-distribution "
            "may lose precision but never soundness.",
        ],
    )
    baseline_calls, _ = rows["baseline"]
    assert rows["no cone of influence"][0] >= baseline_calls
    # The WP-unchanged skip can be fully shadowed by the syntactic
    # shortcut + cache on small examples; it must never *add* calls.
    assert rows["no WP-unchanged skip"][0] >= baseline_calls
    assert rows["no prover cache"][0] > baseline_calls
    assert rows["no alias analysis"][0] > baseline_calls
    assert rows["cube length k=1"][0] <= baseline_calls
    # Every configuration is sound (L stays reachable: the concrete traces
    # through L must survive any over-approximation), and k=3 (the
    # default) is as precise as unbounded k here ("setting k to 3 provides
    # the needed precision in most cases").  Precision-losing knobs may
    # compute weaker invariants — that is their documented trade.
    invariants = {}
    for label, (_, boolean_program) in rows.items():
        result = Bebop(boolean_program, main="partition").run()
        cubes = result.invariant_cubes("partition", label="L")
        assert cubes, label  # L reachable under every configuration
        invariants[label] = result.invariant_string("partition", label="L")
    assert invariants["baseline"] == invariants["cube length unbounded"]
    # The exact optimizations preserve the Section 2.2 invariant.
    for cube_source in ("baseline", "no WP-unchanged skip", "no prover cache"):
        _, boolean_program = rows[cube_source]
        result = Bebop(boolean_program, main="partition").run()
        for cube in result.invariant_cubes("partition", label="L"):
            assert cube["curr==0"] is False, cube_source
            assert cube["curr->val>v"] is True, cube_source


def test_ablation_cache_counts(benchmark):
    def run():
        cached, _ = _run("listfind", {})
        uncached, _ = _run("listfind", {"cache_prover": False})
        return cached, uncached

    cached, uncached = benchmark.pedantic(run, rounds=1, iterations=1)
    write_table(
        "ablation_cache",
        ["configuration", "queries", "actual calls", "cache hits"],
        [
            [
                "cache on",
                cached.stats.prover_queries,
                cached.stats.prover_calls,
                cached.stats.prover_cache_hits,
            ],
            [
                "cache off",
                uncached.stats.prover_queries,
                uncached.stats.prover_calls,
                uncached.stats.prover_cache_hits,
            ],
        ],
    )
    assert cached.stats.prover_calls < uncached.stats.prover_calls
    assert cached.stats.prover_cache_hits > 0
