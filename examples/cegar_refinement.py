#!/usr/bin/env python3
"""Watching the SLAM CEGAR loop refine an abstraction, iteration by
iteration, on the classic nPackets example.

With only the property-automaton state predicates, the abstraction cannot
see that the loop exits exactly when the lock was *not* released — Bebop
reports a (spurious) double-acquire. Newton walks the reported path in the
concrete C semantics, proves it infeasible, extracts the data predicates
that refute it, and the refined abstraction validates the driver.

Run:  python examples/cegar_refinement.py
"""

from repro import Bebop, C2bp, EngineContext, ExplicitEngine
from repro.cfront import cast as C
from repro.cfront import parse_c_program
from repro.core import Predicate, PredicateSet
from repro.newton import analyze_path, path_from_boolean_steps
from repro.slam import SafetySpec
from repro.slam.instrument import STATE_VAR, instrument_program

SOURCE = r"""
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


def main():
    spec = SafetySpec.lock_discipline("KeAcquireSpinLock", "KeReleaseSpinLock")
    program = parse_c_program(SOURCE, "npackets.c")
    instrument_program(program, spec, entry="main")

    predicates = PredicateSet()
    for index, state in enumerate(spec.states):
        predicates.add(
            Predicate(C.BinOp("==", C.Id(STATE_VAR), C.IntLit(index)), None)
        )
    # One context for every iteration: C2bp and Newton share its prover
    # and query cache.
    context = EngineContext()

    for iteration in range(1, 9):
        print("=== iteration %d ===" % iteration)
        print(
            "predicates: %s"
            % ", ".join(
                "%s@%s" % (p.name, p.scope or "global")
                for p in predicates.all_predicates()
            )
        )
        tool = C2bp(program, predicates, context=context)
        boolean_program = tool.run()
        result = Bebop(boolean_program, main="main").run()
        print("C2bp: %d prover calls; Bebop: error reachable = %s"
              % (tool.stats.prover_calls, result.error_reached))
        if not result.error_reached:
            print()
            print("VALIDATED: the abstraction proves lock discipline.")
            return
        bool_path = ExplicitEngine(boolean_program, main="main").find_assertion_failure()
        c_path = path_from_boolean_steps(program, bool_path)
        print("Bebop counterexample (%d steps); asking Newton ..." % len(c_path))
        verdict = analyze_path(
            program, c_path, existing_predicates=predicates, context=context
        )
        if verdict.feasible:
            print("Newton: the path is FEASIBLE — a real bug.")
            return
        names = [p.name for p in verdict.new_predicates]
        print("Newton: path infeasible; new predicates: %s" % ", ".join(names))
        for predicate in verdict.new_predicates:
            predicates.add(predicate)
        print()
    print("iteration bound reached (don't know)")


if __name__ == "__main__":
    main()
