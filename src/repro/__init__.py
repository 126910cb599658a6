"""repro — a from-scratch reproduction of

    Ball, Majumdar, Millstein, Rajamani.
    "Automatic Predicate Abstraction of C Programs", PLDI 2001.

The package implements the paper's full toolchain:

- a C front end producing the paper's intermediate form (:mod:`repro.cfront`);
- a flow-insensitive points-to analysis (:mod:`repro.pointers`);
- a theorem prover for the quantifier-free predicate logic
  (:mod:`repro.prover`);
- **C2bp**, the predicate abstractor (:mod:`repro.core`);
- boolean programs (:mod:`repro.boolprog`) and a BDD package
  (:mod:`repro.bdd`);
- **Bebop**, the boolean-program model checker (:mod:`repro.bebop`);
- **Newton**, predicate discovery from spurious paths (:mod:`repro.newton`);
- the **SLAM** toolkit for temporal safety properties (:mod:`repro.slam`);
- the unified engine spine — context, events, stats
  (:mod:`repro.engine`);
- the experiment corpus (:mod:`repro.programs`).

Typical use::

    from repro import parse_c_program, parse_predicate_file, C2bp, Bebop

    program = parse_c_program(source)
    predicates = parse_predicate_file(predicate_text, program)
    boolean_program = C2bp(program, predicates).run()
    result = Bebop(boolean_program, main="main").run()
    print(result.invariant_string("main", label="L"))

or, for property checking::

    from repro import SafetySpec, check_property

    spec = SafetySpec.lock_discipline("KeAcquireSpinLock",
                                      "KeReleaseSpinLock")
    verdict = check_property(driver_source, spec)
"""

from repro.cfront import parse_c_program, parse_expression, pretty_program
from repro.pointers import PointsToAnalysis
from repro.prover import Prover, Satisfiability
from repro.boolprog import parse_bool_program, print_bool_program
from repro.bebop import Bebop, ExplicitEngine
from repro.core import (
    C2bp,
    C2bpOptions,
    Predicate,
    PredicateSet,
    parse_predicate_file,
)
from repro.core.replay import TraceReplayer
from repro.engine import EngineContext, EventBus, StatsRegistry
from repro.newton import analyze_path, path_from_boolean_steps
from repro.slam import SafetySpec, SlamToolkit, cegar_loop, check_property

__version__ = "0.1.0"

__all__ = [
    "Bebop",
    "C2bp",
    "C2bpOptions",
    "EngineContext",
    "EventBus",
    "ExplicitEngine",
    "PointsToAnalysis",
    "Predicate",
    "PredicateSet",
    "Prover",
    "SafetySpec",
    "Satisfiability",
    "SlamToolkit",
    "StatsRegistry",
    "TraceReplayer",
    "analyze_path",
    "cegar_loop",
    "check_property",
    "parse_bool_program",
    "parse_c_program",
    "parse_expression",
    "parse_predicate_file",
    "path_from_boolean_steps",
    "pretty_program",
    "print_bool_program",
]
