"""Command-line interface: the toolkit as the paper's users saw it.

Subcommands mirror the SLAM components:

- ``abstract``  — run C2bp: C program + predicate file -> boolean program;
- ``check``     — abstract then model check with Bebop; print invariants;
- ``slam``      — check a temporal safety property with the CEGAR loop;
- ``replay``    — soundness replay of a concrete run inside BP(P, E);
- ``bebop``     — model check an existing boolean program (.bp) file.

Examples::

    python -m repro abstract partition.c partition.preds
    python -m repro check partition.c partition.preds --entry partition --label L
    python -m repro slam driver.c --lock KeAcquireSpinLock KeReleaseSpinLock
    python -m repro bebop program.bp --entry main

Every subcommand accepts ``--stats-json PATH`` (the unified
:class:`repro.engine.StatsRegistry` snapshot) and ``--trace-json PATH``
(the recorded event stream) for offline analysis.
"""

import argparse
import sys

from repro.analysis import memoized_program
from repro.bebop import Bebop
from repro.boolprog import parse_bool_program, print_bool_program
from repro.cfront import CFrontError, parse_c_program
from repro.core import C2bp, C2bpOptions, parse_predicate_file
from repro.core.replay import TraceReplayer
from repro.engine import EngineContext
from repro.slam import SafetySpec, check_property


def _read(path):
    with open(path) as handle:
        return handle.read()


def _add_option_flags(parser):
    """One CLI flag per :class:`C2bpOptions` knob (ablation switches)."""
    parser.add_argument(
        "--max-cube-length",
        type=int,
        default=3,
        help="cube length bound k (default 3; 0 means unbounded)",
    )
    parser.add_argument(
        "--no-cone", action="store_true", help="disable the cone of influence"
    )
    parser.add_argument(
        "--no-skip-unchanged",
        action="store_true",
        help="translate assignments even when the WP is syntactically unchanged",
    )
    parser.add_argument(
        "--no-syntactic-heuristics",
        action="store_true",
        help="disable the syntactic F/G shortcuts (always call the prover)",
    )
    parser.add_argument(
        "--no-prover-cache",
        action="store_true",
        help="disable theorem prover query caching",
    )
    parser.add_argument(
        "--distribute-f",
        action="store_true",
        help="distribute F through && and || (faster, may lose precision)",
    )
    parser.add_argument(
        "--no-enforce", action="store_true", help="skip the enforce invariant"
    )
    parser.add_argument(
        "--enforce-cube-length",
        type=int,
        default=3,
        help="cube length bound for the enforce computation (default 3)",
    )
    parser.add_argument(
        "--no-alias", action="store_true", help="ignore the points-to analysis"
    )
    parser.add_argument(
        "--no-invalidate-derefs",
        action="store_true",
        help="keep (rather than invalidate) predicates whose WP dereferences a constant",
    )
    parser.add_argument(
        "--validate-bp",
        action="store_true",
        help="run the boolean-program validator on BP(P, E) before using it "
        "(debug aid: malformed output fails at generation time)",
    )
    parser.add_argument(
        "--no-analysis",
        action="store_true",
        help="disable the whole static-analysis subsystem (liveness "
        "pruning, interval discharge, BP dead-variable elimination, "
        "cross-iteration abstraction reuse)",
    )
    parser.add_argument(
        "--no-live-predicates",
        action="store_true",
        help="disable live-predicate pruning (always run the cube search "
        "for every (statement, predicate) slot)",
    )
    parser.add_argument(
        "--no-intervals",
        action="store_true",
        help="disable the interval abstract interpreter (no pre-prover "
        "query discharge, no Newton-stall candidate predicates)",
    )
    parser.add_argument(
        "--no-bp-dce",
        action="store_true",
        help="model check the full boolean program instead of the "
        "dead-variable-eliminated one",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed persistent cache root: prover answers, "
        "statement abstractions, and compiled Bebop tables survive the "
        "process (created on first use; output is byte-identical with "
        "or without it)",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        metavar="N",
        help="LRU byte cap for the persistent cache (default: uncapped)",
    )
    parser.add_argument(
        "--bmc-depth",
        type=int,
        default=16,
        metavar="K",
        help="unwinding depth of the BMC run a stalled CEGAR loop falls "
        "back to (default 16)",
    )
    parser.add_argument(
        "--bmc-width",
        type=int,
        default=16,
        metavar="W",
        help="bit width of the BMC run a stalled CEGAR loop falls back to "
        "(default 16)",
    )


def _options_from(args):
    return C2bpOptions(
        max_cube_length=(args.max_cube_length or None),
        cone_of_influence=not args.no_cone,
        skip_unchanged=not args.no_skip_unchanged,
        syntactic_heuristics=not args.no_syntactic_heuristics,
        cache_prover=not args.no_prover_cache,
        distribute_f=args.distribute_f,
        compute_enforce=not args.no_enforce,
        enforce_cube_length=args.enforce_cube_length,
        use_alias_analysis=not args.no_alias,
        invalidate_constant_derefs=not args.no_invalidate_derefs,
        use_analysis=not args.no_analysis,
        live_predicates=not args.no_live_predicates,
        intervals=not args.no_intervals,
        bp_dce=not args.no_bp_dce,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        validate_output=args.validate_bp,
        bmc_depth=args.bmc_depth,
        bmc_width=args.bmc_width,
    )


def _add_instrument_flags(parser):
    parser.add_argument(
        "--stats-json",
        metavar="PATH",
        help="write the unified stats registry snapshot to PATH as JSON",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        help="write the recorded engine event stream to PATH as JSON",
    )


def _write_instrumentation(args, context):
    if getattr(args, "stats_json", None):
        with open(args.stats_json, "w") as handle:
            handle.write(context.stats.to_json())
            handle.write("\n")
    if getattr(args, "trace_json", None):
        with open(args.trace_json, "w") as handle:
            handle.write(context.events.to_json())
            handle.write("\n")


# The subcommand cores below take (context, texts, out) so the same code
# path serves two callers: the local handlers and the ``repro serve``
# daemon (whose warm context carries the shared persistent cache).  The
# ``--remote`` output is byte-identical to a local run *because* both run
# exactly these functions.


def _program(context, source, name):
    """The lowered program and its facts (memoized on the context's
    store, when it has one: read-only from here on)."""
    return memoized_program(
        context, source, lambda: parse_c_program(source, name=name), "c", name
    )


def run_abstract(context, source, predicates_text, out, name="<input>"):
    program, facts = _program(context, source, name)
    predicates = parse_predicate_file(predicates_text, program)
    tool = C2bp(program, predicates, context=context, facts=facts)
    boolean_program = tool.run()
    out.write(print_bool_program(boolean_program))
    out.write(
        "\n// %d predicates, %d theorem prover calls, %.2fs\n"
        % (len(predicates), tool.stats.prover_calls, tool.stats.seconds)
    )
    return 0


def run_check(
    context, source, predicates_text, out, name="<input>", entry="main",
    labels=(),
):
    program, facts = _program(context, source, name)
    predicates = parse_predicate_file(predicates_text, program)
    tool = C2bp(program, predicates, context=context, facts=facts)
    boolean_program = tool.run()
    # Labeled invariant queries observe every predicate, so DCE only
    # applies to plain reachability checks.
    if tool.analysis is not None and context.options.bp_dce and not labels:
        from repro.analysis import eliminate_dead_variables

        boolean_program, _ = eliminate_dead_variables(
            boolean_program, stats=context.analysis_stats
        )
    result = Bebop(boolean_program, main=entry, context=context).run()
    for label in labels or ():
        proc, _, label_name = label.rpartition(":")
        proc = proc or entry
        out.write(
            "%s/%s: %s\n"
            % (proc, label_name, result.invariant_string(proc, label=label_name))
        )
    if result.assertion_failures:
        out.write(
            "%d assert(s) not discharged:\n" % len(result.assertion_failures)
        )
        for proc, node, _ in result.assertion_failures:
            out.write("  %s: %s\n" % (proc, node.stmt.comment or "assert"))
        return 1
    out.write("all asserts discharged.\n")
    return 0


def run_bmc_cmd(
    context, source, out, name="<input>", entry="main", depth=16, width=32
):
    """Bounded model checking as a standalone verdict: unroll to ``depth``,
    bit-blast at ``width``, report the verdict and any concrete witness."""
    from repro.bmc import (
        VERDICT_UNSAFE,
        VERDICT_UNSUPPORTED,
        replay_witness,
        run_bmc,
    )

    program = parse_c_program(source, name=name)
    result = run_bmc(
        program, entry=entry, depth=depth, width=width, context=context
    )
    out.write(
        "verdict: %s (depth %d, width %d)\n"
        % (result.verdict, result.depth, result.width)
    )
    out.write(
        "formula: %d vars, %d gates, %d clauses, %d assert site(s), "
        "%d unwinding cut(s)\n"
        % (result.vars, result.gates, result.clauses, result.errors, result.cuts)
    )
    out.write(
        "time: %.3fs encode, %.3fs solve\n"
        % (result.encode_seconds, result.solve_seconds)
    )
    if result.verdict == VERDICT_UNSUPPORTED:
        out.write("unsupported: %s\n" % result.reason)
        return 2
    if result.verdict == VERDICT_UNSAFE:
        witness = result.witness
        site = witness.site
        if site is not None:
            out.write(
                "failing assert in %s at %s\n" % (site.func_name, site.stmt.pos)
            )
        out.write("witness args: %r\n" % (witness.entry_args(),))
        if witness.externs:
            out.write("witness extern/* values: %r\n" % (witness.externs,))
        out.write(
            "witness replay: %s\n"
            % replay_witness(program, entry, witness, width)
        )
        return 1
    return 0


def run_slam(context, source, spec, out, entry="main", max_iterations=10):
    result = check_property(
        source, spec, entry=entry, max_iterations=max_iterations, context=context
    )
    out.write(
        "verdict: %s (after %d iteration(s), %d predicates)\n"
        % (result.verdict, result.iterations, len(result.predicates))
    )
    if getattr(result.cegar, "bounded_verdict", None) is not None:
        out.write(
            "bounded verdict: %s (bmc depth %d)\n"
            % (result.cegar.bounded_verdict, result.cegar.bmc_depth)
        )
    for record in result.cegar.iteration_stats:
        out.write(
            "  iteration %d: %d predicates, %d prover calls"
            " (%d of %d queries answered from cache)\n"
            % (
                record.iteration,
                record.predicates,
                record.prover_calls,
                record.cache_hits,
                record.prover_queries,
            )
        )
    if result.verdict == "unsafe":
        out.write("error trace:\n")
        for line in result.error_trace_lines():
            out.write("  %s\n" % line)
    return 0 if result.verdict == "safe" else 1


def _slam_spec(args, out):
    if args.lock:
        acquire, release = args.lock
        return SafetySpec.lock_discipline(acquire, release)
    if args.complete_once:
        return SafetySpec.complete_exactly_once(args.complete_once)
    out.write("error: choose a property (--lock A R | --complete-once F)\n")
    return None


def _remote(args, op, request, out):
    """Ship ``request`` to a ``repro serve`` daemon and relay its reply."""
    import dataclasses
    import json

    from repro.serve.client import ServeClient

    request = dict(request)
    request["op"] = op
    request["options"] = dataclasses.asdict(_options_from(args))
    request["want_stats"] = bool(getattr(args, "stats_json", None))
    request["want_trace"] = bool(getattr(args, "trace_json", None))
    with ServeClient.from_address(args.remote) as client:
        response = client.request(request)
    if not response.get("ok"):
        out.write("remote error: %s\n" % response.get("error", "unknown"))
        return 2
    out.write(response.get("output", ""))
    if getattr(args, "stats_json", None):
        with open(args.stats_json, "w") as handle:
            json.dump(response.get("stats"), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if getattr(args, "trace_json", None):
        with open(args.trace_json, "w") as handle:
            json.dump(response.get("trace"), handle, indent=2)
            handle.write("\n")
    return response.get("exit_code", 0)


def _abstract(args, out):
    if getattr(args, "remote", None):
        return _remote(
            args,
            "abstract",
            {
                "source": _read(args.program),
                "predicates": _read(args.predicates),
                "name": args.program,
            },
            out,
        )
    with EngineContext(options=_options_from(args)) as context:
        code = run_abstract(
            context, _read(args.program), _read(args.predicates), out,
            name=args.program,
        )
        _write_instrumentation(args, context)
    return code


def _check(args, out):
    if getattr(args, "remote", None):
        return _remote(
            args,
            "check",
            {
                "source": _read(args.program),
                "predicates": _read(args.predicates),
                "name": args.program,
                "entry": args.entry,
                "labels": args.label or [],
            },
            out,
        )
    with EngineContext(options=_options_from(args)) as context:
        code = run_check(
            context, _read(args.program), _read(args.predicates), out,
            name=args.program, entry=args.entry, labels=args.label or (),
        )
        _write_instrumentation(args, context)
    return code


def _slam(args, out):
    spec = _slam_spec(args, out)
    if spec is None:
        return 2
    if getattr(args, "remote", None):
        request = {
            "source": _read(args.program),
            "entry": args.entry,
            "max_iterations": args.max_iterations,
        }
        if args.lock:
            request["lock"] = list(args.lock)
        else:
            request["complete_once"] = args.complete_once
        return _remote(args, "slam", request, out)
    with EngineContext(options=_options_from(args)) as context:
        code = run_slam(
            context, _read(args.program), spec, out,
            entry=args.entry, max_iterations=args.max_iterations,
        )
        _write_instrumentation(args, context)
    return code


def _replay(args, out):
    program = parse_c_program(_read(args.program), name=args.program)
    predicates = parse_predicate_file(_read(args.predicates), program)
    with EngineContext(options=_options_from(args)) as context:
        tool = C2bp(program, predicates, context=context)
        boolean_program = tool.run()
        report = TraceReplayer(
            tool, boolean_program, entry=args.entry, args=[int(a) for a in args.args]
        ).run()
        out.write("replayed %d events\n" % report.events_replayed)
        _write_instrumentation(args, context)
    if report.ok:
        out.write("trace replays soundly in BP(P, E).\n")
        return 0
    if report.blocked is not None:
        out.write("SOUNDNESS VIOLATION: blocked at %r\n" % (report.blocked,))
    for violation in report.violations:
        out.write("SOUNDNESS VIOLATION: %s\n" % violation.detail)
    return 1


def _bebop(args, out):
    boolean_program = parse_bool_program(_read(args.program))
    context = EngineContext()
    result = Bebop(boolean_program, main=args.entry, context=context).run()
    if args.label:
        for name in args.label:
            proc, _, label = name.rpartition(":")
            proc = proc or args.entry
            out.write(
                "%s/%s: %s\n" % (proc, label, result.invariant_string(proc, label=label))
            )
    _write_instrumentation(args, context)
    if result.error_reached:
        out.write("assertion failure reachable.\n")
        return 1
    out.write("no assertion failure reachable.\n")
    return 0


def _bmc(args, out):
    with EngineContext(options=_options_from(args)) as context:
        code = run_bmc_cmd(
            context, _read(args.program), out, name=args.program,
            entry=args.entry, depth=args.depth, width=args.width,
        )
        _write_instrumentation(args, context)
    return code


def _fuzz(args, out):
    from repro.fuzz import FuzzSession, SoundnessOracle

    session = FuzzSession(
        seed=args.fuzz_seed,
        oracle=SoundnessOracle(explicit_budget=args.explicit_budget),
        shrink=args.shrink,
        corpus_dir=args.corpus_dir,
        bit_weight=args.bit_weight,
        max_shrink_attempts=args.max_shrink_attempts,
        progress=(
            (lambda case, report: out.write(
                "%s: %s\n" % (case.name, "ok" if report.ok else report.kind)
            ))
            if args.verbose
            else None
        ),
    )
    result = session.run(args.count, start=args.start)
    for line in result.summary_lines():
        out.write(line + "\n")
    return 0 if result.ok else 1


def _serve(args, out):
    from repro.serve.server import ReproServer, run_server

    server = ReproServer(
        socket_path=args.socket,
        tcp=args.tcp,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
    )
    return run_server(server, out=out)


def _add_remote_flag(parser):
    parser.add_argument(
        "--remote",
        metavar="ADDR",
        help="run on a `repro serve` daemon instead of in-process: a unix "
        "socket path, or tcp:HOST:PORT (output is byte-identical to a "
        "local run; the daemon's warm caches do the work)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="C2bp / Bebop / SLAM — predicate abstraction of C programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_abstract = sub.add_parser("abstract", help="C2bp: produce BP(P, E)")
    p_abstract.add_argument("program", help="C source file")
    p_abstract.add_argument("predicates", help="predicate input file")
    _add_option_flags(p_abstract)
    _add_instrument_flags(p_abstract)
    _add_remote_flag(p_abstract)
    p_abstract.set_defaults(func=_abstract)

    p_check = sub.add_parser("check", help="abstract + model check")
    p_check.add_argument("program")
    p_check.add_argument("predicates")
    p_check.add_argument("--entry", default="main")
    p_check.add_argument(
        "--label",
        action="append",
        help="print the invariant at LABEL (or PROC:LABEL); repeatable",
    )
    _add_option_flags(p_check)
    _add_instrument_flags(p_check)
    _add_remote_flag(p_check)
    p_check.set_defaults(func=_check)

    p_slam = sub.add_parser("slam", help="check a temporal safety property")
    p_slam.add_argument("program")
    p_slam.add_argument("--entry", default="main")
    p_slam.add_argument(
        "--lock",
        nargs=2,
        metavar=("ACQUIRE", "RELEASE"),
        help="lock-discipline property over these interface functions",
    )
    p_slam.add_argument(
        "--complete-once",
        metavar="FUNC",
        help="FUNC must not be called twice (IRP-style completion)",
    )
    p_slam.add_argument("--max-iterations", type=int, default=10)
    _add_option_flags(p_slam)
    _add_instrument_flags(p_slam)
    _add_remote_flag(p_slam)
    p_slam.set_defaults(func=_slam)

    p_replay = sub.add_parser("replay", help="soundness trace replay")
    p_replay.add_argument("program")
    p_replay.add_argument("predicates")
    p_replay.add_argument("--entry", default="main")
    p_replay.add_argument("--args", nargs="*", default=[], help="integer arguments")
    _add_option_flags(p_replay)
    _add_instrument_flags(p_replay)
    p_replay.set_defaults(func=_replay)

    p_fuzz = sub.add_parser(
        "fuzz", help="generative soundness fuzzing (Theorem 1 + differentials)"
    )
    p_fuzz.add_argument(
        "--count", type=int, default=50, help="number of cases (default 50)"
    )
    p_fuzz.add_argument(
        "--fuzz-seed", default="0", help="generator seed (default 0)"
    )
    p_fuzz.add_argument(
        "--start", type=int, default=0, help="first case index (default 0)"
    )
    p_fuzz.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug any failing case to a minimal reproducer",
    )
    p_fuzz.add_argument(
        "--corpus-dir",
        metavar="DIR",
        help="write shrunk failures to DIR as corpus JSON entries",
    )
    p_fuzz.add_argument(
        "--explicit-budget",
        type=int,
        default=60_000,
        help="explicit-state engine config budget per case (default 60000)",
    )
    p_fuzz.add_argument(
        "--max-shrink-attempts",
        type=int,
        default=600,
        help="oracle evaluations the shrinker may spend per failure",
    )
    p_fuzz.add_argument(
        "--bit-weight",
        action="store_true",
        help="generator also emits bitwise expressions (& | <<) and "
        "near-INT16_MAX constants, exercising the bmc-divergence oracle's "
        "overflow scenarios",
    )
    p_fuzz.add_argument(
        "--verbose", action="store_true", help="print a line per case"
    )
    p_fuzz.set_defaults(func=_fuzz)

    p_bmc = sub.add_parser(
        "bmc",
        help="bounded model checking: bit-precise SAT check of every "
        "assert to an unwinding depth (an independent second verdict)",
    )
    p_bmc.add_argument("program", help="C source file")
    p_bmc.add_argument("--entry", default="main")
    p_bmc.add_argument(
        "--depth",
        type=int,
        default=16,
        metavar="K",
        help="unwinding bound on back-edge traversals and recursive "
        "re-entries per function instance (default 16)",
    )
    p_bmc.add_argument(
        "--width",
        type=int,
        default=32,
        metavar="W",
        help="bit width of the two's-complement integers (default 32)",
    )
    _add_option_flags(p_bmc)
    _add_instrument_flags(p_bmc)
    p_bmc.set_defaults(func=_bmc)

    p_serve = sub.add_parser(
        "serve",
        help="verification daemon: warm caches, batched requests over a "
        "unix socket (see --remote on abstract/check/slam)",
    )
    p_serve.add_argument(
        "--socket",
        default="repro-serve.sock",
        metavar="PATH",
        help="unix socket to listen on (default ./repro-serve.sock)",
    )
    p_serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="additionally listen on a TCP address",
    )
    p_serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent cache root shared by every request (without it "
        "the daemon still shares its warm in-memory caches)",
    )
    p_serve.add_argument(
        "--cache-max-bytes",
        type=int,
        metavar="N",
        help="LRU byte cap for the persistent cache",
    )
    p_serve.set_defaults(func=_serve)

    p_bebop = sub.add_parser("bebop", help="model check a boolean program (.bp)")
    p_bebop.add_argument("program", help="boolean program file")
    p_bebop.add_argument("--entry", default="main")
    p_bebop.add_argument("--label", action="append")
    _add_instrument_flags(p_bebop)
    p_bebop.set_defaults(func=_bebop)

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except CFrontError as error:
        # A malformed input program is a usage error, not a crash.  The
        # path is the command line's: `slam` parses under a placeholder name.
        out.write(
            "error: %s:%d:%d: %s\n"
            % (
                getattr(args, "program", error.pos.source_name),
                error.pos.line,
                error.pos.column,
                error.message,
            )
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
