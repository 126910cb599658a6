"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cegar-generated --seed 1 \
        --seconds 45 --trace 0

Run from the root of a source checkout; the ``repro`` package is
imported from its ``src/`` directory.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds
diagnostics (host-speed probe, set-up samples, round times, core count).
A traced run also writes its spans to
``.perfbench-run/trace-<workload>-<seed>.json``.

``--setup-only`` sets the workload up, tears it down and prints only
``{"setup_s": ...}``: the harness runs it in child processes to time
cold set-ups.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("cegar-generated", "serve-edit-loop")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no repro package under %s\n" % src)
        return 2
    sys.path[:0] = [src, HERE]
    os.chdir(ROOT)

    import harness

    workdir = harness.fresh_workdir(ROOT, args.workload)
    if args.setup_only:
        try:
            setup_s = harness.setup_only(args.workload, args.seed, STARTED, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        line, diagnostics, spans = harness.run(
            args.workload, args.seed, args.seconds, args.trace, STARTED, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if spans is not None:
        path = os.path.join(
            ROOT, ".perfbench-run", "trace-%s-%d.json" % (args.workload, args.seed)
        )
        with open(path, "w") as handle:
            json.dump({"fields": ["layer", "start", "end", "parent", "job"],
                       "spans": spans}, handle, separators=(",", ":"))
        diagnostics["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
