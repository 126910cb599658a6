"""The ``repro serve`` daemon under the benchmark's layer tracing.

    python3 perfbench/daemon.py TRACE_OUT --socket PATH --cache-dir DIR

The traced run of ``serve-edit-loop`` starts the daemon through this
script, so the layers that run inside the daemon are timed and counted
as in the in-process workloads.  A ``ping`` request starts the recording
afresh (the client pings once priming is done), and on shutdown the
per-layer self times and counters recorded since the last ping are
written to ``TRACE_OUT`` as JSON.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

# Imported before the tracer patches, so their by-name bindings are found.
import repro.bmc  # noqa: E402,F401
import repro.cli  # noqa: E402
from repro.serve.server import ReproServer  # noqa: E402

import tracing  # noqa: E402


def main(argv):
    out_path, serve_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    ping = ReproServer._op_ping

    def ping_and_restart(server, request):
        # The benchmark's one client pings only between requests, so no
        # span is open here.
        tracer.reset()
        return ping(server, request)

    ReproServer._op_ping = ping_and_restart
    with tracer:
        code = repro.cli.main(["serve"] + serve_args)
    with open(out_path, "w") as handle:
        json.dump({"self_times": tracer.self_times(), "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
