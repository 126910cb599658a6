"""Layer spans for the benchmark's traced runs.

The traced run wraps the public entry points of each layer of the
``repro`` package, from the benchmark's own code: nothing under ``src/``
knows it is being traced.  A function is patched everywhere a caller
looks it up (``repro.newton.analyze_path`` *and* the copy that
``repro.slam.cegar`` imported by name); a method is patched on its class.

Each call records one span ``[layer, start, end, parent, job]``.  Spans
stay in memory and are written out when the run ends.  A layer's self
time is the duration of its spans minus the part their child spans
cover.
"""

import functools
import importlib
import sys
import time

# (module, attribute, layer): module-level functions, patched in every
# ``repro`` module that holds a binding to the same object.
FUNCTIONS = (
    ("repro.cfront", "parse_c_program", "cfront"),
    ("repro.core.predicates", "parse_predicate_file", "core"),
    ("repro.analysis.bpdce", "eliminate_dead_variables", "analysis"),
    ("repro.newton.discover", "analyze_path", "newton"),
    ("repro.newton.pathsym", "path_from_boolean_steps", "newton"),
    ("repro.bmc.driver", "run_bmc", "bmc"),
    ("repro.slam.cegar", "cegar_loop", "slam"),
    ("repro.slam.toolkit", "check_property", "slam"),
)

# (module, class, methods, layer): methods patched on the class itself.
METHODS = (
    ("repro.engine.context", "EngineContext", ("__init__", "close"), "engine"),
    (
        "repro.pointers.steensgaard",
        "PointsToAnalysis",
        (
            "__init__",
            "may_alias",
            "may_point_into_external",
            "ecr_of",
            "reachable_from_values",
            "location_in",
        ),
        "pointers",
    ),
    (
        "repro.analysis",
        "ProgramAnalyses",
        (
            "__init__",
            "toucher",
            "predicate_keyset",
            "cfgs",
            "modref",
            "compute_liveness",
            "liveness",
            "is_dead",
            "relevant_names",
            "statement_key",
            "enforce_key",
            "newton_fallback_predicates",
        ),
        "analysis",
    ),
    ("repro.analysis.modref", "TouchOracle", ("touch",), "analysis"),
    ("repro.analysis.intervals", "IntervalDischarger", ("decide",), "analysis"),
    (
        "repro.analysis.reuse",
        "AbstractionReuse",
        ("fetch", "store", "fetch_enforce", "store_enforce"),
        "analysis",
    ),
    ("repro.core.abstractor", "C2bp", ("__init__", "run"), "core"),
    (
        "repro.prover.interface",
        "Prover",
        ("implies", "is_valid", "is_satisfiable"),
        "prover",
    ),
    ("repro.prover.incremental", "IncrementalCubeSession", ("decide",), "prover"),
    ("repro.prover.allsat", "ModelCatalog", ("ensure_swept",), "prover"),
    ("repro.bebop.checker", "Bebop", ("__init__", "run"), "bebop"),
    (
        "repro.bebop.explicit",
        "ExplicitEngine",
        ("__init__", "find_assertion_failure"),
        "bebop",
    ),
    ("repro.serve.client", "ServeClient", ("request",), "serve"),
)

#: Layers whose self time the traced run reports.
LAYERS = (
    "cfront",
    "pointers",
    "analysis",
    "core",
    "prover",
    "bebop",
    "newton",
    "bmc",
    "slam",
)


class Tracer:
    """Span recorder plus the per-call counters read off return values."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.job = None
        self._stack = []
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def _open(self, layer):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent, self.job])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def begin_job(self, job_id):
        self.job = job_id
        return self._open("job")

    def end_job(self, index):
        self._close(index)
        self.job = None

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self):
        """Forget everything recorded so far (call between jobs only)."""
        self.spans = []
        self.counts = {}
        self._stack = []

    # -- patching -------------------------------------------------------------

    def _wrap(self, layer, key, fn):
        tracer = self
        observe = _OBSERVERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
                # Inside the span, so that reading counters (a context
                # snapshot, for ``engine``) stays covered by the job's spans.
                tracer.count(key)
                if observe is not None:
                    observe(tracer, args, result)
            finally:
                tracer._close(index)
            return result

        return traced

    def install(self):
        """Patch every target; :meth:`uninstall` restores the originals."""
        for module_name, attr, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(layer, attr, original)
            for name, module in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for module_name, class_name, methods, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__[method]
                key = "%s.%s" % (class_name, method)
                if isinstance(original, property):
                    replacement = property(self._wrap(layer, key, original.fget))
                else:
                    replacement = self._wrap(layer, key, original)
                self._patches.append((cls, method, original))
                setattr(cls, method, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.uninstall()

    # -- aggregation ----------------------------------------------------------

    def self_times(self):
        """Seconds per layer, each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for index, (layer, start, end, _parent, _job) in enumerate(self.spans):
            own = (end - start) - child_time[index]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals


def _observe_decide(tracer, args, result):
    if result:
        tracer.count("discharged")


def _observe_newton(tracer, args, result):
    if result.new_predicates:
        tracer.count("newton_refined")


def _observe_cegar(tracer, args, result):
    tracer.count("iterations", result.iterations)


def _observe_bebop_run(tracer, args, result):
    checker = args[0]
    tracer.count("worklist_steps", result.steps)
    tracer.count("transfers_reused", checker.transfers_reused)


def _observe_c2bp_run(tracer, args, result):
    tracer.count("c2bp_prover_queries", args[0].stats.prover_queries)


def _observe_context_close(tracer, args, result):
    """A job's counters, read once when its context is closed."""
    snapshot = args[0].snapshot()
    prover = snapshot.get("prover", {})
    for field in ("calls", "queries", "cache_hits", "allsat_models",
                  "theory_delta_queries"):
        tracer.count("prover." + field, prover.get(field, 0))
    tracer.count("prover.generalize_s", prover.get("time_in_generalize", 0.0))
    tracer.count("prover.theory_fallback_s", prover.get("time_in_theory_cache", 0.0))
    analysis = snapshot.get("analysis", {})
    for field in ("c2bp_stmts_reused", "c2bp_stmts_retranslated"):
        tracer.count("analysis." + field, analysis.get(field, 0))
    # One BDD manager per job (CEGAR iterations share theirs), so the
    # last Bebop's manager counters are the job's totals.
    bdd = snapshot.get("bebop", {}).get("bdd", {})
    for field in ("ite_calls", "cache_hits", "cache_lookups"):
        tracer.count("bdd." + field, bdd.get(field, 0))


_OBSERVERS = {
    "IntervalDischarger.decide": _observe_decide,
    "analyze_path": _observe_newton,
    "cegar_loop": _observe_cegar,
    "Bebop.run": _observe_bebop_run,
    "C2bp.run": _observe_c2bp_run,
    "EngineContext.close": _observe_context_close,
}
