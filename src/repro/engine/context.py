"""The engine context: one instrumented spine for the whole pipeline.

An :class:`EngineContext` bundles what used to be re-wired by hand at
every layer boundary:

- the :class:`repro.core.options.C2bpOptions` configuration;
- one :class:`repro.prover.Prover` front door, backed by a pluggable
  backend and a *shared*, canonical-form :class:`QueryCache` — so C2bp,
  Newton, and every CEGAR iteration reuse each other's answers;
- a structured :class:`repro.engine.events.EventBus`;
- a :class:`repro.engine.stats.StatsRegistry` subsuming the per-layer
  stats objects behind one ``snapshot()``/``to_json()`` surface;
- the warm :class:`repro.analysis.reuse.ReuseLevel` every run under it
  reuses work through, with any persistent store as a tier below.

Construct one context per verification task and pass it down::

    from repro.engine import EngineContext

    ctx = EngineContext()
    result = cegar_loop(program, initial_predicates=preds, context=ctx)
    print(ctx.stats.to_json())

The context is the only way to configure a run: the pipeline entry
points (:class:`repro.core.C2bp`, :func:`repro.slam.cegar_loop`,
:meth:`repro.slam.SlamToolkit.check`, :func:`repro.newton.analyze_path`)
take ``context=`` and no loose ``options=``/``prover=`` keywords.  One
called without a context builds a private default one.
"""

import contextlib
import time

from repro.engine.events import EventBus
from repro.engine.stats import StatsRegistry
from repro.prover import Prover, QueryCache


class EngineContext:
    """Options + prover backend + event sink + unified stats registry."""

    def __init__(
        self, options=None, backend=None, cache=None, store=None, reuse_level=None
    ):
        if options is None:
            # Imported lazily: repro.core.abstractor imports this package,
            # so a module-level import would cycle when repro.engine is
            # the first repro module loaded.
            from repro.core.options import C2bpOptions

            options = C2bpOptions()
        self.options = options
        self.events = EventBus()
        self.stats = StatsRegistry()
        # The content-addressed persistent store (repro.serve): adopted
        # from the caller or opened from options.cache_dir.  An owned store is this context's to
        # report on; the store itself holds no buffered state to flush.
        self._owned_store = False
        if store is not None:
            self.store = store
        elif options.cache_dir:
            # Imported lazily: repro.serve imports the prover layer.
            from repro.serve import PersistentStore

            self.store = PersistentStore(
                options.cache_dir, max_bytes=options.cache_max_bytes
            )
            self._owned_store = True
        else:
            self.store = None
        if cache is not None:
            self.cache = cache
        elif self.store is not None:
            from repro.serve import PersistentQueryCache

            self.cache = PersistentQueryCache(self.store)
        else:
            self.cache = QueryCache()
        self.prover = Prover(
            enable_cache=options.cache_prover,
            cache=self.cache,
            backend=backend,
            events=self.events,
        )
        # The warm level: the caller's (a daemon's), else the store's,
        # else this context's own.  Imported lazily, like C2bpOptions.
        if reuse_level is None:
            from repro.analysis.reuse import ReuseLevel

            reuse_level = (
                self.store.reuse_level if self.store is not None else ReuseLevel()
            )
        self.reuse_level = reuse_level
        self._abstraction_reuse = None
        self.stats.register("prover", self.prover.stats)
        self.stats.register("prover_cache", self.cache)
        self.stats.register("events", self.events)
        if self.store is not None:
            self.stats.register("persistent_cache", self.store.snapshot)

    @property
    def abstraction_reuse(self):
        """The procedure/statement/enforce cache every C2bp run under
        this context translates through: over :attr:`reuse_level`, then
        the store's disk when there is a store.  Built on first use."""
        if self._abstraction_reuse is None:
            from repro.analysis import AbstractionReuse, ensure_analysis_stats
            from repro.serve import PersistentAbstractionReuse

            args = (self.reuse_level, self.options, ensure_analysis_stats(self))
            self._abstraction_reuse = (
                AbstractionReuse(*args) if self.store is None
                else PersistentAbstractionReuse(self.store, *args)
            )
        return self._abstraction_reuse

    def close(self):
        """Release long-lived resources (an owned store); idempotent.
        Contexts also work as context managers: ``with EngineContext()``
        closes on exit."""
        if self._owned_store and self.store is not None:
            self.store.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, tb):
        self.close()

    @contextlib.contextmanager
    def phase(self, name):
        """Time a pipeline phase: emits phase-start/phase-end events and
        accumulates wall-clock seconds in ``stats.phases``."""
        self.events.emit("phase-start", phase=name)
        started = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - started
            self.stats.phases.add(name, elapsed)
            self.events.emit("phase-end", phase=name, seconds=round(elapsed, 6))

    def snapshot(self):
        """Shorthand for ``stats.snapshot()``."""
        return self.stats.snapshot()

    def __repr__(self):
        return "EngineContext(backend=%r, cache=%r)" % (
            getattr(self.prover.backend, "name", "?"),
            self.cache.snapshot(),
        )
