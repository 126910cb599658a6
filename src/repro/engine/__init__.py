"""The unified engine spine: context, events, stats.

This package is infrastructure, not paper reproduction: it gives the
C2bp → Bebop → Newton → SLAM pipeline one instrumented
prover/stats/config object (:class:`EngineContext`), the one
configuration channel every layer boundary takes.

- :mod:`repro.engine.context` — :class:`EngineContext`, the bundle the
  pipeline threads through every layer;
- :mod:`repro.engine.events` — the structured :class:`EventBus`
  (phase/prover-query/cube-test/cegar-iteration events with timings);
- :mod:`repro.engine.stats` — the :class:`StatsRegistry` subsuming the
  per-layer stats objects behind one ``snapshot()``/``to_json()``.

The prover backend is an object, not a name: ``EngineContext(backend=...)``
takes any object with the members :mod:`repro.prover.interface` lists
(default: :class:`repro.prover.DpllTBackend`).
"""

from repro.engine.context import EngineContext
from repro.engine.events import EventBus
from repro.engine.stats import PhaseAccumulator, StatsRegistry

__all__ = [
    "EngineContext",
    "EventBus",
    "PhaseAccumulator",
    "StatsRegistry",
]
