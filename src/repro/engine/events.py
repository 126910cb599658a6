"""The structured engine event bus.

Every layer of the pipeline reports what it is doing as flat, JSON-ready
events on one bus: C2bp phases, individual prover queries, cube tests,
CEGAR iterations.  Subscribers see events as they happen (for live
progress displays or custom accounting); by default the bus also records
them so a run can be dumped with ``--trace-json`` and inspected offline.

Event kinds emitted by the toolkit:

========================  =====================================================
kind                      payload fields (beyond ``kind`` and ``t``)
========================  =====================================================
``phase-start``           ``phase``
``phase-end``             ``phase``, ``seconds``
``prover-query``          ``query`` ("implies"|"sat"), ``cached``, ``result``,
                          ``seconds``
``cube-test``             ``purpose`` ("implicant"|"refute"|"inconsistent"),
                          ``cube_size``, ``result``
``c2bp-procedure``        ``procedure``, ``prover_calls``
``cegar-iteration``       one iteration record of :func:`repro.slam.cegar_loop`:
                          ``iteration``, ``predicates``, ``error_reached``,
                          ``seconds`` and the iteration's counter deltas
========================  =====================================================

``t`` is seconds since the bus was created (wall clock, monotonic).
"""

import json
import time


PHASE_START = "phase-start"
PHASE_END = "phase-end"
PROVER_QUERY = "prover-query"
CUBE_TEST = "cube-test"
C2BP_PROCEDURE = "c2bp-procedure"
CEGAR_ITERATION = "cegar-iteration"


class EventBus:
    """Ordered, bounded recording of engine events plus live fan-out."""

    def __init__(self, record=True, max_events=100_000):
        self._subscribers = []
        self.record = record
        self.max_events = max_events
        self.events = []
        self.dropped = 0
        self._start = time.perf_counter()

    def subscribe(self, handler):
        """Register ``handler(event_dict)``; returns the handler (so the
        call can be used inline)."""
        self._subscribers.append(handler)
        return handler

    def emit(self, kind, **data):
        """Emit one event; returns the event dict."""
        event = {"kind": kind, "t": round(time.perf_counter() - self._start, 6)}
        event.update(data)
        if self.record:
            if len(self.events) < self.max_events:
                self.events.append(event)
            else:
                self.dropped += 1
        for handler in self._subscribers:
            handler(event)
        return event

    def __len__(self):
        return len(self.events)

    def of_kind(self, kind):
        """The recorded events of one kind, in order."""
        return [e for e in self.events if e["kind"] == kind]

    def snapshot(self):
        return {"events": len(self.events), "dropped": self.dropped}

    def to_json(self, indent=None):
        """The recorded trace as a JSON document."""
        return json.dumps(
            {"events": self.events, "dropped": self.dropped},
            indent=indent,
            default=_jsonable,
        )


def _jsonable(value):
    """Fallback serializer: enums by name, everything else by str()."""
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return str(value)
