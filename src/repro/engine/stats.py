"""The unified statistics registry.

The paper's headline metric is *theorem prover calls*, and the toolkit
historically scattered that accounting across per-layer objects
(:class:`repro.core.stats.C2bpStats`, :class:`repro.prover.interface.ProverStats`,
the CEGAR loop's per-iteration records, Bebop's engine counters).  The
:class:`StatsRegistry` puts them behind one surface: each layer registers
a named section, ``snapshot()`` renders everything as one JSON-ready
dict, and ``to_json()`` / ``from_json()`` round-trip it for offline
analysis (the ``--stats-json`` CLI flag).

A section may be any of:

- an object with a ``snapshot()`` method (the layer stats classes);
- a zero-argument callable returning a dict (lazy stats, e.g. Bebop's
  BDD counters, priced only when a snapshot is taken);
- a plain dict (final summaries).
"""

import json
import time

#: Version of the ``--stats-json`` layout, carried at the top level of
#: every snapshot.  Bump on breaking changes to section names or field
#: meanings; documented in docs/PERFORMANCE.md.  Version 2 added the
#: field itself plus the ``persistent_cache`` section.
SCHEMA_VERSION = 2


class PhaseAccumulator:
    """Wall-clock totals per named phase (c2bp, bebop, newton, ...)."""

    def __init__(self):
        self._phases = {}

    def add(self, name, seconds):
        entry = self._phases.setdefault(name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += seconds

    def seconds(self, name):
        entry = self._phases.get(name)
        return entry["seconds"] if entry else 0.0

    def snapshot(self):
        return {
            name: {"count": entry["count"], "seconds": round(entry["seconds"], 6)}
            for name, entry in self._phases.items()
        }


class Timer:
    """Context manager adding elapsed wall-clock time to an attribute."""

    def __init__(self, stats, attribute="seconds"):
        self.stats = stats
        self.attribute = attribute

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        elapsed = time.perf_counter() - self._start
        setattr(
            self.stats, self.attribute, getattr(self.stats, self.attribute) + elapsed
        )
        return False


class StatsRegistry:
    """Named stats sections with one ``snapshot()``/``to_json()`` surface."""

    def __init__(self):
        self._sections = {}
        self.phases = PhaseAccumulator()
        self.register("phases", self.phases)

    def register(self, name, source):
        """Register (or replace) a section.  ``source`` is an object with
        ``snapshot()``, a zero-arg callable returning a dict, or a dict."""
        self._sections[name] = source

    def section(self, name):
        return self._sections.get(name)

    def sections(self):
        return list(self._sections)

    def snapshot(self):
        """Everything, as one plain JSON-ready dict."""
        out = {"schema_version": SCHEMA_VERSION}
        for name, source in self._sections.items():
            take = getattr(source, "snapshot", None)
            if callable(take):
                out[name] = take()
            elif callable(source):
                out[name] = source()
            else:
                out[name] = dict(source)
        return out

    def to_json(self, indent=2):
        return json.dumps(self.snapshot(), indent=indent, default=_jsonable)

    @staticmethod
    def from_json(text):
        """The inverse of :meth:`to_json`: the snapshot as a plain dict."""
        return json.loads(text)


def _jsonable(value):
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return str(value)
