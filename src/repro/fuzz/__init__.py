"""Generative soundness fuzzing for the abstraction toolchain.

The paper's Theorem 1 promises that ``BP(P, E)`` simulates every feasible
trace of ``P``; three performance PRs later, that promise is checked by
machines, not by curated examples.  The subsystem has three parts:

- :mod:`repro.fuzz.gen` — a seeded generator of well-typed C-subset
  programs (pointers, calls with globals and return targets, loops,
  asserts) with predicate sets biased toward the programs' own guards;
- :mod:`repro.fuzz.oracle` — the trace-inclusion oracle (concrete
  execution replayed through the abstraction) plus differentials of each
  optimized engine against its one reference (allsat vs fresh-query
  cubes, incremental vs stateless theory, serial vs ``--jobs``, symbolic
  vs explicit-state Bebop);
- :mod:`repro.fuzz.shrink` — a delta-debugging shrinker that minimizes
  any failing case, for check-in under ``tests/corpus/``.

:class:`FuzzSession` drives them; ``python -m repro fuzz`` is the CLI.
"""

import hashlib

from repro.fuzz.corpus import (
    case_from_entry,
    corpus_entry,
    load_corpus,
    write_entry,
)
from repro.fuzz.gen import FuzzCase, ProgramGenerator
from repro.fuzz.oracle import (
    KIND_ABSTRACTION,
    KIND_BMC,
    KIND_ENGINE,
    KIND_GENERATOR,
    KIND_INTERP,
    KIND_INVALID_BP,
    KIND_SOUNDNESS,
    CaseReport,
    SoundnessOracle,
)
from repro.fuzz.shrink import shrink_case

__all__ = [
    "CaseReport",
    "FuzzCase",
    "FuzzResult",
    "FuzzSession",
    "ProgramGenerator",
    "SoundnessOracle",
    "case_from_entry",
    "corpus_entry",
    "load_corpus",
    "run_fuzz",
    "shrink_case",
    "write_entry",
]


class FuzzResult:
    """Aggregate outcome of one fuzzing session."""

    def __init__(self):
        self.cases = 0
        self.replays = 0
        self.assert_trips = 0
        self.explicit_checked = 0
        self.jobs_checked = 0
        self.bmc_checked = 0
        self.prover_calls = 0
        self.failures = []  # CaseReport
        self.shrunk = []  # (ShrinkResult, corpus path or None)
        self._digest = hashlib.sha1()

    @property
    def ok(self):
        return not self.failures

    def record(self, case, report):
        self.cases += 1
        self.replays += report.replays
        self.assert_trips += report.assert_trips
        self.explicit_checked += 1 if report.explicit_checked else 0
        self.jobs_checked += 1 if report.jobs_checked else 0
        self.bmc_checked += 1 if report.bmc_checked else 0
        self.prover_calls += report.prover_calls
        for piece in case.fingerprint():
            self._digest.update(repr(piece).encode())
        self._digest.update((report.kind or "ok").encode())
        if not report.ok:
            self.failures.append(report)

    def digest(self):
        """A stable fingerprint of everything generated and every verdict;
        two runs with the same seed must produce the same digest."""
        return self._digest.hexdigest()

    def summary_lines(self):
        lines = [
            "fuzz: %d case(s), %d replay(s), %d assert-ended trace(s)"
            % (self.cases, self.replays, self.assert_trips),
            "fuzz: %d explicit-engine check(s), %d --jobs differential(s), "
            "%d BMC differential(s), %d prover call(s)"
            % (
                self.explicit_checked,
                self.jobs_checked,
                self.bmc_checked,
                self.prover_calls,
            ),
            "fuzz: digest %s" % self.digest(),
        ]
        for report in self.failures:
            lines.append(
                "FAILURE %s [%s]: %s" % (report.case.name, report.kind, report.detail)
            )
        for result, path in self.shrunk:
            lines.append(
                "shrunk %s to %d source line(s) in %d attempt(s)%s"
                % (
                    result.case.name,
                    len(result.case.source.splitlines()),
                    result.attempts,
                    " -> %s" % path if path else "",
                )
            )
        if self.ok:
            lines.append("fuzz: no soundness violations, no divergences.")
        return lines


class FuzzSession:
    """Generate → check → (optionally) shrink and write to the corpus."""

    def __init__(
        self,
        seed=0,
        oracle=None,
        jobs_stride=5,
        shrink=False,
        corpus_dir=None,
        max_shrink_attempts=600,
        progress=None,
        bit_weight=False,
    ):
        self.generator = ProgramGenerator(seed, bit_weight=bit_weight)
        self.oracle = oracle or SoundnessOracle()
        self.jobs_stride = jobs_stride
        self.shrink = shrink
        self.corpus_dir = corpus_dir
        self.max_shrink_attempts = max_shrink_attempts
        self.progress = progress

    def run(self, count, start=0):
        result = FuzzResult()
        for index in range(start, start + count):
            case = self.generator.generate(index)
            check_jobs = bool(self.jobs_stride) and index % self.jobs_stride == 0
            report = self.oracle.check(case, check_jobs=check_jobs)
            result.record(case, report)
            if self.progress is not None:
                self.progress(case, report)
            if not report.ok and self.shrink:
                shrunk = shrink_case(
                    case,
                    report.kind,
                    lambda c: self.oracle.check(c, check_jobs=False).kind,
                    max_attempts=self.max_shrink_attempts,
                )
                path = None
                if self.corpus_dir:
                    entry = corpus_entry(
                        shrunk.case,
                        report.kind,
                        report.detail,
                        found_by="repro fuzz --fuzz-seed %s (case %d)"
                        % (self.generator.seed, index),
                    )
                    path = write_entry(self.corpus_dir, entry)
                result.shrunk.append((shrunk, path))
        return result


def run_fuzz(count=50, seed=0, **session_kwargs):
    """Convenience one-call API: run ``count`` cases from ``seed``."""
    return FuzzSession(seed=seed, **session_kwargs).run(count)
