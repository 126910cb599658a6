"""The SLAM front door: check a temporal safety property of a C program."""

from repro.analysis import memoized_program
from repro.cfront import parse_c_program
from repro.cfront.pretty import pretty_stmt
from repro.core import PredicateSet, Predicate
from repro.engine import EngineContext
from repro.cfront import cast as C
from repro.slam.cegar import cegar_loop
from repro.slam.instrument import STATE_VAR, instrument_program
from repro.slam.spec import SafetySpec


class SlamResult:
    """User-facing verdict for one (program, property) query."""

    def __init__(self, cegar_result, spec, entry):
        self.cegar = cegar_result
        self.spec = spec
        self.entry = entry

    @property
    def verdict(self):
        return self.cegar.verdict

    @property
    def passed(self):
        return self.cegar.is_safe

    @property
    def iterations(self):
        return self.cegar.iterations

    @property
    def predicates(self):
        return self.cegar.predicates

    def error_trace_lines(self):
        """The violating C path rendered as source lines (empty if safe)."""
        if self.cegar.trace is None:
            return []
        lines = []
        for step in self.cegar.trace:
            text = pretty_stmt(step.stmt).strip().split("\n")[0]
            if step.kind == "branch":
                text += "  [%s]" % ("true" if step.outcome else "false")
            lines.append("%s: %s" % (step.func_name, text))
        return lines

    def __repr__(self):
        return "SlamResult(%s, property=%r, iterations=%d)" % (
            self.verdict,
            self.spec.name,
            self.iterations,
        )


class SlamToolkit:
    """Holds a parsed program and runs property checks against it."""

    def __init__(self, source, name="<program>"):
        self.source = source
        self.name = name

    def check(
        self,
        spec,
        entry="main",
        extra_predicates=(),
        max_iterations=10,
        context=None,
    ):
        # Instrumentation mutates, so each check instruments a parse of
        # its own -- unless the context's reuse level already holds this
        # text instrumented for this (entry, spec): a warm daemon then
        # hands back that program and its facts, shared and read-only.
        def build():
            program = parse_c_program(self.source, name=self.name)
            return instrument_program(program, spec, entry=entry)

        # A private context has default options, so it opens no store
        # and needs no close.
        context = context if context is not None else EngineContext()
        program, facts = memoized_program(
            context, self.source, build,
            "slam", self.name, entry, spec.fingerprint(),
        )
        predicates = PredicateSet()
        for index, _state in enumerate(spec.states):
            predicates.add(
                Predicate(C.BinOp("==", C.Id(STATE_VAR), C.IntLit(index)), None)
            )
        for predicate in extra_predicates:
            predicates.add(predicate)
        result = cegar_loop(
            program,
            initial_predicates=predicates,
            main=entry,
            max_iterations=max_iterations,
            context=context,
            facts=facts,
        )
        return SlamResult(result, spec, entry)


def check_property(source, spec, entry="main", **kwargs):
    """Convenience wrapper: parse, instrument, and run the CEGAR loop."""
    return SlamToolkit(source).check(spec, entry=entry, **kwargs)
