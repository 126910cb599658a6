"""Bounded model checking verdicts over the unrolled bit-level formula.

:func:`run_bmc` unrolls a program to depth ``k`` (see
:mod:`repro.bmc.unroll`), asks the SAT core two incremental questions —
*can any assert fail?* and *was the unwinding bound exhausted?* — and
returns one of four verdicts:

- ``unsafe``: some assert fails within the bound; a concrete input
  witness (entry arguments, extern/``*`` values in consumption order,
  entry array contents) is decoded from the SAT model.
- ``safe``: no assert fails and no execution was cut — the bound covers
  every execution, so this is a *complete* proof.
- ``safe-up-to-k``: no assert fails within the bound, but some execution
  was cut by an unwinding assertion; deeper executions are unchecked.
- ``unsupported``: the program leaves the bit-precise fragment (structs,
  heap, pointer-valued entry parameters).

The two queries share one solver via assumption literals, so the second
solve reuses everything the first learned.  Witnesses are validated by
:func:`replay_witness`, which runs the concrete interpreter in
``wrap_width`` mode on the decoded inputs.
"""

import time
from collections import deque

from repro.bmc.bits import BitEncoder
from repro.bmc.unroll import BmcUnsupported, Unroller

VERDICT_UNSAFE = "unsafe"
VERDICT_SAFE = "safe"
VERDICT_SAFE_UP_TO_K = "safe-up-to-k"
VERDICT_UNSUPPORTED = "unsupported"


class Witness:
    """A concrete input trace decoded from a SAT model."""

    __slots__ = ("args_by_name", "externs", "arrays", "param_shape", "site")

    def __init__(self, args_by_name, externs, arrays, param_shape, site=None):
        self.args_by_name = args_by_name  # {param name: int}
        self.externs = externs  # extern/'*' results, consumption order
        self.arrays = arrays  # {param name: {index: value}}
        self.param_shape = param_shape  # [(name, "int" | "array")]
        self.site = site  # ErrorSite of the failing assert (if known)

    def entry_args(self):
        """Entry arguments in declaration order; array parameters are
        returned as ``{index: value}`` dicts (the caller materializes
        interpreter array objects)."""
        args = []
        for name, kind in self.param_shape:
            if kind == "array":
                args.append(dict(self.arrays.get(name, {})))
            else:
                args.append(self.args_by_name.get(name, 0))
        return args

    def to_dict(self):
        return {
            "args": [
                {str(k): v for k, v in arg.items()}
                if isinstance(arg, dict)
                else arg
                for arg in self.entry_args()
            ],
            "externs": list(self.externs),
        }


class BmcResult:
    """Verdict plus formula/solver statistics for one BMC run."""

    __slots__ = (
        "verdict",
        "depth",
        "width",
        "witness",
        "reason",
        "encode_seconds",
        "solve_seconds",
        "vars",
        "gates",
        "clauses",
        "errors",
        "cuts",
    )

    def __init__(self, verdict, depth, width):
        self.verdict = verdict
        self.depth = depth
        self.width = width
        self.witness = None
        self.reason = None  # for "unsupported": what fell outside
        self.encode_seconds = 0.0
        self.solve_seconds = 0.0
        self.vars = 0
        self.gates = 0
        self.clauses = 0
        self.errors = 0  # encoded assert sites
        self.cuts = 0  # unwinding cut points

    @property
    def complete(self):
        return self.verdict in (VERDICT_SAFE, VERDICT_UNSAFE)

    def to_dict(self):
        payload = {
            "verdict": self.verdict,
            "depth": self.depth,
            "width": self.width,
            "encode_seconds": self.encode_seconds,
            "solve_seconds": self.solve_seconds,
            "vars": self.vars,
            "gates": self.gates,
            "clauses": self.clauses,
            "errors": self.errors,
            "cuts": self.cuts,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.witness is not None:
            payload["witness"] = self.witness.to_dict()
        return payload


def run_bmc(program, entry="main", depth=16, width=32, context=None):
    """Bit-precise bounded model checking of every assert reachable from
    ``entry``; returns a :class:`BmcResult`."""
    stats = ensure_bmc_stats(context) if context is not None else None
    started = time.perf_counter()
    encoder = BitEncoder(width=width)
    try:
        unrolled = Unroller(program, encoder, depth).run(entry)
    except BmcUnsupported as exc:
        result = BmcResult(VERDICT_UNSUPPORTED, depth, width)
        result.reason = str(exc)
        result.encode_seconds = time.perf_counter() - started
        if stats is not None:
            stats.record(result)
        return result
    # Assumption literals let both questions share one learned-clause
    # state: solve({error_lit}) then solve({incomplete_lit}).
    error_lit = encoder.new_var()
    any_error = encoder.or_many(site.lit for site in unrolled.errors)
    if any_error is False:
        encoder.emit([-error_lit])
    elif any_error is not True:
        encoder.emit([-error_lit, any_error])
        encoder.emit([error_lit, -any_error])
    incomplete_lit = encoder.new_var()
    any_cut = encoder.or_many(unrolled.incomplete)
    if any_cut is False:
        encoder.emit([-incomplete_lit])
    elif any_cut is not True:
        encoder.emit([-incomplete_lit, any_cut])
        encoder.emit([incomplete_lit, -any_cut])
    encode_seconds = time.perf_counter() - started

    solve_started = time.perf_counter()
    error_sat = (
        encoder.solver.solve(assumptions=(error_lit,))
        if any_error is not False
        else None
    )
    if error_sat is not None and error_sat.sat:
        result = BmcResult(VERDICT_UNSAFE, depth, width)
        result.witness = _extract_witness(encoder, unrolled, error_sat.model)
    else:
        cut_sat = (
            encoder.solver.solve(assumptions=(incomplete_lit,))
            if any_cut is not False
            else None
        )
        if cut_sat is not None and cut_sat.sat:
            result = BmcResult(VERDICT_SAFE_UP_TO_K, depth, width)
        else:
            result = BmcResult(VERDICT_SAFE, depth, width)
    result.solve_seconds = time.perf_counter() - solve_started
    result.encode_seconds = encode_seconds
    result.vars = encoder.vars
    result.gates = encoder.gates
    result.clauses = encoder.clauses
    result.errors = len(unrolled.errors)
    result.cuts = len(unrolled.incomplete)
    if stats is not None:
        stats.record(result)
    return result


def _extract_witness(encoder, unrolled, model):
    """Decode the free inputs the model exercises, in encode (= execution)
    order, keeping only records whose reach literal is true — records on
    untaken paths are never consumed by the concrete interpreter."""
    args_by_name = {}
    externs = []
    arrays = {}
    for record in unrolled.inputs:
        if not encoder.lit_value(record.reach, model):
            continue
        value = encoder.decode(record.bits, model)
        if record.kind == "param":
            args_by_name[record.label] = value
        elif record.kind == "array":
            index = encoder.decode(record.index_bits, model)
            arrays.setdefault(record.label, {}).setdefault(index, value)
        else:  # "extern" / "unknown": one consumption-order queue
            externs.append(value)
    site = None
    for candidate in unrolled.errors:
        if encoder.lit_value(candidate.lit, model):
            site = candidate
            break
    return Witness(args_by_name, externs, arrays, unrolled.entry_params, site)


REPLAY_ASSERT_FAILED = "assert-failed"
REPLAY_COMPLETED = "completed"
REPLAY_ASSUME_VIOLATED = "assume-violated"
REPLAY_ERROR = "interp-error"


def replay_witness(program, entry, witness, width, max_steps=200_000):
    """Run the concrete interpreter (in ``width``-bit wrapping mode) on a
    decoded witness; returns a replay status string.  ``assert-failed``
    confirms the witness concretely."""
    from repro.cfront.interp import (
        ArrayVal,
        AssertionFailure,
        AssumeViolated,
        InterpError,
        Interpreter,
    )

    queue = deque(witness.externs)

    def oracle(name, call_args):
        return queue.popleft() if queue else 0

    interp = Interpreter(
        program,
        extern_oracle=oracle,
        max_steps=max_steps,
        wrap_width=width,
    )
    args = []
    for value in witness.entry_args():
        if isinstance(value, dict):
            array = ArrayVal()
            for index, cell_value in value.items():
                array.element_cell(index).value = cell_value
            args.append(array)
        else:
            args.append(value)
    try:
        interp.run(entry, args)
    except AssertionFailure:
        return REPLAY_ASSERT_FAILED
    except AssumeViolated:
        return REPLAY_ASSUME_VIOLATED
    except InterpError:
        return REPLAY_ERROR
    return REPLAY_COMPLETED


class BmcStats:
    """Aggregate counters for the ``bmc`` stats section."""

    def __init__(self):
        self.runs = 0
        self.unsafe = 0
        self.safe = 0
        self.bounded = 0
        self.unsupported = 0
        self.encode_seconds = 0.0
        self.solve_seconds = 0.0
        self.gates = 0
        self.clauses = 0

    def record(self, result):
        self.runs += 1
        if result.verdict == VERDICT_UNSAFE:
            self.unsafe += 1
        elif result.verdict == VERDICT_SAFE:
            self.safe += 1
        elif result.verdict == VERDICT_SAFE_UP_TO_K:
            self.bounded += 1
        else:
            self.unsupported += 1
        self.encode_seconds += result.encode_seconds
        self.solve_seconds += result.solve_seconds
        self.gates += result.gates
        self.clauses += result.clauses

    def snapshot(self):
        return {
            "runs": self.runs,
            "unsafe": self.unsafe,
            "safe": self.safe,
            "bounded": self.bounded,
            "unsupported": self.unsupported,
            "encode_seconds": self.encode_seconds,
            "solve_seconds": self.solve_seconds,
            "gates": self.gates,
            "clauses": self.clauses,
        }


def ensure_bmc_stats(context):
    """Get-or-create the ``bmc`` stats section on an engine context."""
    stats = getattr(context, "_bmc_stats", None)
    if stats is None:
        stats = BmcStats()
        context._bmc_stats = stats
        context.stats.register("bmc", stats)
    return stats
