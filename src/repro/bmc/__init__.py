"""Bit-precise bounded model checking (a CBMC-style second verdict engine).

This package is the first verdict path that shares no abstraction code
with the C2bp → Bebop → Newton pipeline it cross-checks: it unrolls the
:mod:`repro.cfront` CFGs to a bounded depth, bit-blasts fixed-width
two's-complement arithmetic onto :class:`repro.prover.sat.SatSolver`, and
reports ``unsafe`` (with a concrete, interpreter-validated input trace),
``safe`` (complete within the bound), ``safe-up-to-k``, or
``unsupported``.  It also backstops CEGAR divergence with a bounded
verdict.
"""

from repro.bmc.bits import BitEncoder
from repro.bmc.driver import (
    BmcResult,
    BmcStats,
    VERDICT_SAFE,
    VERDICT_SAFE_UP_TO_K,
    VERDICT_UNSAFE,
    VERDICT_UNSUPPORTED,
    Witness,
    ensure_bmc_stats,
    replay_witness,
    run_bmc,
)
from repro.bmc.unroll import BmcUnsupported, Unroller

__all__ = [
    "BitEncoder",
    "BmcResult",
    "BmcStats",
    "BmcUnsupported",
    "Unroller",
    "VERDICT_SAFE",
    "VERDICT_SAFE_UP_TO_K",
    "VERDICT_UNSAFE",
    "VERDICT_UNSUPPORTED",
    "Witness",
    "ensure_bmc_stats",
    "replay_witness",
    "run_bmc",
]
