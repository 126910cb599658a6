"""Bebop — the model checker for boolean programs [5].

Computes the set of reachable states for each statement of a boolean
program with an interprocedural dataflow algorithm in the spirit of
Sharir-Pnueli and Reps-Horwitz-Sagiv [31, 28]:

- sets of states (bit vectors over the variables in scope) are represented
  implicitly with binary decision diagrams (:mod:`repro.bdd`);
- control flow is an explicit graph, as in a compiler (unlike symbolic
  model checkers that encode control in the BDD);
- procedures are summarized by input/output relations over globals,
  formals, and return values, so recursion needs no extra machinery.

The package also contains an explicit-state engine used to extract concrete
counterexample paths (hierarchical traces) and, through
:func:`explicit_divergence`, as the reference the symbolic engine is
differentially tested against.
"""

from repro.bebop.checker import Bebop, BebopResult, reachability_key
from repro.bebop.explicit import ExplicitEngine, explicit_divergence
from repro.bebop.reuse import BebopReuse

__all__ = [
    "Bebop",
    "BebopResult",
    "BebopReuse",
    "ExplicitEngine",
    "explicit_divergence",
    "reachability_key",
]
