"""C2bp — automatic predicate abstraction of C programs.

This package is the paper's primary contribution.  Given a C program ``P``
(in the intermediate form produced by :func:`repro.cfront.parse_c_program`)
and a set ``E`` of predicates (pure boolean C expressions), it constructs
the boolean program ``BP(P, E)``: same control structure, one boolean
variable per predicate, and conservative boolean transfer functions
computed with weakest preconditions strengthened through theorem-prover
queries.

Module map (paper section in parentheses):

- :mod:`repro.core.predicates` — predicates and the predicate input file (2.1);
- :mod:`repro.core.wp` — weakest preconditions with Morris' axiom and
  alias-based pruning (4.1, 4.2);
- :mod:`repro.core.cubes` — the ``F_V`` / ``G_V`` strengthening search with
  the Section 5.2 optimizations;
- :mod:`repro.core.signatures` — modular procedure signatures (4.5.2);
- :mod:`repro.core.calls` — abstraction of procedure calls (4.5.3);
- :mod:`repro.core.abstractor` — the statement-by-statement translation
  (4.3, 4.4) and the ``enforce`` computation (5.1);
- :mod:`repro.core.options` — the precision/efficiency knobs (5.2).
"""

from repro.core.abstractor import C2bp
from repro.core.options import C2bpOptions
from repro.core.predicates import (
    Predicate,
    PredicateParseError,
    PredicateSet,
    parse_predicate_file,
)

__all__ = [
    "C2bp",
    "C2bpOptions",
    "Predicate",
    "PredicateParseError",
    "PredicateSet",
    "parse_predicate_file",
]
