"""Tseitin transformation from formulas to CNF.

Atoms are mapped to SAT variables through an :class:`AtomMap`; internal
nodes get fresh auxiliary variables.  The encoding is equisatisfiable and,
because we constrain both directions of each definition, the SAT model
restricted to atom variables is exactly a propositional model of the
original formula.

:class:`CnfEncoder` is the stateful front: it memoizes sub-encodings, so a
subformula shared between queries of one session (or repeated inside a
single query — ``land`` duplicates abound) is encoded once and later
occurrences reuse its definition literal.  The memo is only sound while
every clause the encoder has emitted stays asserted, so an encoder must be
paired with exactly one solver for its whole lifetime.
"""

#: Process-wide encoding counters, used by the benchmarks to compare the
#: fresh-encode-per-query baseline against the incremental cube engine.
COUNTERS = {"encodings": 0, "memo_hits": 0}


def reset_counters():
    for key in COUNTERS:
        COUNTERS[key] = 0


class AtomMap:
    """Bijection between theory atoms and SAT variables."""

    def __init__(self):
        self._atom_to_var = {}
        self._var_to_atom = {}
        self._next_var = 1

    def var_for(self, atom):
        if atom not in self._atom_to_var:
            var = self._next_var
            self._next_var += 1
            self._atom_to_var[atom] = var
            self._var_to_atom[var] = atom
        return self._atom_to_var[atom]

    def fresh_var(self):
        var = self._next_var
        self._next_var += 1
        return var

    def atom_of(self, var):
        return self._var_to_atom.get(var)

    def atoms(self):
        return list(self._atom_to_var)


class CnfEncoder:
    """A memoizing Tseitin encoder bound to one solver's clause stream."""

    def __init__(self, atom_map=None):
        self.atom_map = atom_map or AtomMap()
        self._memo = {}
        self.encodings = 0
        self.memo_hits = 0

    def encode(self, formula, clauses):
        """Encode one top-level formula into ``clauses``; returns the
        literal that is true iff the formula is."""
        self.encodings += 1
        COUNTERS["encodings"] += 1
        return self._encode(formula, clauses)

    def _encode(self, formula, clauses):
        kind = formula[0]
        if kind in ("le", "eq"):
            return self.atom_map.var_for(formula)
        if kind == "not":
            return -self._encode(formula[1], clauses)
        cached = self._memo.get(formula)
        if cached is not None:
            self.memo_hits += 1
            COUNTERS["memo_hits"] += 1
            return cached
        if kind == "true":
            out = self.atom_map.fresh_var()
            clauses.append([out])
        elif kind == "false":
            out = self.atom_map.fresh_var()
            clauses.append([-out])
        elif kind == "and":
            left = self._encode(formula[1], clauses)
            right = self._encode(formula[2], clauses)
            out = self.atom_map.fresh_var()
            clauses.append([-out, left])
            clauses.append([-out, right])
            clauses.append([out, -left, -right])
        elif kind == "or":
            left = self._encode(formula[1], clauses)
            right = self._encode(formula[2], clauses)
            out = self.atom_map.fresh_var()
            clauses.append([-out, left, right])
            clauses.append([out, -left])
            clauses.append([out, -right])
        else:
            raise ValueError("unknown formula node %r" % (formula,))
        self._memo[formula] = out
        return out


def formula_to_cnf(formula, atom_map=None):
    """CNF clauses asserting ``formula``; returns (clauses, atom_map)."""
    encoder = CnfEncoder(atom_map)
    clauses = []
    root = encoder.encode(formula, clauses)
    clauses.append([root])
    return clauses, encoder.atom_map
