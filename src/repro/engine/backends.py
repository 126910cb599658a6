"""The prover backend protocol and registry.

The paper drives two interchangeable Nelson-Oppen provers (Simplify and
Vampyre) through one narrow interface; this module is our equivalent
seam.  A *backend* is any object implementing:

- ``check_implication(antecedents, consequent) -> Satisfiability`` —
  satisfiability of ``/\\ antecedents && !consequent`` (UNSAT means the
  implication is valid);
- ``check_satisfiable(exprs) -> Satisfiability`` — joint satisfiability
  of a conjunction of C boolean expressions;
- a ``name`` attribute (for stats and trace labelling).

Backends may additionally implement the *incremental cube* capability:

- ``open_cube_session(candidates, goal, want_cores=True,
  theory_incremental=True) -> session`` — a session object deciding
  cubes over the fixed candidate set against the fixed goal via
  ``decide(cube) -> (Satisfiability, core)`` with persistent solver
  state (see :class:`repro.prover.incremental.IncrementalCubeSession`).
  A backend without the method (a :class:`ProverBackend` subclass sets
  it to ``None``) makes the engine fall back to fresh per-cube
  ``check_implication`` calls.  The engine always passes both
  keywords, and a backend must honour them or raise:
  ``want_cores=False`` asks the session to skip assumption-core mapping
  (throwaway sessions whose cores nobody reads), and
  ``theory_incremental=False`` pins its theory checks to the stateless
  reference.  Sessions that also provide ``enumerate_models(max_models)``
  support the AllSAT strengthening strategy's model catalog; the engine
  degrades to plain cube enumeration without it.

Backends register under a string name so configuration (CLI flags,
:class:`repro.engine.EngineContext`) can select them without importing
their modules.  The built-in DPLL(T) stack registers as ``"dpllt"`` and
is the default.
"""

from repro.prover.interface import DpllTBackend

_REGISTRY = {}


def register_backend(name, factory):
    """Register ``factory(**kwargs) -> backend`` under ``name``."""
    _REGISTRY[name] = factory
    return factory


def available_backends():
    """The registered backend names, sorted."""
    return sorted(_REGISTRY)


def create_backend(spec=None, **kwargs):
    """Resolve a backend: ``None`` means the default DPLL(T) backend, a
    string is looked up in the registry, and an object implementing the
    protocol passes through unchanged."""
    if spec is None:
        spec = "dpllt"
    if isinstance(spec, str):
        try:
            factory = _REGISTRY[spec]
        except KeyError:
            raise KeyError(
                "unknown prover backend %r (available: %s)"
                % (spec, ", ".join(available_backends()))
            ) from None
        return factory(**kwargs)
    return spec


register_backend("dpllt", DpllTBackend)


class ProverBackend:
    """Documentation base class for the backend protocol.

    Subclassing is optional — any object with the three members works —
    but inheriting gives early errors for missing methods.
    """

    name = "abstract"

    def check_implication(self, antecedents, consequent):
        raise NotImplementedError

    def check_satisfiable(self, exprs):
        raise NotImplementedError

    def open_cube_session(
        self, candidates, goal, want_cores=True, theory_incremental=True
    ):
        """Optional capability: an incremental cube-decision session.
        A subclass that only supports one-shot queries sets
        ``open_cube_session = None``."""
        raise NotImplementedError
