"""Safety property specifications (a SLIC-like automaton language).

A safety property — "something bad does not happen" — is a finite state
machine over *events*, where an event is a call to a named interface
function (e.g. ``KeAcquireSpinLock``).  Transitions either move to another
state or to the implicit error state; reaching the error state means the
program violates the property.

Example — proper lock usage (locks alternate acquire/release)::

    spec = SafetySpec.lock_discipline("KeAcquireSpinLock",
                                      "KeReleaseSpinLock")

which is the automaton:

    states: Unlocked (initial), Locked
    Unlocked --acquire--> Locked      Locked  --acquire--> ERROR
    Locked  --release--> Unlocked     Unlocked --release--> ERROR
"""

ERROR = "<error>"


class SpecError(Exception):
    pass


class SafetySpec:
    def __init__(self, name, states, initial, final_states=()):
        if initial not in states:
            raise SpecError("initial state %r not among states" % initial)
        self.name = name
        self.states = list(states)
        self.initial = initial
        self.transitions = {}  # (state, event) -> state or ERROR
        self.events = []
        # States the automaton must NOT be in when a watched procedure
        # returns to the environment (e.g. "still holding the lock").
        self.final_forbidden = [s for s in final_states]

    def on(self, state, event, target):
        """Add the transition state --event--> target (ERROR allowed)."""
        if state not in self.states:
            raise SpecError("unknown state %r" % state)
        if target is not ERROR and target not in self.states:
            raise SpecError("unknown target state %r" % target)
        self.transitions[(state, event)] = target
        if event not in self.events:
            self.events.append(event)
        return self

    def error_on(self, state, event):
        return self.on(state, event, ERROR)

    def fingerprint(self):
        """The whole automaton as a hashable value: equal fingerprints
        instrument a program identically."""
        return (
            self.name,
            tuple(self.states),
            self.initial,
            tuple(sorted(self.transitions.items())),
            tuple(self.events),
            tuple(self.final_forbidden),
        )

    def state_index(self, state):
        return self.states.index(state)

    def transition(self, state, event):
        """The successor (default: stay) for an event in a state."""
        return self.transitions.get((state, event), state)

    # -- common properties -------------------------------------------------------

    @classmethod
    def lock_discipline(cls, acquire, release, name="locking"):
        """A lock is never acquired twice nor released without holding it."""
        spec = cls(name, ["Unlocked", "Locked"], "Unlocked")
        spec.on("Unlocked", acquire, "Locked")
        spec.on("Locked", release, "Unlocked")
        spec.error_on("Locked", acquire)
        spec.error_on("Unlocked", release)
        return spec

    @classmethod
    def complete_exactly_once(cls, complete, name="irp-completion"):
        """An IRP must not be completed twice (double completion)."""
        spec = cls(name, ["Pending", "Completed"], "Pending")
        spec.on("Pending", complete, "Completed")
        spec.error_on("Completed", complete)
        return spec

    @classmethod
    def must_complete_before_return(cls, complete, name="irp-must-complete"):
        """An IRP must be completed (exactly once) before the dispatch
        routine returns; checked with a forbidden final state."""
        spec = cls(name, ["Pending", "Completed"], "Pending",
                   final_states=["Pending"])
        spec.on("Pending", complete, "Completed")
        spec.error_on("Completed", complete)
        return spec

    @classmethod
    def complete_or_forward(cls, complete, forward, name="irp-handoff"):
        """A filter driver must either complete a request locally or hand
        it to the lower driver — exactly one of the two, exactly once."""
        spec = cls(name, ["Pending", "Done"], "Pending",
                   final_states=["Pending"])
        spec.on("Pending", complete, "Done")
        spec.on("Pending", forward, "Done")
        spec.error_on("Done", complete)
        spec.error_on("Done", forward)
        return spec

    def __repr__(self):
        return "SafetySpec(%r, states=%r)" % (self.name, self.states)
