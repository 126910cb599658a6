"""Cross-iteration state for Bebop.

CEGAR re-checks a near-identical boolean program every iteration: one
refinement adds a few predicates, but most procedures — and therefore most
compiled transfer relations — are textually unchanged.  A
:class:`BebopReuse` carries one :class:`~repro.bdd.manager.BddManager`,
one slot table, and the compiled-transfer cache across
:class:`~repro.bebop.checker.Bebop` runs, so unchanged procedures skip
recompilation entirely and their transfer BDDs stay hash-consed in place.

Between iterations :meth:`end_iteration` garbage-collects the manager down
to the compiled tables (dropping the dead path edges and summaries of the
finished run) and flushes the op-caches, keeping memory bounded over long
refinement loops.  The driver must *not* call it after the final
iteration: the returned result still queries its path-edge BDDs, and
collecting them would break hash-consed identity for later queries.
"""

from repro.bdd import BddManager


class BebopReuse:
    """Persistent manager + compiled-transfer cache shared by Bebop runs."""

    def __init__(self):
        self.manager = BddManager()
        self.slots = {}
        self.compiled = {}  # proc name -> CompiledProc
        self.iterations = 0
        self.transfers_compiled = 0
        self.transfers_reused = 0
        self.tables_loaded = 0
        self.nodes_collected = 0

    def roots(self):
        """Every BDD that must survive a between-iteration collection."""
        for table in self.compiled.values():
            for bdd in table.iter_bdds():
                if bdd is not None:
                    yield bdd

    def end_iteration(self):
        """Drop the finished run's state and reclaim dead nodes.

        Only call between iterations — never after the last one, whose
        result still holds live path-edge BDDs.
        """
        self.iterations += 1
        self.nodes_collected += self.manager.collect_garbage(self.roots())

    def snapshot(self):
        return {
            "iterations": self.iterations,
            "transfers_compiled": self.transfers_compiled,
            "transfers_reused": self.transfers_reused,
            "tables_loaded": self.tables_loaded,
            "nodes_collected": self.nodes_collected,
            "compiled_procedures": len(self.compiled),
            "live_nodes": self.manager.live_nodes,
        }
