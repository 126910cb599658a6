"""The C2bp translation: from a C program and predicates to a boolean
program (Sections 4.3-4.5, 5.1, 5.2).

The tool operates in two passes.  Pass one computes every procedure's
signature (:mod:`repro.core.signatures`).  Pass two translates each
procedure in isolation, statement by statement:

- assignments become parallel assignments of
  ``choose(F(WP(s, φ)), F(WP(s, ¬φ)))`` to the affected boolean variables;
- conditionals become nondeterministic branches whose arms open with
  ``assume(G(guard))`` / ``assume(G(¬guard))``;
- gotos and labels are copied verbatim;
- calls follow :mod:`repro.core.calls`;
- ``assert(e)`` becomes ``assert(¬G(¬e))`` — it fails in the abstraction
  whenever some concrete state allowed by the current predicates could
  fail, which is the sound (may-overreport) direction SLAM refines away;
- each procedure carries the ``enforce`` data invariant ``¬F(false)``.

Each top-level statement is translated on its own, in its own
call-site temporary namespace; a procedure's parts are then assembled
with one first-use renumbering of those temporaries to ``__r<N>``.  A
procedure's translation depends only on the inputs its cache key covers
(:meth:`repro.analysis.ProgramAnalyses.procedure_key`), and a
statement's only on its own key's
(:meth:`repro.analysis.ProgramAnalyses.statement_key`), so every run
fetches the procedures whose key its engine context's reuse cache
already holds, and within the others the statements it holds, and
translates only the rest; the output is byte-identical either way.
"""

from repro.cfront import cast as C
from repro.cfront.pretty import pretty_stmt
from repro.boolprog import ast as B
from repro.analysis import ProgramFacts, ensure_analysis_stats
from repro.analysis.modref import location_keyset
from repro.core.calls import abstract_call
from repro.core.cubes import CubeSearch
from repro.core.stats import C2bpStats, Timer
from repro.engine import EngineContext


class C2bpError(Exception):
    pass


def _has_constant_deref(expr):
    """Whether a WP result dereferences a constant address (e.g. ``0->val``
    after substituting NULL into a pointer predicate)."""
    from repro.cfront.exprutils import walk

    for node in walk(expr):
        if isinstance(node, C.Deref) and isinstance(node.pointer, C.IntLit):
            return True
        if isinstance(node, C.Index) and isinstance(node.base, C.IntLit):
            return True
    return False


class C2bp:
    """One abstraction run: ``BP(P, E)`` plus statistics."""

    def __init__(self, program, predicates, facts=None, context=None):
        self.context = context if context is not None else EngineContext()
        self.program = program
        self.predicates = predicates
        self.options = self.context.options
        self.prover = self.context.prover
        # The program's facts outlive this run when the caller hands them
        # in (one CEGAR loop, one warm daemon program): points-to, CFGs
        # and mod/ref, plus the signatures and analyses of predicate sets
        # seen before.
        self.facts = facts if facts is not None else ProgramFacts(program)
        self.points_to = self.facts.points_to
        self.signatures, self.analysis = self.facts.abstraction_inputs(
            predicates, self.options, ensure_analysis_stats(self.context)
        )
        # The statement cache over the context's reuse level.
        self.reuse = self.context.abstraction_reuse
        self.search = CubeSearch(
            self.prover,
            self.options,
            events=self.context.events,
            discharger=self.analysis.discharger,
        )
        self.stats = C2bpStats()
        self.context.stats.register("c2bp", self.stats)
        # (procedure name, temp name) -> meaning expression E(t) for the
        # call-site temporaries of Section 4.5.3 (used by trace replay).
        self.temp_meanings = {}

    def run(self):
        """Build and return the boolean program ``BP(P, E)``."""
        started_calls = self.prover.stats.calls
        started_queries = self.prover.stats.queries
        started_hits = self.prover.stats.cache_hits
        with self.context.phase("c2bp"), Timer(self.stats):
            boolean_program = B.BProgram()
            boolean_program.globals = [p.name for p in self.predicates.globals]
            for func in self.program.defined_functions():
                before = self.prover.stats.calls
                boolean_program.add_procedure(self._abstract_procedure(func))
                delta = self.prover.stats.calls - before
                self.stats.per_procedure[func.name] = delta
                self.context.events.emit(
                    "c2bp-procedure", procedure=func.name, prover_calls=delta
                )
            self.stats.program_statements = self.program.statement_count()
            self.stats.predicate_count = len(self.predicates)
            self.stats.prover_calls = self.prover.stats.calls - started_calls
            self.stats.prover_queries = self.prover.stats.queries - started_queries
            self.stats.prover_cache_hits = (
                self.prover.stats.cache_hits - started_hits
            )
        self._maybe_validate(boolean_program)
        return boolean_program

    def _abstract_procedure(self, func):
        """Pass two for one procedure, fetched whole when its key is
        cached, else translated by :meth:`_translate_procedure`."""
        key = self.analysis.procedure_key(func)
        sids = self.facts.outline(func)[4]
        entry = self.reuse.fetch_procedure(key, sids)
        if entry is None:
            entry = self._translate_procedure(func)
            self.reuse.store_procedure(key, entry, sids)
        else:
            self._add_counters(entry["c2bp"])
        for temp, meaning in entry["temp_meanings"]:
            self.temp_meanings[(func.name, temp)] = meaning
        signature = self.signatures[func.name]
        local_predicates = self.predicates.for_procedure(func.name)
        formal_names = [p.name for p in signature.formal_predicates]
        local_names = [
            p.name for p in local_predicates if p not in signature.formal_predicates
        ] + entry["locals"]
        return B.BProcedure(
            func.name,
            formal_names,
            local_names,
            len(signature.return_predicates),
            list(entry["body"]),
            entry["enforce"],
        )

    def _translate_procedure(self, func):
        """Ω first (liveness anchors the predicates it reads as
        always-live), then every top-level statement in its own temp
        namespace, each part's call-site temporaries renumbered to
        ``__r<N>`` in first-use order.  Returns the procedure entry
        :meth:`repro.analysis.AbstractionReuse.fetch_procedure` yields."""
        enforce = self._enforce(func.name)
        self.analysis.compute_liveness(func.name, enforce)
        body = []
        renamed_temps = []
        temp_meanings = []
        counters = dict.fromkeys(self._COUNTER_FIELDS, 0)
        for index, stmt in enumerate(func.body):
            part, fetched = self._statement_part(func, index, stmt)
            if fetched:
                self._add_counters(part["c2bp"])
            mapping = {}
            for site_name in part["temps"]:
                mapping[site_name] = "__r%d" % len(renamed_temps)
                renamed_temps.append(mapping[site_name])
            if mapping:
                B.rename_stmt_variables(part["stmts"], mapping)
            body.extend(part["stmts"])
            for site_name, meaning in part["temp_meanings"]:
                temp_meanings.append((mapping[site_name], meaning))
            for name, value in part["c2bp"].items():
                counters[name] += value
        return {
            "body": body,
            "locals": renamed_temps,
            "temp_meanings": temp_meanings,
            "enforce": enforce,
            "statements": len(func.body),
            "c2bp": counters,
        }

    def _add_counters(self, counters):
        for name, value in counters.items():
            setattr(self.stats, name, getattr(self.stats, name) + value)

    def _enforce(self, func_name):
        """The procedure's ``enforce`` invariant Ω (Section 5.1), or None."""
        scope = self.predicates.in_scope(func_name)
        if not (self.options.compute_enforce and scope):
            return None
        key = self.analysis.enforce_key(func_name)
        hit, enforce = self.reuse.fetch_enforce(key)
        if not hit:
            enforce = self.search.enforce_expr(scope)
            self.reuse.store_enforce(key, enforce)
        return enforce

    def _statement_part(self, func, index, stmt):
        """``(part, fetched)``: one top-level statement's translated
        part, from the reuse cache when its key is unchanged, else
        freshly translated (its counters already counted) and cached."""
        key = self.analysis.statement_key(func, index, stmt)
        sids = self.facts.outline(func)[5][index][4]
        part = self.reuse.fetch(key, sids)
        if part is not None:
            return part, True
        part = self._translate_statement(func, index, stmt)
        self.reuse.store(
            key,
            part["stmts"],
            part["temps"],
            part["temp_meanings"],
            part["c2bp"],
            sids,
        )
        return part, False

    _COUNTER_FIELDS = (
        "assignments_abstracted",
        "assignments_skipped_unchanged",
        "calls_abstracted",
        "conditionals_abstracted",
    )

    def _translate_statement(self, func, index, stmt):
        """Translate one top-level statement in its own temp namespace
        (``__rc<index>_``) and package it for the reuse cache."""
        counters_before = {
            name: getattr(self.stats, name) for name in self._COUNTER_FIELDS
        }
        meanings_before = set(self.temp_meanings)
        proc_abs = _ProcedureAbstractor(self, func, temp_prefix="__rc%d_" % index)
        translated = proc_abs._abstract_body([stmt])
        temp_meanings = []
        for key in list(self.temp_meanings):
            if key not in meanings_before:
                temp_meanings.append((key[1], self.temp_meanings.pop(key)))
        return {
            "stmts": translated,
            "temps": list(proc_abs._extra_locals),
            "temp_meanings": temp_meanings,
            "c2bp": {
                name: getattr(self.stats, name) - counters_before[name]
                for name in self._COUNTER_FIELDS
            },
        }

    def _maybe_validate(self, boolean_program):
        """The ``--validate-bp`` debug gate: reject a malformed translation
        here, where the C2bp inputs are still on hand, rather than letting
        Bebop trip over it later."""
        if self.options.validate_output:
            from repro.boolprog.validate import validate_bool_program

            validate_bool_program(boolean_program)


class _ProcedureAbstractor:
    """Pass two for the statements of a single procedure."""

    def __init__(self, parent, func, temp_prefix):
        self.parent = parent
        self.func = func
        self.signature = parent.signatures[func.name]
        # Scope = E_G followed by E_R (order is stable for output).
        self.scope_predicates = parent.predicates.in_scope(func.name)
        self._may_alias = parent.analysis.may_alias(func.name)
        # Liveness is solved before any of the procedure's statements.
        self._liveness = parent.analysis.liveness(func.name)
        self._temp_counter = 0
        self._temp_prefix = temp_prefix
        self._extra_locals = []

    # -- conveniences shared with the call translator --------------------------

    def fresh_temp_name(self):
        name = "%s%d" % (self._temp_prefix, self._temp_counter)
        self._temp_counter += 1
        self._extra_locals.append(name)
        return name

    def f_expr(self, candidates, phi):
        return self.parent.search.f_expr(self._cone(candidates, phi), phi)

    def g_expr(self, phi):
        candidates = self._cone(self.scope_predicates, C.negate(phi))
        return self.parent.search.g_expr(candidates, phi)

    def make_choose(self, pos, neg):
        """``choose(pos, neg)`` with the Section 4.3 constant folds."""
        if isinstance(pos, B.BConst) and pos.value:
            return B.BConst(True)
        if isinstance(neg, B.BConst) and neg.value:
            # neg always holds, so the result is exactly pos (which, when
            # constantly false, folds to the constant 0).
            return pos
        if isinstance(pos, B.BConst) and isinstance(neg, B.BConst):
            return B.BUnknown()  # choose(false, false)
        if neg == B.bool_not(pos):
            # choose(e, !e) is exactly e — this is how copying assignments
            # like prev = curr come out as {prev==NULL} = {curr==NULL}.
            return pos
        return B.BChoose(pos, neg)

    def make_choose_for(self, phi):
        """``choose(F(φ), F(¬φ))`` over the full scope."""
        pos = self.f_expr(self.scope_predicates, phi)
        neg = self.f_expr(self.scope_predicates, C.negate(phi))
        return self.make_choose(pos, neg)

    # -- cone of influence (Section 5.2, optimization three) ----------------------

    def _cone(self, candidates, phi):
        if not self.parent.options.cone_of_influence:
            return list(candidates)
        return self.parent.analysis.cone(
            self.func.name, candidates, location_keyset(phi)
        )

    # -- statement translation ---------------------------------------------------

    def _abstract_body(self, stmts):
        out = []
        for stmt in stmts:
            translated = self._abstract_stmt(stmt)
            if stmt.labels:
                if not translated:
                    translated = [B.BSkip()]
                translated[0].labels = list(stmt.labels) + list(translated[0].labels)
            out.extend(translated)
        return out

    def _abstract_stmt(self, stmt):
        comment = pretty_stmt(stmt).strip().split("\n")[0]
        if isinstance(stmt, C.Skip):
            skip = B.BSkip()
            skip.source_sid = stmt.sid
            return [skip]
        if isinstance(stmt, C.Goto):
            goto = B.BGoto(stmt.label)
            goto.source_sid = stmt.sid
            return [goto]
        if isinstance(stmt, C.Assign):
            return self._abstract_assign(stmt, comment)
        if isinstance(stmt, C.CallStmt):
            self.parent.stats.calls_abstracted += 1
            return abstract_call(self, stmt)
        if isinstance(stmt, C.If):
            return self._abstract_if(stmt, comment)
        if isinstance(stmt, C.While):
            return self._abstract_while(stmt, comment)
        if isinstance(stmt, C.Assume):
            assume = B.BAssume(self.g_expr(stmt.cond))
            assume.source_sid = stmt.sid
            assume.comment = comment
            return [assume]
        if isinstance(stmt, C.Assert):
            check = B.BAssert(B.bool_not(self.g_expr(C.negate(stmt.cond))))
            check.source_sid = stmt.sid
            check.comment = comment
            return [check]
        if isinstance(stmt, C.Return):
            values = [
                B.BVar(p.name) for p in self.signature.return_predicates
            ]
            ret = B.BReturn(values)
            ret.source_sid = stmt.sid
            ret.comment = comment
            return [ret]
        raise C2bpError(
            "cannot abstract statement %r (not in intermediate form)"
            % type(stmt).__name__
        )

    def _abstract_assign(self, stmt, comment):
        from repro.core.wp import weakest_precondition, wp_unchanged

        self.parent.stats.assignments_abstracted += 1
        options = self.parent.options
        targets, values = [], []
        for predicate in self.scope_predicates:
            if options.skip_unchanged and wp_unchanged(
                stmt.lhs, stmt.rhs, predicate.expr, self._may_alias
            ):
                self.parent.stats.assignments_skipped_unchanged += 1
                continue
            if self._liveness is not None and not self._liveness.is_live(
                stmt, predicate.name
            ):
                # Dead slot: the predicate's value after this statement
                # cannot reach any observation point, so unknown() (which
                # over-approximates any choose) replaces the cube search.
                self.parent.analysis.stats.predicates_skipped_dead += 1
                targets.append(predicate.name)
                values.append(B.BUnknown())
                continue
            wp_pos = weakest_precondition(
                stmt.lhs, stmt.rhs, predicate.expr, self._may_alias
            )
            wp_neg = weakest_precondition(
                stmt.lhs, stmt.rhs, C.negate(predicate.expr), self._may_alias
            )
            if options.invalidate_constant_derefs and (
                _has_constant_deref(wp_pos) or _has_constant_deref(wp_neg)
            ):
                # The substitution produced a dereference of a constant
                # (e.g. WP(prev = NULL, prev->val > v) mentions 0->val):
                # the predicate's value is undefined after the statement,
                # so it is invalidated (Section 2.1's unknown() case).
                targets.append(predicate.name)
                values.append(B.BUnknown())
                continue
            pos = self.f_expr(self.scope_predicates, wp_pos)
            neg = self.f_expr(self.scope_predicates, wp_neg)
            targets.append(predicate.name)
            values.append(self.make_choose(pos, neg))
        if not targets:
            skip = B.BSkip()
            skip.source_sid = stmt.sid
            skip.comment = comment
            return [skip]
        assign = B.BAssign(targets, values)
        assign.source_sid = stmt.sid
        assign.comment = comment
        return [assign]

    def _guard_assume(self, cond, stmt, comment):
        """``assume(G(cond))`` — omitted entirely when G gives no
        information (the paper's figures leave those branches bare)."""
        guard = self.g_expr(cond)
        if isinstance(guard, B.BConst) and guard.value:
            return []
        assume = B.BAssume(guard)
        assume.source_sid = stmt.sid
        assume.comment = comment
        return [assume]

    def _abstract_if(self, stmt, comment):
        self.parent.stats.conditionals_abstracted += 1
        then_body = self._guard_assume(
            stmt.cond, stmt, "then: " + comment
        ) + self._abstract_body(stmt.then_body)
        else_body = self._guard_assume(
            C.negate(stmt.cond), stmt, "else: " + comment
        ) + self._abstract_body(stmt.else_body)
        branch = B.BIf(B.BNondet(), then_body, else_body)
        branch.source_sid = stmt.sid
        branch.comment = comment
        return [branch]

    def _abstract_while(self, stmt, comment):
        self.parent.stats.conditionals_abstracted += 1
        body = self._guard_assume(
            stmt.cond, stmt, "loop entry: " + comment
        ) + self._abstract_body(stmt.body)
        loop = B.BWhile(B.BNondet(), body)
        loop.source_sid = stmt.sid
        loop.comment = comment
        return [loop] + self._guard_assume(
            C.negate(stmt.cond), stmt, "loop exit: " + comment
        )

