"""Tests for the content-addressed persistent store and its key scheme.

Covers the record format (self-verification, corrupt-record handling as
an injected-bug meta-test), the store's LRU byte cap, byte-identical
cold/warm/near-repeat runs against one store, and — with hypothesis —
the process-stability of the canonical key
texts: alpha-renaming generated temps, reordering or duplicating
antecedents, and whitespace must not change a key, while semantically
different queries must not collide.
"""

import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import C2bp, parse_c_program, parse_predicate_file
from repro.boolprog.printer import print_bool_program
from repro.cfront import parse_expression
from repro.serve import (
    PersistentStore,
    StoreRecordError,
    canonical_query_text,
    enforce_store_key,
    options_fingerprint,
    query_store_key,
    statement_store_key,
)
from repro.serve.bebopcache import deserialize_table, serialize_table
from repro.core.options import SEMANTIC_OPTION_FIELDS
from repro.serve.store import decode_record, encode_record
from repro.core import C2bpOptions
from repro.engine import EngineContext
from repro.programs import get_program


# -- record format ---------------------------------------------------------


def test_record_roundtrip():
    blob = encode_record("prover|v1|k", {"answer": [1, 2, 3]})
    key, value = decode_record(blob)
    assert key == "prover|v1|k"
    assert value == {"answer": [1, 2, 3]}


def test_record_rejects_flipped_bit():
    blob = bytearray(encode_record("prover|v1|k", "value"))
    blob[-1] ^= 0xFF
    with pytest.raises(StoreRecordError):
        decode_record(bytes(blob))


def test_record_rejects_bad_magic_and_version():
    blob = encode_record("k", "v")
    with pytest.raises(StoreRecordError):
        decode_record(b"XXXX" + blob[4:])
    with pytest.raises(StoreRecordError):
        decode_record(blob[:4] + bytes([99]) + blob[5:])


# -- store behaviour -------------------------------------------------------


def test_store_roundtrip_and_counters(tmp_path):
    store = PersistentStore(str(tmp_path / "cache"))
    hit, _ = store.get("prover|v1|q")
    assert not hit and store.misses == 1
    assert store.put("prover|v1|q", ("valid", True))
    hit, value = store.get("prover|v1|q")
    assert hit and value == ("valid", True)
    assert store.hits == 1 and store.writes == 1
    assert store.snapshot()["namespaces"]["prover"] == {
        "hits": 1,
        "misses": 1,
    }


def test_store_first_write_wins(tmp_path):
    store = PersistentStore(str(tmp_path))
    assert store.put("k", "first")
    assert not store.put("k", "second")
    assert store.write_skips == 1
    assert store.get("k") == (True, "first")
    assert store.put("k", "second", overwrite=True)
    assert store.get("k") == (True, "second")


def test_corrupt_record_is_a_counted_miss(tmp_path):
    """Injected-bug meta-test: flip bits in a stored record on disk; the
    store must detect the checksum mismatch, delete the record, count it
    under ``cache_corrupt_records``, and answer a miss — and a subsequent
    put/get cycle must recover."""
    store = PersistentStore(str(tmp_path))
    store.put("prover|v1|q", "answer")
    (record,) = [
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(str(tmp_path))
        for name in names
        if name.endswith(".rec")
    ]
    blob = bytearray(open(record, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    with open(record, "wb") as handle:
        handle.write(bytes(blob))
    hit, _ = store.get("prover|v1|q")
    assert not hit
    assert store.cache_corrupt_records == 1
    assert not os.path.exists(record), "corrupt record must be deleted"
    store.put("prover|v1|q", "answer")
    assert store.get("prover|v1|q") == (True, "answer")


def test_wrong_key_under_right_digest_is_corrupt(tmp_path):
    """A record whose stored key text differs from the probed key (as a
    digest collision would produce) is treated as corrupt, not served."""
    store = PersistentStore(str(tmp_path))
    store.put("a", "value-for-a")
    path = store._path("a")
    with open(path, "wb") as handle:
        handle.write(encode_record("b", "value-for-b"))
    hit, _ = store.get("a")
    assert not hit and store.cache_corrupt_records == 1


def test_lru_eviction_respects_cap_and_recency(tmp_path):
    store = PersistentStore(str(tmp_path), max_bytes=3000)
    payload = "x" * 150  # ~200 bytes per record
    for index in range(8):
        store.put("k%d" % index, payload)
    os.utime(store._path("k0"))  # refresh k0: most recently used
    for index in range(8, 16):
        store.put("k%d" % index, payload)
    assert store.evictions > 0
    assert store.total_bytes() <= 3000
    assert os.path.exists(store._path("k0")), (
        "recently-touched record must survive"
    )
    assert not os.path.exists(store._path("k1")), (
        "oldest untouched record must be evicted"
    )


def test_snapshot_hits_count_reuse_level_lookups(tmp_path):
    """The snapshot's ``hits`` count the lookups the reuse level answers,
    not only disk reads: a repeat abstraction of one text on one store
    object reads no disk record, yet its hits grow."""
    from repro.cli import run_abstract

    study = get_program("partition")
    store = PersistentStore(str(tmp_path))
    snapshots = []
    for _ in range(2):
        with EngineContext(store=store) as context:
            run_abstract(
                context, study.source, study.predicate_text, io.StringIO(),
                name=study.name,
            )
        snapshots.append(store.snapshot())
    first, second = snapshots
    assert second["bytes_read"] == first["bytes_read"]
    assert second["namespaces"] == first["namespaces"]
    assert second["hits"] > first["hits"]


def test_repeat_check_reads_no_bebop_record(tmp_path):
    """A repeat ``check`` of one text on one store object rebuilds its
    compiled Bebop tables from the reuse level: the ``bebop`` namespace's
    disk hits stay where the first run left them."""
    from repro.cli import run_check

    study = get_program("partition")
    store = PersistentStore(str(tmp_path))
    outputs, snapshots = [], []
    for _ in range(2):
        out = io.StringIO()
        with EngineContext(store=store) as context:
            run_check(
                context, study.source, study.predicate_text, out,
                name=study.name, entry=study.entry,
            )
        outputs.append(out.getvalue())
        snapshots.append(store.snapshot())
    first, second = snapshots
    assert outputs[0] == outputs[1]
    assert first["reuse_level"]["bebop_tables"] > 0
    assert second["namespaces"]["bebop"] == first["namespaces"]["bebop"]
    assert second["bytes_read"] == first["bytes_read"]
    assert second["hits"] > first["hits"]


#: The near-repeat edit: a new procedure appended after the existing
#: text, so every earlier statement's identity (and store key) is
#: untouched.  The ``__pad`` names cannot collide with corpus code.
NEAR_REPEAT_PAD = "\nint __pad(int __pad_x) { return __pad_x; }\n"


def _abstract(study, source, cache_dir):
    """One corpus program through C2bp: its printed boolean program, the
    prover calls it made, and the store's counters."""
    program = parse_c_program(source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    with EngineContext(options=C2bpOptions(cache_dir=cache_dir)) as context:
        tool = C2bp(program, predicates, context=context)
        text = print_bool_program(tool.run())
        store = context.store.counters() if context.store is not None else {}
        return text, tool.prover.stats.calls, store


@pytest.mark.parametrize("name", ("partition", "listfind"))
def test_store_runs_print_uncached_bytes(name, tmp_path):
    """Cold and warm runs against one store print the uncached boolean
    program; the warm run answers at least 95 % of its lookups from the
    store with zero prover calls, and a near-repeat (one new trailing
    procedure) prints its uncached bytes while hitting the unchanged
    statements."""
    study = get_program(name)
    cache_dir = str(tmp_path / "cache")
    baseline, _, _ = _abstract(study, study.source, None)
    cold, _, _ = _abstract(study, study.source, cache_dir)
    warm, warm_calls, warm_store = _abstract(study, study.source, cache_dir)
    assert cold == warm == baseline
    assert warm_calls == 0
    lookups = warm_store["hits"] + warm_store["misses"]
    assert warm_store["hits"] >= 0.95 * lookups
    edited = study.source + NEAR_REPEAT_PAD
    edited_baseline, _, _ = _abstract(study, edited, None)
    near, _, near_store = _abstract(study, edited, cache_dir)
    assert near == edited_baseline
    assert near_store["hits"] > 0


# -- canonical key stability -----------------------------------------------

_TEMPLATES = (
    "{t0} == x",
    "{t0} > {t1}",
    "x + {t1} <= 3",
    "{t0} != 0",
    "y < {t1} + {t0}",
    "x == 1",
    "{t1} == {t0} + x",
)


def _instantiate(templates, first, second):
    return [
        parse_expression(t.format(t0="__t%d" % first, t1="__t%d" % second))
        for t in templates
    ]


@st.composite
def _query(draw):
    antecedents = draw(
        st.lists(st.sampled_from(_TEMPLATES), min_size=1, max_size=4)
    )
    goal = draw(st.sampled_from(_TEMPLATES))
    return goal, antecedents


@st.composite
def _temp_pair(draw):
    first = draw(st.integers(min_value=1, max_value=40))
    second = draw(
        st.integers(min_value=1, max_value=40).filter(lambda n: n != first)
    )
    return first, second


@settings(max_examples=60, deadline=None)
@given(_query(), _temp_pair(), _temp_pair(), st.randoms())
def test_key_stable_under_temp_renaming_and_reordering(query, left, right, rng):
    """Renaming the generated temps injectively and permuting/duplicating
    the antecedent set must not change the canonical key text."""
    goal, antecedents = query
    base = canonical_query_text(
        "implies",
        _instantiate(antecedents, *left),
        consequent=parse_expression(goal.format(t0="__t%d" % left[0], t1="__t%d" % left[1])),
    )
    shuffled = list(antecedents)
    rng.shuffle(shuffled)
    shuffled.append(shuffled[0])  # duplicates fold into the set
    renamed = canonical_query_text(
        "implies",
        _instantiate(shuffled, *right),
        consequent=parse_expression(goal.format(t0="__t%d" % right[0], t1="__t%d" % right[1])),
    )
    assert base == renamed


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
def test_distinct_constants_never_collide(a, b):
    left = canonical_query_text("implies", [parse_expression("x == %d" % a)])
    right = canonical_query_text("implies", [parse_expression("x == %d" % b)])
    assert (left == right) == (a == b)


def test_key_ignores_whitespace_via_pretty_printer():
    dense = canonical_query_text("implies", [parse_expression("x+1==y")])
    spaced = canonical_query_text("implies", [parse_expression("x + 1 == y")])
    assert dense == spaced


def test_canonical_guard_falls_back_to_raw_text():
    # A real __c identifier disables alpha-normalization (injectivity
    # guard): the key still exists, just without temp renaming.
    text = canonical_query_text(
        "implies", [parse_expression("__c0 == __t1")]
    )
    assert "__t1" in text


def test_store_keys_are_namespaced_and_versioned():
    key = query_store_key(("implies", frozenset([parse_expression("x == 1")]), None))
    assert key.startswith("prover|v1|")
    options = C2bpOptions()
    stmt = statement_store_key(("sid", 1), options)
    assert stmt.startswith("c2bp-stmt|v1|")
    enforce = enforce_store_key(("proc", ()), options)
    assert enforce.startswith("c2bp-enforce|v1|")


def test_options_fingerprint_tracks_semantic_fields_only():
    base = C2bpOptions()
    assert options_fingerprint(base) == options_fingerprint(
        base.copy(validate_output=True, cache_dir="/elsewhere")
    )
    for field in SEMANTIC_OPTION_FIELDS:
        current = getattr(base, field)
        if isinstance(current, bool):
            changed = base.copy(**{field: not current})
        else:
            changed = base.copy(**{field: (current or 0) + 1})
        assert options_fingerprint(changed) != options_fingerprint(base), field


def test_options_fingerprint_memo_follows_values_and_types():
    import hashlib

    def uncached(options):
        parts = tuple(
            (name, getattr(options, name, None)) for name in SEMANTIC_OPTION_FIELDS
        )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]

    options = C2bpOptions()
    assert options_fingerprint(options) == uncached(options)
    options.skip_unchanged = not options.skip_unchanged  # mutated in place
    assert options_fingerprint(options) == uncached(options)
    # True == 1, but the two digest differently, and so must the memo.
    as_int = C2bpOptions(compute_enforce=1)
    as_bool = C2bpOptions(compute_enforce=True)
    assert options_fingerprint(as_bool) == uncached(as_bool)
    assert options_fingerprint(as_int) == uncached(as_int)
    assert options_fingerprint(as_int) != options_fingerprint(as_bool)


def test_keys_stable_across_hash_seeds():
    """The canonical texts must not depend on PYTHONHASHSEED — compute
    them in two subprocesses with different seeds and compare."""
    script = (
        "from repro.cfront import parse_expression\n"
        "from repro.serve import canonical_query_text\n"
        "exprs = [parse_expression(t) for t in ('__t3 == x', 'y < __t7 + __t3', 'x != 0')]\n"
        "print(canonical_query_text('implies', exprs, parse_expression('__t7 > 1')))\n"
    )
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1


# -- Bebop table rehydration -------------------------------------------------


def _partition_checker_inputs():
    from repro.core import C2bp, parse_predicate_file
    from repro.cfront import parse_c_program
    from repro.engine import EngineContext
    from repro.programs import get_program

    study = get_program("partition")
    program = parse_c_program(study.source, name=study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    with EngineContext() as context:
        return C2bp(program, predicates, context=context).run(), study.entry


def _assert_same_tables(loaded, compiled):
    """Same BDD node objects, same variable plumbing."""
    assert all(a is b for a, b in zip(loaded.iter_bdds(), compiled.iter_bdds()))
    assert len(list(loaded.iter_bdds())) == len(list(compiled.iter_bdds()))
    assert loaded.ent_vars == compiled.ent_vars
    assert loaded.in_to_ent == compiled.in_to_ent
    assert loaded.summary_locals == compiled.summary_locals
    assert loaded.summary_map == compiled.summary_map
    assert sorted(loaded.transfers) == sorted(compiled.transfers)


def _rehydrate_into(checker, records):
    before = checker.manager.ite_calls
    for name, table in checker._compiled.items():
        _assert_same_tables(deserialize_table(checker, records[name]), table)
    return checker.manager.ite_calls - before


def test_rehydrated_tables_are_the_fresh_compile_nodes():
    from repro.bebop import Bebop

    boolean_program, entry = _partition_checker_inputs()
    source = Bebop(boolean_program, main=entry)
    records = {
        name: serialize_table(source, table)
        for name, table in source._compiled.items()
    }
    # A fresh manager with the same preallocated slot order: every node
    # goes straight into the unique table, without a single ite call.
    fresh = Bebop(boolean_program, main=entry)
    assert fresh.manager is not source.manager
    assert _rehydrate_into(fresh, records) == 0


def test_rehydration_falls_back_to_ite_when_the_order_breaks():
    from repro.bebop import Bebop, BebopReuse

    boolean_program, entry = _partition_checker_inputs()
    source = Bebop(boolean_program, main=entry)
    records = {
        name: serialize_table(source, table)
        for name, table in source._compiled.items()
    }
    # Reversed slot numbering: the record's variable order no longer
    # holds, so rehydration must rebuild nodes with ite.
    reuse = BebopReuse()
    for key in reversed(list(source._slots)):
        reuse.slots[key] = len(reuse.slots)
    permuted = Bebop(boolean_program, main=entry, reuse=reuse)
    assert _rehydrate_into(permuted, records) > 0
