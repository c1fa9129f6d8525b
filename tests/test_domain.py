from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from migsim.domain import (
    CycleError,
    DiscrepancyClass,
    EntityType,
    Key,
    Schema,
    SourceRecord,
    TargetRecord,
    UnknownTypeError,
    VersionStamp,
    at_least_as_fresh,
    compare_records,
    identity_rule,
    map_source,
    merge_rule,
    split_rule,
)
from migsim.scenario import load_file

from conftest import build_figure3_schema, build_split_schema, scenario_path


def src(etype: str, gid: str, value: dict | None, counter: int, t: int = 0) -> SourceRecord:
    if value is None:
        return SourceRecord(Key(etype, gid), {}, VersionStamp(counter, t), True)
    return SourceRecord(Key(etype, gid), value, VersionStamp(counter, t), False)


class TestSchemaRegistration:
    def test_single_type_identity(self):
        schema = Schema(
            [EntityType("p")], [identity_rule("r", "p", "p_v2")]
        )
        assert schema.source_order == ("p",)

    def test_figure3_order(self):
        schema = Schema(
            [
                EntityType("candidate", frozenset({"project", "stage"})),
                EntityType("stage", frozenset({"project"})),
                EntityType("project"),
            ],
            [],
        )
        assert schema.source_order == ("project", "stage", "candidate")

    @pytest.mark.parametrize(
        "parents",
        [
            {"a": {"b"}, "b": {"a"}},
            {"a": {"a"}},
            {"a": {"c"}, "b": {"a"}, "c": {"b"}},
            # The cycle is not reachable from "a", the smallest name.
            {"a": set(), "b": {"a"}, "c": {"e"}, "d": {"c"}, "e": {"d"}, "f": {"c", "a"}},
        ],
        ids=["two", "self", "three", "unreachable_from_smallest"],
    )
    def test_cycle_rejected_naming_parent_links(self, parents):
        with pytest.raises(CycleError) as err:
            Schema([EntityType(n, frozenset(p)) for n, p in parents.items()], [])
        _assert_names_a_cycle(err.value.cycle, parents)

    def test_unknown_parent_rejected(self):
        with pytest.raises(UnknownTypeError):
            Schema([EntityType("a", frozenset({"ghost"}))], [])

    def test_rule_with_unknown_source_rejected(self):
        with pytest.raises(UnknownTypeError):
            Schema([EntityType("a")], [identity_rule("r", "ghost", "g_v2")])

    def test_independent_roots_tie_break_by_name(self):
        schema = Schema([EntityType("b"), EntityType("a")], [])
        assert schema.source_order == ("a", "b")

    def test_source_order_independent_of_declaration_order(self):
        x, y = EntityType("x"), EntityType("y", frozenset({"x"}))
        assert Schema([x, y], []).source_order == Schema([y, x], []).source_order == ("x", "y")

    def test_parents_never_after_children(self):
        # Brute-force check over every declared edge.
        types = [
            EntityType("a"),
            EntityType("b", frozenset({"a"})),
            EntityType("c", frozenset({"a", "b"})),
            EntityType("d", frozenset({"b"})),
            EntityType("e"),
        ]
        schema = Schema(types, [])
        pos = {t: i for i, t in enumerate(schema.source_order)}
        for et in types:
            for parent in et.parents:
                assert pos[parent] < pos[et.name]


def _assert_names_a_cycle(cycle: tuple[str, ...], parents: dict[str, set[str]]) -> None:
    """Distinct names, each followed by one of its parents, the last by the
    first."""
    assert len(set(cycle)) == len(cycle) > 0
    for child, parent in zip(cycle, cycle[1:] + cycle[:1]):
        assert parent in parents[child], (child, cycle)


def _source_order_by_definition(parents: dict[str, set[str]]) -> tuple[str, ...] | None:
    """Repeatedly place the smallest name whose parents are all placed;
    None when some names never become placeable (a cycle)."""
    order: list[str] = []
    left = set(parents)
    while left:
        ready = [n for n in left if parents[n] <= set(order)]
        if not ready:
            return None
        order.append(min(ready))
        left.remove(order[-1])
    return tuple(order)


@st.composite
def type_graphs(draw):
    """1-9 types with random parent sets, about half of them acyclic."""
    names = draw(st.lists(st.text("abcd", min_size=1, max_size=2), min_size=1, max_size=9,
                          unique=True))
    rank = {n: i for i, n in enumerate(draw(st.permutations(names)))}
    acyclic = draw(st.booleans())
    parents = {}
    for name in names:
        chosen = draw(st.sets(st.sampled_from(names), max_size=3))
        if acyclic:
            chosen = {p for p in chosen if rank[p] < rank[name]}
        parents[name] = chosen
    return parents


@given(type_graphs())
def test_source_order_is_the_smallest_ready_name_first(parents):
    want = _source_order_by_definition(parents)
    types = [EntityType(n, frozenset(p)) for n, p in parents.items()]
    if want is not None:
        assert Schema(types, []).source_order == want
        return
    with pytest.raises(CycleError) as err:
        Schema(types, [])
    _assert_names_a_cycle(err.value.cycle, parents)


class TestFreshness:
    def test_counters_rule_when_both_real(self):
        assert at_least_as_fresh(VersionStamp(3, 0), VersionStamp(2, 99))
        assert not at_least_as_fresh(VersionStamp(2, 99), VersionStamp(3, 0))

    def test_commit_time_fallback_for_bootstrap_default(self):
        default = VersionStamp(0, 50)
        real = VersionStamp(7, 40)
        assert at_least_as_fresh(default, real)  # snapshot taken after the commit
        assert not at_least_as_fresh(VersionStamp(0, 30), real)


class TestMapSource:
    def test_identity_carries_value_and_provenance(self):
        rule = identity_rule("r", "p", "p_v2")
        record = src("p", "1", {"name": "x"}, 3)
        (out,) = map_source(rule, {record.key: record})
        assert out.key == Key("p_v2", "1")
        assert out.value == {"name": "x"}
        assert out.provenance == {Key("p", "1"): VersionStamp(3, 0)}
        assert not out.tombstone

    def test_split_produces_both_parts_with_same_provenance(self):
        rule = split_rule(
            "r", "c", [("c_core_v2", ("proj", "state")), ("c_notes_v2", ("notes",))]
        )
        record = src("c", "1", {"proj": "p", "state": "s", "notes": "n"}, 2)
        outs = {r.key: r for r in map_source(rule, {record.key: record})}
        assert set(outs) == {Key("c_core_v2", "1"), Key("c_notes_v2", "1")}
        assert outs[Key("c_core_v2", "1")].value == {"proj": "p", "state": "s"}
        assert outs[Key("c_notes_v2", "1")].value == {"notes": "n"}
        for out in outs.values():
            assert out.provenance == {record.key: record.version}

    def test_merge_combines_sources_with_joint_provenance(self):
        rule = merge_rule("r", ["seat", "profile"], "member_v2")
        seat = src("seat", "1", {"plan": "gold"}, 2)
        profile = src("profile", "1", {"name": "ada"}, 5)
        (out,) = map_source(rule, {seat.key: seat, profile.key: profile})
        assert out.key == Key("member_v2", "1")
        assert out.value == {"seat_plan": "gold", "profile_name": "ada"}
        assert out.provenance == {
            Key("seat", "1"): VersionStamp(2, 0),
            Key("profile", "1"): VersionStamp(5, 0),
        }

    def test_all_tombstoned_inputs_produce_tombstones(self):
        rule = split_rule("r", "c", [("a_v2", ("x",)), ("b_v2", ("y",))])
        record = src("c", "9", None, 4, t=7)
        outs = map_source(rule, {record.key: record})
        assert len(outs) == 2
        for out in outs:
            assert out.tombstone
            assert out.value == {}
            assert out.provenance == {record.key: VersionStamp(4, 7)}

    def test_empty_inputs_produce_nothing(self):
        rule = identity_rule("r", "p", "p_v2")
        assert map_source(rule, {}) == ()

    def test_determinism(self):
        rule = merge_rule("r", ["a", "b"], "m_v2")
        recs = {
            Key("a", "1"): src("a", "1", {"x": "1"}, 1),
            Key("b", "1"): src("b", "1", {"y": "2"}, 2),
        }
        assert map_source(rule, recs) == map_source(rule, recs)


def trec(etype: str, gid: str, value: dict, prov: dict, tombstone: bool = False) -> TargetRecord:
    return TargetRecord(Key(etype, gid), value, prov, tombstone)


class TestCompare:
    K = Key("p", "1")

    def _prov(self, counter: int, t: int = 0) -> dict:
        return {self.K: VersionStamp(counter, t)}

    def test_equal_records_consistent(self):
        a = trec("p_v2", "1", {"n": "x"}, self._prov(3))
        assert compare_records(a, a) is DiscrepancyClass.CONSISTENT

    def test_missing(self):
        exp = trec("p_v2", "1", {"n": "x"}, self._prov(1))
        assert compare_records(exp, None) is DiscrepancyClass.MISSING

    def test_resurrection(self):
        exp = trec("p_v2", "1", {}, self._prov(7), tombstone=True)
        act = trec("p_v2", "1", {"n": "x"}, self._prov(4))
        assert compare_records(exp, act) is DiscrepancyClass.RESURRECTION

    def test_stale(self):
        exp = trec("p_v2", "1", {"n": "new"}, self._prov(5))
        act = trec("p_v2", "1", {"n": "old"}, self._prov(4))
        assert compare_records(exp, act) is DiscrepancyClass.STALE

    def test_corrupt_when_fresh_but_different(self):
        exp = trec("p_v2", "1", {"n": "x"}, self._prov(4))
        act = trec("p_v2", "1", {"n": "mangled"}, self._prov(4))
        assert compare_records(exp, act) is DiscrepancyClass.CORRUPT

    def test_unexpected_extra(self):
        act = trec("p_v2", "1", {"n": "x"}, self._prov(1))
        assert compare_records(None, act) is DiscrepancyClass.UNEXPECTED_EXTRA

    def test_tombstone_expected_and_absent_is_consistent(self):
        exp = trec("p_v2", "1", {}, self._prov(2), tombstone=True)
        assert compare_records(exp, None) is DiscrepancyClass.CONSISTENT

    def test_fresher_actual_is_consistent_when_equal_value(self):
        exp = trec("p_v2", "1", {"n": "x"}, self._prov(3))
        act = trec("p_v2", "1", {"n": "x"}, self._prov(5))
        assert compare_records(exp, act) is DiscrepancyClass.CONSISTENT

    def test_set_compare_reports_per_key(self):
        exp = {
            Key("p_v2", "1"): trec("p_v2", "1", {"n": "a"}, self._prov(1)),
            Key("p_v2", "2"): trec("p_v2", "2", {"n": "b"}, {Key("p", "2"): VersionStamp(1, 0)}),
        }
        act = {Key("p_v2", "1"): exp[Key("p_v2", "1")]}
        verdicts = {key: compare_records(exp.get(key), act.get(key)) for key in exp.keys() | act}
        assert verdicts[Key("p_v2", "1")] is DiscrepancyClass.CONSISTENT
        assert verdicts[Key("p_v2", "2")] is DiscrepancyClass.MISSING


# -- property tests ---------------------------------------------------------

values = st.dictionaries(
    st.sampled_from(["a", "b", "c"]), st.text(max_size=6), max_size=3
)
stamps = st.builds(
    VersionStamp, st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=9)
)
source_records = st.builds(
    lambda gid, value, stamp, tomb: SourceRecord(
        Key("p", gid), {} if tomb else value, stamp, tomb
    ),
    st.sampled_from(["1", "2"]),
    values,
    stamps,
    st.booleans(),
)


@given(source_records)
def test_compare_is_reflexive(record):
    rule = identity_rule("r", "p", "p_v2")
    for out in map_source(rule, {record.key: record}):
        assert compare_records(out, out) is DiscrepancyClass.CONSISTENT


@given(source_records, st.integers(min_value=1, max_value=5))
def test_freshness_monotone_under_version_increase(record, bump):
    rule = identity_rule("r", "p", "p_v2")
    newer = SourceRecord(
        record.key,
        record.value,
        VersionStamp(record.version.counter + bump, record.version.commit_time + bump),
        record.tombstone,
    )
    old_out = map_source(rule, {record.key: record})
    new_out = map_source(rule, {record.key: newer})
    for old, new in zip(old_out, new_out):
        assert at_least_as_fresh(new.provenance[record.key], old.provenance[record.key])


@given(st.lists(source_records, max_size=4))
def test_map_source_deterministic(records):
    # One group per call: the identity rule consumes a single key.
    rule = identity_rule("r", "p", "p_v2")
    for record in records:
        recs = {record.key: record}
        assert map_source(rule, recs) == map_source(rule, recs)


def _affected_targets_by_definition(schema, skey: Key) -> tuple[Key, ...]:
    out = []
    for rule in schema.rules:
        if skey.etype in rule.source_types:
            out.extend(rule.target_keys(skey.id))
    return tuple(sorted(set(out)))


def _parent_target_keys_by_definition(schema, sources) -> tuple[Key, ...]:
    out = set()
    for rec in sources.values():
        if rec.tombstone:
            continue
        for ptype in sorted(schema.types[rec.key.etype].parents):
            ref = rec.value.get("parent_" + ptype)
            if ref is not None:
                out.update(_affected_targets_by_definition(schema, Key(ptype, ref)))
    return tuple(sorted(out))


def _reshape_schema():
    return load_file(scenario_path("reshape")).build_schema()


def _merge_schema():
    return Schema(
        [
            EntityType("account"),
            EntityType("profile", frozenset({"account"})),
            EntityType("settings", frozenset({"account", "profile"})),
        ],
        [
            identity_rule("account_rule", "account", "account_v2"),
            merge_rule("user_rule", ("profile", "settings"), "user_v2"),
        ],
    )


SCHEMAS = {
    "figure3": build_figure3_schema(),
    "split": build_split_schema(),
    "merge": _merge_schema(),
    "reshape": _reshape_schema(),
}


class TestPerTypeKeyMaps:
    """The precomputed per-type maps answer exactly what the definitions say."""

    @pytest.fixture(params=sorted(SCHEMAS))
    def schema(self, request):
        return SCHEMAS[request.param]

    def test_affected_targets(self, schema):
        for etype in [*schema.types, "not_a_type"]:
            for gid in ("1", "42"):
                key = Key(etype, gid)
                assert schema.affected_targets(key) == _affected_targets_by_definition(
                    schema, key
                )

    def test_rules_for_source(self, schema):
        for etype in schema.types:
            want = tuple(r for r in schema.rules if etype in r.source_types)
            assert schema.rules_for_source(etype) == want

    def test_parent_target_keys(self, schema):
        for rule in schema.rules:
            for gid, ref in (("1", "7"), ("2", "2")):
                for tomb in (False, True):
                    sources = {}
                    for stype in rule.source_types:
                        parents = schema.types[stype].parents
                        value = {} if tomb else {"parent_" + p: ref for p in parents}
                        key = Key(stype, gid)
                        sources[key] = SourceRecord(key, value, VersionStamp(1, 0), tomb)
                    assert tuple(
                        sorted(schema.parent_target_keys(sources))
                    ) == _parent_target_keys_by_definition(schema, sources)

    def test_built_keys_are_keys_equal_to_constructed_ones(self, schema):
        # The queries build keys with `tuple.__new__`, not `Key(...)`: the
        # results must still be `Key`s, equal and sorted as before.
        built = []
        for rule in schema.rules:
            built.append((rule.input_keys("7"), tuple(Key(st, "7") for st in rule.source_types)))
            built.append((rule.target_keys("7"), tuple(Key(tt, "7") for tt in rule.target_types)))
        for etype, et in schema.types.items():
            key = Key(etype, "7")
            refs = {"parent_" + p: "3" for p in et.parents}
            record = SourceRecord(key, refs, VersionStamp(1, 0), False)
            built += [
                (schema.affected_targets(key), _affected_targets_by_definition(schema, key)),
                (
                    tuple(sorted(schema.parent_target_keys({key: record}))),
                    _parent_target_keys_by_definition(schema, {key: record}),
                ),
            ]
        assert any(got for got, _want in built[2 * len(schema.rules):])
        for got, want in built:
            assert got == want
            assert all(type(k) is Key for k in got)
            assert [str(k) for k in got] == [f"{k.etype}#{k.id}" for k in want]


group_ids = st.sampled_from(["1", "2", "7", "42"])


@st.composite
def schema_and_group(draw):
    """A shipped-shape schema, one of its rules, and a random present subset
    of that rule's inputs with random parent references and tombstones."""
    schema = SCHEMAS[draw(st.sampled_from(sorted(SCHEMAS)))]
    rule = draw(st.sampled_from(schema.rules))
    gid = draw(group_ids)
    sources = {}
    for stype in rule.source_types:
        if not draw(st.booleans()):
            continue
        tomb = draw(st.booleans())
        value = {"n": draw(st.text(max_size=3))}
        for parent in schema.types[stype].parents:
            if draw(st.booleans()):
                value["parent_" + parent] = draw(group_ids)
        stamp = VersionStamp(draw(st.integers(0, 5)), draw(st.integers(0, 50)))
        key = Key(stype, gid)
        # The dict key is an equal but distinct object from the record's own.
        sources[Key(stype, gid)] = SourceRecord(key, {} if tomb else value, stamp, tomb)
    return schema, rule, sources


@given(schema_and_group(), group_ids)
def test_key_maps_match_definitions(case, gid):
    schema, rule, sources = case
    assert tuple(sorted(schema.parent_target_keys(sources))) == _parent_target_keys_by_definition(
        schema, sources
    )
    for etype in [*schema.types, *rule.target_types]:
        key = Key(etype, gid)
        assert schema.affected_targets(key) == _affected_targets_by_definition(schema, key)


@given(schema_and_group())
def test_parent_rows_reach_the_parent_target_keys(case):
    # The oracle's walk: from a target type to its rule's input types, and
    # from each live input record through its type's parent rows.
    schema, rule, sources = case
    gid = next(iter(sources)).id if sources else "1"
    for ttype in rule.target_types:
        direct = set()
        for stype in schema.rule_for_target(ttype).source_types:
            rec = sources.get(Key(stype, gid))
            if rec is None or rec.tombstone:
                continue
            for field_name, ttypes in schema.parent_rows[stype]:
                if field_name in rec.value:
                    direct.update(Key(tt, rec.value[field_name]) for tt in ttypes)
        assert direct == schema.parent_target_keys(sources)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_no_target_type_is_a_parent_of_another_of_its_rule(name):
    # The dual writer puts a group's outputs in transform order: that is
    # parents-first only while this holds.
    schema = SCHEMAS[name]
    for rule in schema.rules:
        parent_targets = {
            ptt
            for st in rule.source_types
            for ptype in schema.types[st].parents
            for prule in schema.rules
            if ptype in prule.source_types
            for ptt in prule.target_types
        }
        # Every output of the rule has these parents.  A merge of a parent
        # and its child names its own one output here, which orders nothing.
        for tt in rule.target_types:
            assert not (parent_targets - {tt}) & set(rule.target_types), (rule.name, tt)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_rule_for_a_type_no_rule_produces_raises(name):
    schema = SCHEMAS[name]
    for etype in [*schema.types, "not_a_type"]:
        with pytest.raises(UnknownTypeError):
            schema.rule_for_target(etype)


@given(schema_and_group())
def test_map_source_outputs_share_one_tombstone_flag(case):
    # The dual writer checks a live group's parents once for all its outputs.
    _schema, rule, sources = case
    assert len({out.tombstone for out in map_source(rule, sources)}) <= 1


@given(schema_and_group())
def test_map_source_provenance_is_the_consumed_stamps(case):
    schema, rule, sources = case
    out = map_source(rule, sources)
    if not sources:
        assert out == ()
        return
    assert [r.key for r in out] == list(rule.target_keys(next(iter(sources)).id))
    want = {k: rec.version for k, rec in sources.items()}
    for record in out:
        assert record.provenance == want
        assert list(record.provenance) == list(want)
        # Provenance shares each source record's own key object.
        own = {rec.key: rec.key for rec in sources.values()}
        assert all(pkey is own[pkey] for pkey in record.provenance)
        assert record.tombstone == all(rec.tombstone for rec in sources.values())
