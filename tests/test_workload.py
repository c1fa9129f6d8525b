from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from migsim.domain import PARENT_REF_PREFIX, Key
from migsim.rng import named_stream
from migsim.scenario import BurstSpec, WorkloadSpec, load_file
from migsim.workload import OP_DELETE, OP_READ, OP_WRITE, WorkloadGenerator, WorkloadOp

from conftest import build_figure3_schema, scenario_path

WEIGHTS = (("project", 0.2), ("stage", 0.2), ("candidate", 0.6))


def make_gen(spec: WorkloadSpec, seed: int = 1) -> WorkloadGenerator:
    return WorkloadGenerator(spec, build_figure3_schema(), named_stream(seed, "workload"))


def test_zero_rates_generate_nothing():
    gen = make_gen(WorkloadSpec(type_weights=WEIGHTS))
    assert gen.generate_step(0, lambda k: None) == []


def test_seed_respects_dependency_order():
    gen = make_gen(WorkloadSpec(initial_records=50, type_weights=WEIGHTS))
    ops = gen.seed_initial()
    first_by_type = {}
    for i, op in enumerate(ops):
        first_by_type.setdefault(op.key.etype, i)
    assert first_by_type["project"] < first_by_type["stage"] < first_by_type["candidate"]
    # every child references an already-seeded parent
    seen = set()
    for op in ops:
        for field, ref in op.value.items():
            if field.startswith("parent_"):
                assert (field.removeprefix("parent_"), ref) in seen
        seen.add((op.key.etype, op.key.id))


def test_burst_emits_exact_count_in_one_tick():
    spec = WorkloadSpec(
        initial_records=30,
        type_weights=WEIGHTS,
        bursts=(BurstSpec(100, 50, "candidate"),),
    )
    gen = make_gen(spec)
    gen.seed_initial()
    assert gen.generate_step(99, lambda k: None) == []
    ops = gen.generate_step(100, lambda k: None)
    assert len(ops) == 50
    assert all(op.kind == OP_WRITE and op.key.etype == "candidate" for op in ops)


def test_bulk_freeze_suppresses_bursts():
    spec = WorkloadSpec(
        initial_records=30,
        type_weights=WEIGHTS,
        bursts=(BurstSpec(100, 50, "candidate"),),
    )
    gen = make_gen(spec)
    gen.seed_initial()
    assert gen.generate_step(100, lambda k: None, bulk_frozen=True) == []


def test_writes_until_stops_writes_but_not_reads():
    spec = WorkloadSpec(
        initial_records=30, type_weights=WEIGHTS,
        write_rate=5.0, read_rate=5.0, writes_until=10,
    )
    gen = make_gen(spec)
    gen.seed_initial()
    late = gen.generate_step(11, lambda k: None)
    assert late and all(op.kind == OP_READ for op in late)


def test_day_night_rate_factor():
    spec = WorkloadSpec(
        initial_records=10, type_weights=WEIGHTS,
        night_rate_factor=0.25, day_ticks=100,
    )
    gen = make_gen(spec)
    assert gen.rate_factor(50) == 1.0
    assert gen.rate_factor(150) == 0.25
    assert gen.rate_factor(250) == 1.0


def test_same_seed_same_stream():
    spec = WorkloadSpec(
        initial_records=40, type_weights=WEIGHTS,
        write_rate=4.0, read_rate=2.0, delete_fraction=0.1,
        delete_types=("candidate",),
    )

    def run(seed):
        gen = make_gen(spec, seed=seed)
        gen.seed_initial()
        out = []
        for now in range(30):
            out.extend((now, op.kind, op.key) for op in gen.generate_step(now, lambda k: None))
        return out

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_deletes_only_from_declared_types():
    spec = WorkloadSpec(
        initial_records=60, type_weights=WEIGHTS,
        write_rate=10.0, delete_fraction=0.5, delete_types=("candidate",),
    )
    gen = make_gen(spec)
    gen.seed_initial()
    deletes = [
        op
        for now in range(40)
        for op in gen.generate_step(now, lambda k: None)
        if op.kind == OP_DELETE
    ]
    assert deletes
    assert all(op.key.etype == "candidate" for op in deletes)


@pytest.mark.parametrize(
    "weights",
    [(0.2, 0.2, 0.6), (1.0, 1.0, 1.0), (0.5, 0.0, 0.5), (0.0, 0.3, 0.7), (0.1, 0.9, 0.0),
     (0.0, 0.0, 1.0), (3e-9, 0.999, 7.0)],
    ids=["figure3", "thirds", "zero_middle", "zero_first", "zero_last", "one", "tiny"],
)
def test_type_pick_is_generator_choice_draw_for_draw(weights):
    """The generator's type pick is `rng.choice(len(p), p=p)` over the
    normalised weights, zeros included: the same type on every draw and
    the same generator state afterwards, with other draws interleaved."""
    schema = build_figure3_schema()
    types = schema.source_order
    gen = WorkloadGenerator(
        WorkloadSpec(type_weights=tuple(zip(types, weights))), schema,
        named_stream(5, "workload"),
    )
    ref = named_stream(5, "workload")
    p = [w / sum(weights) for w in weights]
    picks, expected = [], []
    for i in range(5_000):
        picks.append(gen._pick_type())
        expected.append(types[ref.choice(len(p), p=p)])
        if i % 3 == 0:
            assert gen.rng.integers(1 + i % 17) == ref.integers(1 + i % 17)
    assert picks == expected
    assert gen.rng.bit_generator.state == ref.bit_generator.state
    assert {t for t, w in zip(types, weights) if w == 0}.isdisjoint(picks)


@pytest.mark.parametrize("name", ["workload", "target_ops", "stream", "bootstrap"])
def test_integers_over_bounds_is_one_scalar_draw_per_bound(name):
    """numpy's contract that `_create` rests on: `rng.integers(bounds)` over
    an array gives the draws of one scalar `rng.integers(bound)` per element,
    in order, and leaves the same generator state.  The bounds cross the
    32-bit boundary, where numpy changes its bounded-integer method."""
    bounds = [1, 2, 7, 2000, 2**32 - 1, 2**32, 2**32 + 5, 2**40]
    highs = [bounds[(5 * i + 3) % len(bounds)] for i in range(64)]
    block, scalar = named_stream(11, name), named_stream(11, name)
    for _ in range(3):
        assert block.integers(np.array(highs)).tolist() == [int(scalar.integers(h)) for h in highs]
        assert block.bit_generator.state == scalar.bit_generator.state
        assert block.random() == scalar.random()


class ScalarCreateGenerator(WorkloadGenerator):
    """The generator with the per-record create path that `_create` replaced:
    per attempt a value number, then one `rng.integers(len(pool))` per
    parent type in sorted order, and no record at the first empty pool."""

    def _create(self, etype: str, n: int) -> list[WorkloadOp]:
        ops = []
        for _ in range(n):
            gid = str(self._next_id[etype] + 1)
            self._value_counter += 1
            v = self._value_counter
            value = {"profile": f"{etype}-{gid}-p{v}", "note": f"{etype}-{gid}-n{v}"}
            for ptype in sorted(self.schema.types[etype].parents):
                ids = self._live[ptype]
                if not ids:
                    break
                value[PARENT_REF_PREFIX + ptype] = ids[int(self.rng.integers(len(ids)))]
            else:
                self._next_id[etype] += 1
                key = Key(etype, gid)
                self._live_pos[key] = len(self._live[etype])
                self._live[etype].append(gid)
                self._all_keys.append(key)
                ops.append(WorkloadOp(OP_WRITE, key, value))
        return ops


FIGURE3 = ("project", "stage", "candidate")
RESHAPE = ("account", "seat", "profile", "candidate")


@pytest.mark.parametrize(
    "schema_name, weights, initial",
    [
        ("figure3", (0.2, 0.2, 0.6), 500),
        ("reshape", (0.2, 0.2, 0.2, 0.4), 500),
        ("figure3", (0.5, 0.0, 0.5), 300),  # no stage until a burst: candidates draw, make nothing
        ("figure3", (0.5, 0.01, 0.49), 20),  # the stage count rounds to 0
        ("figure3", (0.2, 0.2, 0.6), 1),  # one candidate attempt, no project yet
    ],
    ids=["figure3", "reshape", "zero_weight_parent", "count_rounds_to_0", "one_record"],
)
def test_create_is_the_scalar_path_draw_for_draw(schema_name, weights, initial):
    """Seeding, steady creates and bursts give the per-record path's ops and
    leave its generator state, edge cases included."""
    if schema_name == "figure3":
        schema, types = build_figure3_schema(), FIGURE3
    else:
        schema, types = load_file(scenario_path("reshape")).build_schema(), RESHAPE
    spec = WorkloadSpec(
        initial_records=initial, type_weights=tuple(zip(types, weights)),
        write_rate=3.0, read_rate=1.0, delete_fraction=0.1, delete_types=(types[-1],),
        bursts=tuple(
            BurstSpec(at, size, etype)
            for at, size, etype in ((30, 120, types[-1]), (60, 40, types[1]), (90, 3, types[0]),
                                    (120, 250, types[-1]), (150, 1, types[1]))
        ),
    )
    gens = [cls(spec, schema, named_stream(4, "workload"))
            for cls in (WorkloadGenerator, ScalarCreateGenerator)]

    def rows(ops, store):
        for op in ops:
            if op.kind == OP_WRITE:
                store[op.key] = SimpleNamespace(value=op.value)
        return [(op.kind, op.key, op.value) for op in ops]

    stores = [{}, {}]
    bulk, scalar = (rows(g.seed_initial(), st) for g, st in zip(gens, stores))
    assert bulk == scalar
    assert gens[0].rng.bit_generator.state == gens[1].rng.bit_generator.state
    for now in range(200):
        bulk, scalar = (rows(g.generate_step(now, st.get), st) for g, st in zip(gens, stores))
        assert bulk == scalar, now
    assert gens[0].rng.bit_generator.state == gens[1].rng.bit_generator.state
    assert gens[0]._value_counter == gens[1]._value_counter
