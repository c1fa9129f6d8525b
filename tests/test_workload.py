from __future__ import annotations

import pytest

from migsim.rng import named_stream
from migsim.scenario import BurstSpec, WorkloadSpec
from migsim.workload import OP_DELETE, OP_READ, OP_WRITE, WorkloadGenerator

from conftest import build_figure3_schema

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

