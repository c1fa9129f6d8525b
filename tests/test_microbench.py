"""Each microbenchmark in `microbench/` runs once, untimed.

The benches sit outside `testpaths`, so without this a change to the code
they drive could break them unnoticed.  The `benchmark` stand-in calls the
benched function once and passes its result through.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_FILE = Path(__file__).resolve().parents[1] / "microbench" / "test_primitives.py"


def _load_benches():
    spec = importlib.util.spec_from_file_location("microbench_primitives", BENCH_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: fn for name, fn in vars(module).items() if name.startswith("test_")}


BENCHES = _load_benches()


class _RunOnce:
    """The part of pytest-benchmark's `benchmark` fixture the benches use."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, target, args=(), kwargs=None, setup=None, **_rounds):
        if setup is not None:
            args, kwargs = setup()
        return target(*args, **(kwargs or {}))


def test_every_bench_is_found():
    assert len(BENCHES) >= 8


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_bench_runs_once(name):
    BENCHES[name](_RunOnce())
