"""Named, independent random substreams derived from one root seed.

Each component asks for a stream by name, so adding or removing a component
never perturbs the draws any other component sees.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

# Draws `uniforms` takes per call into numpy: enough to spread its fixed
# per-call cost thin, few enough to stay a few kilobytes ahead.
UNIFORM_BLOCK = 512


def _stream_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def named_stream(root_seed: int, name: str) -> np.random.Generator:
    """Deterministic generator for (root_seed, name), independent per name."""
    seq = np.random.SeedSequence([root_seed & 0xFFFFFFFFFFFFFFFF, _stream_key(name)])
    return np.random.Generator(np.random.PCG64(seq))


def uniforms(rng: np.random.Generator, block: int = UNIFORM_BLOCK) -> Iterator[float]:
    """`rng.random()`'s draws, in order, taken `block` at a time.

    `rng.random(k)` is k scalar draws in one call, so for a stream that
    draws nothing else this yields the same floats a scalar draw per call
    would; only the stream's state runs up to a block ahead.
    """
    while True:
        yield from rng.random(block).tolist()
