"""Deterministic seed derivation.

Every stochastic routine in the package takes an explicit integer seed and
gets its generator or its child seeds here, so one check covers them all: a
seed is a non-negative integer of any size, and anything else raises
ValidationError. An entry point that may return before any draw calls
``_check_seed`` itself. Nested work (per-community recursion, per-run sweep
cells) derives child seeds through numpy's SeedSequence spawn-key mechanism,
so the derived streams are independent of execution order and of each other.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ValidationError


def make_rng(seed: int) -> np.random.Generator:
    """numpy's default Generator for ``seed``."""
    return np.random.default_rng(_check_seed(seed))


def derive_seed(seed: int, *path: int) -> int:
    """Child seed for the subtask addressed by ``path`` under ``seed``.

    The same (seed, path) pair always yields the same child, and distinct
    paths yield statistically independent streams. Used for multiscale
    recursion (path = community ids down the tree) and sweep cells
    (path = (gamma_index, seed_index)).
    """
    ss = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _check_seed(seed) -> int:
    """``seed`` as an int; ValidationError unless it is a non-negative integer
    other than a bool."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)
