"""Deterministic random sampling for dataset generation and splits.

All randomness flows through a Philox counter-based bit generator with an
explicit integer seed, and Gaussian variates are produced by the Box-Muller
transform applied to Philox uniforms. Philox output is specified exactly
(it is a keyed counter cipher, not a platform-dependent stream), and
Box-Muller is a closed-form map of those uniforms, so any (seed, shape)
pair yields bit-identical samples across runs and platforms.
"""

from __future__ import annotations

import numpy as np


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given seed. `stream` decorrelates sub-uses
    of one run seed (e.g. sampling vs. splitting)."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.Generator(np.random.Philox(key=seed + (stream << 32)))


def standard_normal(gen: np.random.Generator, n: int) -> np.ndarray:
    """n standard-normal draws via Box-Muller on Philox uniforms."""
    pairs = (n + 1) // 2
    # random() is in [0, 1); flip to (0, 1] so the log is finite.
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


def normal(gen: np.random.Generator, mean, std, size: tuple[int, int]) -> np.ndarray:
    """Gaussian matrix with per-column mean and shared scalar std."""
    n, d = size
    g = standard_normal(gen, n * d).reshape(n, d)
    return np.asarray(mean) + std * g


def permutation(gen: np.random.Generator, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): stable argsort of uniforms.

    Depends only on the uniform stream, not on any shuffling algorithm
    internal to numpy. Distinct keys have one sorted order, so numpy's
    faster default sort gives the stable order unless two uniforms tie;
    only then is the stable sort run.
    """
    u = gen.random(n)
    order = np.argsort(u)
    s = u[order]
    if (s[1:] == s[:-1]).any():
        return np.argsort(u, kind="stable")
    return order
