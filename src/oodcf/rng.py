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


def standard_normal(gen: np.random.Generator, n: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """n standard-normal draws via Box-Muller on Philox uniforms, written
    into `out` (n contiguous floats) when given."""
    pairs = (n + 1) // 2
    # random() is in [0, 1); flip to (0, 1] so the log is finite. The radius
    # and the angle are computed in the buffers of their own draws.
    r = gen.random(pairs)
    np.subtract(1.0, r, out=r)
    theta = gen.random(pairs)
    np.sqrt(np.multiply(-2.0, np.log(r, out=r), out=r), out=r)
    np.multiply(2.0 * np.pi, theta, out=theta)
    out = np.empty(n) if out is None else out
    trig = np.cos(theta)
    np.multiply(r, trig, out=out[0::2])
    np.sin(theta, out=trig)
    np.multiply(r[:n // 2], trig[:n // 2], out=out[1::2])
    return out


def normal(gen: np.random.Generator, mean, std, size: tuple[int, int],
           out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian matrix with per-column mean and shared scalar std, written
    into `out` (a C-contiguous array of shape `size`) when given."""
    n, d = size
    g = standard_normal(gen, n * d, None if out is None else out.reshape(-1)).reshape(n, d)
    g *= std
    g += np.asarray(mean)
    return g


def permutation(gen: np.random.Generator, n: int, count: int | None = None) -> np.ndarray:
    """Deterministic permutation of range(n): stable argsort of uniforms;
    with `count`, the (count, n) rows of `count` successive single draws.

    Depends only on the uniform stream, not on any shuffling algorithm
    internal to numpy. Distinct keys have one sorted order, so numpy's
    faster default sort gives the stable order unless two uniforms of a row
    tie; only then is that row sorted stably.
    """
    u = gen.random(n if count is None else (count, n))
    order = np.argsort(u, axis=-1)
    s = np.take_along_axis(u, order, axis=-1).reshape(-1, n)
    for i in np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1)):
        order.reshape(-1, n)[i] = np.argsort(u.reshape(-1, n)[i], kind="stable")  # a view
    return order
