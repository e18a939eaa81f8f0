import numpy as np
import pytest

from oodcf import rng


def test_generator_determinism():
    a = rng.standard_normal(rng.generator(42), 1000)
    b = rng.standard_normal(rng.generator(42), 1000)
    assert np.array_equal(a, b)


def test_streams_decorrelate():
    a = rng.standard_normal(rng.generator(42, stream=0), 100)
    b = rng.standard_normal(rng.generator(42, stream=1), 100)
    assert not np.array_equal(a, b)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        rng.generator(-1)


def test_standard_normal_moments():
    g = rng.standard_normal(rng.generator(7), 200_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std(ddof=1) - 1.0) < 0.01
    # Box-Muller output is finite even at the uniform edge cases
    assert np.isfinite(g).all()


def test_standard_normal_odd_length():
    assert rng.standard_normal(rng.generator(1), 7).shape == (7,)


def test_normal_mean_and_scale():
    X = rng.normal(rng.generator(3), (2.0, -1.0), 0.5, (50_000, 2))
    assert np.allclose(X.mean(axis=0), [2.0, -1.0], atol=0.02)
    assert np.allclose(X.std(axis=0, ddof=1), 0.5, atol=0.02)


def test_permutation_is_a_permutation():
    p = rng.permutation(rng.generator(9), 500)
    assert np.array_equal(np.sort(p), np.arange(500))


def test_permutation_deterministic():
    a = rng.permutation(rng.generator(11), 64)
    b = rng.permutation(rng.generator(11), 64)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 115, 1600, 100_000])
def test_permutation_is_stable_argsort_of_uniforms(n):
    u = rng.generator(5).random(n)
    assert np.array_equal(rng.permutation(rng.generator(5), n),
                          np.argsort(u, kind="stable"))


class _TiedUniforms:
    """A generator stub whose uniforms repeat, so the sort meets ties."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return self.u[:n].copy()


@pytest.mark.parametrize("levels", [2, 10, 1000])
def test_permutation_breaks_ties_stably(levels):
    u = np.random.default_rng(levels).integers(0, levels, 5000) / levels
    assert np.array_equal(rng.permutation(_TiedUniforms(u), u.size),
                          np.argsort(u, kind="stable"))
