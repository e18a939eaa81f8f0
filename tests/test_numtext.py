"""The column text kernels against `repr(float(v))` and `str(int(v))`."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oodcf import _numtext

CHUNK = 1 << 16  # values per kernel call, so big tests stay small in memory


def texts(matrix: np.ndarray) -> list:
    """The rows of a kernel's matrix as str, NULs dropped."""
    newline = np.full((len(matrix), 1), ord("\n"), dtype=np.uint8)
    text = np.concatenate([matrix, newline], axis=1).tobytes().translate(None, b"\0")
    return text.decode().split("\n")[:-1]


def mismatches(x: np.ndarray, kernel=_numtext.float_text, oracle=repr) -> list:
    """(oracle text, kernel text) of every value of `x` they print differently."""
    bad = []
    for start in range(0, len(x), CHUNK):
        part = x[start:start + CHUNK]
        bad += [(want, got) for want, got in zip(map(oracle, part.tolist()),
                                                 texts(kernel(part))) if want != got]
    return bad


def near(values, ulps=5) -> np.ndarray:
    """Each value and its neighbours up to `ulps` steps away, both signs."""
    out = []
    for v in np.asarray(values, dtype=np.float64):
        below = above = v
        out.append(v)
        for _ in range(ulps):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            out += [below, above]
    out = np.array(out)
    return np.concatenate([out, -out])


FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-4, 1e16,
                                    9.999999999999999e-05, 2.0 ** -1074, 0.5, 0.1]),
                   st.floats(-1e4, 1e4))


class TestFloatText:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 40), elements=FLOATS))
    def test_any_floats(self, x):
        assert mismatches(x) == []

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(17).integers(0, 2**64, 10**6, dtype=np.uint64,
                                                  endpoint=False)
        assert mismatches(bits.view(np.float64)) == []

    def test_random_bit_patterns_of_the_fast_range(self):
        # every binade from 2**-14 to 2**53: the values the fast path decides
        gen = np.random.default_rng(18)
        exponent = gen.integers(1023 - 14, 1023 + 54, 10**6, dtype=np.uint64)
        mantissa = gen.integers(0, 2**52, 10**6, dtype=np.uint64)
        sign = gen.integers(0, 2, 10**6, dtype=np.uint64)
        x = ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)
        assert mismatches(x) == []

    def test_boundaries(self):
        x = near(np.concatenate([2.0 ** np.arange(-20, 60), 10.0 ** np.arange(-8, 20),
                                 [1e-4, 1e16, 9.999999999999999e-05, 1e-5, 9999999999999998.0,
                                  0.5, 0.1, 0.2, 0.3, 123.456]]))
        assert mismatches(x) == []

    def test_decimals_and_integers(self):
        gen = np.random.default_rng(19)
        x = np.concatenate([np.round(gen.uniform(-1000, 1000, 10**5), 3),
                            gen.integers(-10**6, 10**6, 10**5).astype(float),
                            gen.integers(-2**53, 2**53, 10**5).astype(float)])
        assert mismatches(x) == []

    def test_fast_path_takes_almost_every_normal_draw(self):
        x = np.random.default_rng(20).normal(5.0, 3.0, 10**5)
        fast = _numtext._shortest(x)[0]
        assert (~fast).mean() < 1e-3


class TestIntText:
    def test_random_and_extreme_ints(self):
        gen = np.random.default_rng(21)
        x = np.concatenate([
            gen.integers(-2**63, 2**63 - 1, 10**5, endpoint=True),
            gen.integers(-10**5, 10**5, 10**5),
            [0, 1, -1, 9, 10, -10, 10**16 - 1, 10**16, -(10**16) + 1, -(10**16),
             2**63 - 1, -2**63]])
        assert mismatches(x, _numtext.int_text, str) == []
