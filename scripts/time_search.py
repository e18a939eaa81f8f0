#!/usr/bin/env python3
"""Time one partition search at a given k on a seeded synthetic table: two
correlated Gaussian classes, 104 train rows and 26 eval rows (the wine-like
split sizes). Prints the time of the class-moment pass plus the search, the process's peak RSS before and
after the search, and the chosen z_d.

Usage: PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/time_search.py K
"""

import resource
import sys
import time
import warnings

import numpy as np

from oodcf.density import class_moments
from oodcf.partition import search_partition


def table(k: int):
    gen = np.random.default_rng(k)
    mix = gen.normal(size=(k, k))
    shift = gen.normal(scale=0.5, size=(2, k))

    def block(rows):
        y = np.repeat([0, 1], rows // 2)
        return gen.normal(size=(rows, k)) @ mix + shift[y], y

    (Z, Y), (Ze, _) = block(104), block(26)
    return Z, Y, Ze


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    k = int(sys.argv[1])
    Z, Y, Ze = table(k)
    before = peak_rss_mb()
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        part = search_partition(class_moments(Z, Y), Ze)
    print(f"k={k} search_s={time.perf_counter() - start:.3f} "
          f"peak_rss_mb={peak_rss_mb():.1f} (before the search {before:.1f}) z_d={part.z_d}")
