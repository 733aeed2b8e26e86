"""The reference job: a fixed piece of work that says how fast the
machine runs at the moment it is timed.

    python3 perfbench/reference_job.py

It does what a ``repro`` CLI process spends its time on, without the
program: interpreter start, the numpy and scipy.stats imports (most of
``import repro``), numpy kernels and a pure-Python dict loop. The
benchmark times it in a fresh process just before and just after the
processes it measures, and reports their wall times as multiples of it
(the ``*_rel`` metrics). It must not change: every such figure is
relative to it.
"""

import numpy as np
import scipy.stats  # noqa: F401 - the import is part of the work

rng = np.random.default_rng(0)
matrix = rng.integers(0, 2, size=(2000, 1000))
for _ in range(5):
    matrix.sum(axis=0)
    np.sort(rng.random(100_000))
counts: dict[int, int] = {}
for k in range(200_000):
    counts[k % 997] = counts.get(k % 997, 0) + 1
