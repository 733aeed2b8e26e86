"""Per-pair reference Greedy and RC, for differential tests only.

These are self-contained copies of the segmenters as first written:
every Equation (2) loss is one scalar sort-identity evaluation in
``int64``, Greedy keeps a lazy-deletion heap of ``(loss, older, newer)``
entries, and RC scans the survivors one pair at a time. The batched
kernel in :mod:`repro.core.segmentation` must reproduce their merge
decisions and evaluation counts exactly. Nothing here imports the code
under test.
"""

from __future__ import annotations

import heapq
from itertools import combinations

import numpy as np


def _f(u: np.ndarray) -> int:
    m = u.shape[0]
    if m < 2:
        return 0
    return int(np.dot(np.sort(u), np.arange(m - 1, -1, -1, dtype=np.int64)))


class _State:
    def __init__(self, matrix, items=None):
        matrix = np.asarray(matrix, dtype=np.int64)
        self.items = None if items is None else np.asarray(items, np.int64)
        self.rows = {i: matrix[i].copy() for i in range(matrix.shape[0])}
        self.groups = {i: [i] for i in range(matrix.shape[0])}
        self.next_id = matrix.shape[0]
        self.evaluations = 0

    def _r(self, row):
        return row if self.items is None else row[self.items]

    def loss(self, a, b):
        self.evaluations += 1
        ra, rb = self._r(self.rows[a]), self._r(self.rows[b])
        return _f(ra + rb) - _f(ra) - _f(rb)

    def merge(self, a, b):
        new = self.next_id
        self.next_id += 1
        self.rows[new] = self.rows.pop(a) + self.rows.pop(b)
        self.groups[new] = self.groups.pop(a) + self.groups.pop(b)
        return new

    def ids(self):
        return sorted(self.rows)

    def result(self):
        groups = [sorted(self.groups[s]) for s in self.ids()]
        matrix = np.vstack([self.rows[s] for s in self.ids()])
        return groups, matrix, self.evaluations


def reference_greedy(matrix, n_segments, items=None):
    """Figure 2 with a lazy-deletion heap; ``(groups, matrix, evals)``."""
    state = _State(matrix, items)
    if len(state.rows) <= n_segments:
        return state.result()
    heap = [(state.loss(a, b), a, b) for a, b in combinations(state.ids(), 2)]
    heapq.heapify(heap)
    while len(state.rows) > n_segments:
        _, a, b = heapq.heappop(heap)
        if a not in state.rows or b not in state.rows:
            continue
        merged = state.merge(a, b)
        for other in state.ids():
            if other != merged:
                heapq.heappush(heap, (state.loss(merged, other), other, merged))
    return state.result()


def reference_rc(matrix, n_segments, seed=0, items=None):
    """Figure 3 with a per-pair neighbour scan; ``(groups, matrix, evals)``."""
    state = _State(matrix, items)
    rng = np.random.default_rng(seed)
    while len(state.rows) > n_segments:
        ids = state.ids()
        anchor = ids[int(rng.integers(len(ids)))]
        best = None
        for other in ids:
            if other == anchor:
                continue
            loss = state.loss(anchor, other)
            if best is None or loss < best[0]:
                best = (loss, other)
        state.merge(anchor, best[1])
    return state.result()
