"""The Greedy segmentation algorithm (Figure 2 of the paper).

Seed a priority queue with the Equation (2) loss of every pair of
initial segments; repeatedly pop the minimum-loss pair, merge it, and
insert the losses of the merged segment against every survivor —
recomputation is unavoidable because a merge can produce a segment of a
*totally different* configuration (Example 3). Stops at ``n_user``
segments.

Complexity (paper, Section 5.2): ``O(P² m²)`` to seed plus
``O(P (m² + log P))`` per iteration → ``O(P² m² + P² log P)`` overall;
our sort-based loss evaluator turns each ``m²`` into ``m log m`` without
changing any merge decision (see :mod:`repro.core.loss`), and each
segment is scored against all survivors in one batched kernel pass.

The priority queue is a loss matrix indexed by creation order plus a
cached per-row minimum. Row ``i`` holds the losses of segment ``i``
against every *newer* live segment, so a pair appears once, as
``(older, newer)``. The row minimum is the first ``argmin`` (the lowest
newer index among equal losses) and the pick is the first ``argmin``
over row minima, so merges pop in exactly the lexicographic
``(loss, older handle, newer handle)`` order of a heap of such triples.
Step 5 of Figure 2 ("remove all pairs involving S_i or S_j") retires
the two rows and columns; only rows whose cached minimum pointed at a
retired column are rescanned.
"""

from __future__ import annotations

import numpy as np

from ..obs.metrics import get_registry
from .segmentation import MergeState, Segmenter

__all__ = ["GreedySegmenter"]

#: Loss of a retired or absent pair; above any real Equation (2) loss.
_NO_PAIR = np.iinfo(np.int64).max


class GreedySegmenter(Segmenter):
    """Merge the globally cheapest pair until ``n_user`` segments remain.

    Deterministic: ties on loss are broken by (older, newer) segment
    handles, matching a stable priority queue.
    """

    name = "greedy"

    def _reduce(self, state: MergeState, n_user: int) -> None:
        metrics = get_registry()
        # Positions are creation order: the live handles now, then each
        # merge's new handle (always the largest) appended at the end.
        start = state.segment_ids()
        n_live = len(start)
        capacity = 2 * n_live - 1
        handles = np.zeros(capacity, dtype=np.int64)
        handles[:n_live] = start
        alive = np.zeros(capacity, dtype=bool)
        alive[:n_live] = True
        losses = np.full((capacity, capacity), _NO_PAIR, dtype=np.int64)
        for i in range(n_live - 1):
            losses[i, i + 1:n_live] = state.losses(
                int(handles[i]), handles[i + 1:n_live]
            )
        row_arg = losses.argmin(axis=1)
        row_min = losses[np.arange(capacity), row_arg]
        used = n_live
        while state.n_segments > n_user:
            i = int(row_min.argmin())
            j = int(row_arg[i])
            merged = state.merge(int(handles[i]), int(handles[j]))
            alive[i] = alive[j] = False
            row_min[i] = row_min[j] = _NO_PAIR
            losses[:, i] = _NO_PAIR
            losses[:, j] = _NO_PAIR
            live = np.flatnonzero(alive[:used])
            new = used
            used += 1
            handles[new] = merged
            alive[new] = True
            column = state.losses(merged, handles[live])
            losses[live, new] = column
            # The new column is the newest: it wins a row only strictly.
            better = column < row_min[live]
            row_min[live[better]] = column[better]
            row_arg[live[better]] = new
            stale = live[(row_arg[live] == i) | (row_arg[live] == j)]
            if stale.size:
                rescanned = losses[stale].argmin(axis=1)
                row_arg[stale] = rescanned
                row_min[stale] = losses[stale, rescanned]
            if metrics.enabled:
                metrics.inc("segmentation.greedy.merges")
                metrics.inc("segmentation.greedy.heap_pushes", len(live))
