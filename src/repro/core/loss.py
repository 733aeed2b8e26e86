"""The cumulative accuracy loss of merging segments (Equation 2).

For a set ``S`` of segments, the paper quantifies the sub-optimality of
collapsing them into one segment as::

    cumuLoss(S) = sum over item pairs {x, y} of
        sup_hat({x,y}, Omega_1)  -  sup_hat({x,y}, Omega_|S|)

i.e. the total loosening of the pair bounds. Lemma 2: the quantity is
zero iff all segments share a configuration, positive otherwise, and
monotone under adding segments.

Two evaluators are provided:

* :func:`pair_bound_sum_naive` / the ``*_naive`` entry points — the
  paper-literal ``O(m²)`` double loop over item pairs;
* :func:`pair_bound_sums` / :func:`merge_losses` — an ``O(m log m)``
  sort identity, applied to whole row matrices at once. For a support
  vector ``u`` sorted ascending, each ``u_(k)`` is the minimum of
  exactly ``m − 1 − k`` pairs (those pairing it with a larger-ranked
  item), so ``Σ_{x<y} min(u_x, u_y) = Σ_k u_(k) · (m − 1 − k)``. Every
  other fast entry point (:func:`pair_bound_sum`, :func:`merge_loss`,
  :func:`cumulative_loss`, :func:`pairwise_merge_losses` and the
  segmenters' :class:`~repro.core.segmentation.MergeState`) goes
  through these two.

Writing ``f(u) = Σ_{x<y} min(u_x, u_y)``, Equation (2) factorizes as
``cumuLoss(S) = f(Σ_{s∈S} s) − Σ_{s∈S} f(s)`` — the merged bound minus
the separated bounds, summed over pairs. Both evaluators implement the
same mathematical function; tests assert exact agreement, and every
algorithmic decision (which pair Greedy merges, which neighbour RC
picks) is identical under either.

The batched kernel sorts rows in a narrow unsigned dtype
(:func:`kernel_dtype`: 16 bits while every column sum fits, which bounds
every merged row) because that sort is the hot loop; the weighted sum
of the sorted rows is always accumulated exactly in ``int64``.

All functions accept an optional *items* restriction — the bubble-list
optimization of Section 5.3 — which replaces the ``m²`` pair space by
``b²`` for a bubble list of ``b`` items.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "kernel_dtype",
    "pair_bound_sums",
    "merge_losses",
    "pair_bound_sum",
    "pair_bound_sum_naive",
    "merge_loss",
    "merge_loss_naive",
    "cumulative_loss",
    "cumulative_loss_naive",
    "pairwise_merge_losses",
]


def _restrict(u: np.ndarray, items: Sequence[int] | None) -> np.ndarray:
    u = np.asarray(u, dtype=np.int64)
    if u.ndim != 1:
        raise ValueError("support vector must be 1-D")
    if items is None:
        return u
    return u[np.asarray(items, dtype=np.int64)]


#: Row dtypes of the batched kernel, narrowest first. Each sums into the
#: ``int64`` weights without loss; 16-bit rows sort fastest.
_KERNEL_DTYPES = (np.dtype(np.uint16), np.dtype(np.uint32), np.dtype(np.int64))


def kernel_dtype(matrix: np.ndarray) -> np.dtype:
    """Narrowest row dtype (16 bits or wider) for merging rows of *matrix*.

    A merged segment's entry never exceeds its column's sum over all
    rows, so the largest column sum bounds every row any merge sequence
    can produce: rows stored in the returned dtype cannot overflow.
    Negative entries, or sums past 32 bits, keep ``int64``.
    """
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return _KERNEL_DTYPES[0]
    if int(matrix.min()) < 0:
        return _KERNEL_DTYPES[-1]
    largest = int(matrix.sum(axis=0, dtype=np.int64).max())
    for dtype in _KERNEL_DTYPES[:-1]:
        if largest <= np.iinfo(dtype).max:
            return dtype
    return _KERNEL_DTYPES[-1]


def _weights(m: int) -> np.ndarray:
    return np.arange(m - 1, -1, -1, dtype=np.int64)


def _sorted_weighted_sums(rows: np.ndarray) -> np.ndarray:
    """``f`` of each row of *rows*, sorting *rows* in place."""
    rows.sort(axis=1)
    # einsum accumulates in the int64 of the weights — exact, and about
    # twice as fast as ``@`` on a narrow left operand.
    return np.einsum("ij,j->i", rows, _weights(rows.shape[1]))


def pair_bound_sums(rows: np.ndarray) -> np.ndarray:
    """``f(row) = Σ_{x<y} min(row_x, row_y)`` for every row, as ``int64``.

    Rows in a :func:`kernel_dtype` are sorted as they are; any other
    dtype is converted to ``int64`` first.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix (segments x items)")
    if rows.shape[1] < 2:
        return np.zeros(rows.shape[0], dtype=np.int64)
    if rows.dtype not in _KERNEL_DTYPES:
        return _sorted_weighted_sums(rows.astype(np.int64))
    return _sorted_weighted_sums(rows.copy())


def merge_losses(
    rows: np.ndarray,
    f_values: np.ndarray,
    anchor: int,
    others: np.ndarray,
) -> np.ndarray:
    """Equation (2) loss of merging row *anchor* with each row in *others*.

    The batched kernel: ``sort(rows[others] + rows[anchor]) · w − f[anchor]
    − f[others]`` in one pass, where ``f_values`` holds ``f`` of every
    row of *rows* that is referenced. *rows* must be wide enough to hold
    each sum (see :func:`kernel_dtype`). Returns ``int64`` losses aligned
    with *others*.
    """
    if rows.shape[1] < 2:
        return np.zeros(len(others), dtype=np.int64)
    merged = rows[others]
    merged += rows[anchor]
    return _sorted_weighted_sums(merged) - f_values[anchor] - f_values[others]


def pair_bound_sum(
    u: np.ndarray, items: Sequence[int] | None = None
) -> int:
    """``f(u) = Σ_{x<y} min(u_x, u_y)`` via the O(m log m) sort identity."""
    return int(pair_bound_sums(_restrict(u, items)[None, :])[0])


def pair_bound_sum_naive(
    u: np.ndarray, items: Sequence[int] | None = None
) -> int:
    """``f(u)`` by the paper-literal double loop (reference implementation)."""
    u = _restrict(u, items)
    total = 0
    m = u.shape[0]
    for x in range(m):
        for y in range(x + 1, m):
            total += int(min(u[x], u[y]))
    return total


def merge_loss(
    a: np.ndarray,
    b: np.ndarray,
    items: Sequence[int] | None = None,
) -> int:
    """Equation (2) loss of merging two segments: ``f(a+b) − f(a) − f(b)``.

    Zero iff ``a`` and ``b`` share a configuration on the restricted
    item set (Lemma 2a/2b); always non-negative.
    """
    a = _restrict(a, items)
    b = _restrict(b, items)
    if a.shape != b.shape:
        raise ValueError("segment rows must have equal length")
    return (
        pair_bound_sum(a + b) - pair_bound_sum(a) - pair_bound_sum(b)
    )


def merge_loss_naive(
    a: np.ndarray,
    b: np.ndarray,
    items: Sequence[int] | None = None,
) -> int:
    """Paper-literal Equation (2) for two segments (explicit pair loop)."""
    a = _restrict(a, items)
    b = _restrict(b, items)
    if a.shape != b.shape:
        raise ValueError("segment rows must have equal length")
    total = 0
    m = a.shape[0]
    for x in range(m):
        for y in range(x + 1, m):
            merged = min(int(a[x] + b[x]), int(a[y] + b[y]))
            separated = min(int(a[x]), int(a[y])) + min(int(b[x]), int(b[y]))
            total += merged - separated
    return total


def cumulative_loss(
    rows: np.ndarray, items: Sequence[int] | None = None
) -> int:
    """``cumuLoss(S)`` for a stack of segment rows (Equation 2).

    ``rows`` is a ``k × m`` matrix whose rows are the segments of ``S``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix (segments x items)")
    if items is not None:
        rows = rows[:, np.asarray(items, dtype=np.int64)]
    merged = pair_bound_sum(rows.sum(axis=0))
    return merged - int(pair_bound_sums(rows).sum())


def cumulative_loss_naive(
    rows: np.ndarray, items: Sequence[int] | None = None
) -> int:
    """Paper-literal ``cumuLoss(S)``: explicit sum over item pairs."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix (segments x items)")
    if items is not None:
        rows = rows[:, np.asarray(items, dtype=np.int64)]
    k, m = rows.shape
    total = 0
    column_sums = rows.sum(axis=0)
    for x in range(m):
        for y in range(x + 1, m):
            merged = min(int(column_sums[x]), int(column_sums[y]))
            separated = sum(
                min(int(rows[i, x]), int(rows[i, y])) for i in range(k)
            )
            total += merged - separated
    return total


def pairwise_merge_losses(
    rows: np.ndarray, items: Sequence[int] | None = None
) -> np.ndarray:
    """Matrix of :func:`merge_loss` for every pair of rows.

    Entry ``(i, j)`` is the loss of merging segments ``i`` and ``j``;
    the diagonal is 0. One :func:`merge_losses` pass per row scores it
    against every later row, so ``O(k² · b log b)`` overall for ``k``
    segments and ``b`` (bubble-restricted) items.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix (segments x items)")
    if items is not None:
        rows = rows[:, np.asarray(items, dtype=np.int64)]
    rows = np.ascontiguousarray(rows, dtype=kernel_dtype(rows))
    f_values = pair_bound_sums(rows)
    k = rows.shape[0]
    losses = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        others = np.arange(i + 1, k)
        losses[i, i + 1:] = merge_losses(rows, f_values, i, others)
    return losses + losses.T
