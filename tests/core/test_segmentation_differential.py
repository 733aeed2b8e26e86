"""Differential tests: batched-kernel Greedy/RC vs per-pair references.

The segmenters score one segment against every survivor in a single
vectorized pass over narrow-dtype rows; the references in
``_reference_segmentation`` evaluate Equation (2) one pair at a time in
``int64``. Merge decisions, realized matrices and evaluation counts
must agree exactly — including on ties (tiny value ranges), zero and
duplicate rows, bubble restrictions, and column sums large enough to
widen the kernel rows past 16 bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GreedySegmenter, MergeState, RCSegmenter
from repro.core.loss import kernel_dtype

from ._reference_segmentation import reference_greedy, reference_rc

#: Multipliers that push column sums into each kernel width: 16-bit,
#: 32-bit and the ``int64`` fallback.
SCALES = (1, 5_000, 2**31)


@st.composite
def page_cases(draw):
    n_pages = draw(st.integers(min_value=2, max_value=14))
    n_items = draw(st.integers(min_value=1, max_value=8))
    # Values from {0..3}: equal losses are the norm, not the exception.
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=n_pages * n_items,
            max_size=n_pages * n_items,
        )
    )
    matrix = np.array(flat, dtype=np.int64).reshape(n_pages, n_items)
    # Duplicate some rows and zero others.
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        src = draw(st.integers(min_value=0, max_value=n_pages - 1))
        dst = draw(st.integers(min_value=0, max_value=n_pages - 1))
        matrix[dst] = matrix[src]
    if draw(st.booleans()):
        matrix[draw(st.integers(min_value=0, max_value=n_pages - 1))] = 0
    matrix *= draw(st.sampled_from(SCALES))
    items = None
    if draw(st.booleans()):
        items = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=n_items - 1),
                    min_size=1,
                )
            )
        )
    n_segments = draw(st.integers(min_value=1, max_value=n_pages))
    return matrix, items, n_segments


@settings(max_examples=150, deadline=None)
@given(page_cases())
def test_greedy_matches_per_pair_heap(case):
    matrix, items, n_segments = case
    groups, realized, evaluations = reference_greedy(
        matrix, n_segments, items=items
    )
    result = GreedySegmenter(items=items).segment(matrix, n_segments)
    assert result.groups == groups
    assert (result.ossm.matrix == realized).all()
    assert result.loss_evaluations == evaluations


@settings(max_examples=150, deadline=None)
@given(page_cases(), st.integers(min_value=0, max_value=2**16))
def test_rc_matches_per_pair_scan(case, seed):
    matrix, items, n_segments = case
    groups, realized, evaluations = reference_rc(
        matrix, n_segments, seed=seed, items=items
    )
    result = RCSegmenter(seed=seed, items=items).segment(matrix, n_segments)
    assert result.groups == groups
    assert (result.ossm.matrix == realized).all()
    assert result.loss_evaluations == evaluations


def test_all_equal_losses_merge_oldest_pairs_first():
    # Every pair of identical rows has loss 0, so only the tie order
    # decides: (0, 1), (2, 3), (4, 5), then the merged pair (6, 7).
    matrix = np.ones((6, 3), dtype=np.int64)
    groups, _, evaluations = reference_greedy(matrix, 2)
    result = GreedySegmenter().segment(matrix, 2)
    assert result.groups == groups == [[4, 5], [0, 1, 2, 3]]
    assert result.loss_evaluations == evaluations


class TestKernelWidth:
    @pytest.mark.parametrize(
        ("column_max", "expected"),
        [
            (0, np.uint16),
            (2**16 - 1, np.uint16),
            (2**16, np.uint32),
            (2**32 - 1, np.uint32),
            (2**32, np.int64),
        ],
    )
    def test_width_follows_column_sum(self, column_max, expected):
        matrix = np.array([[column_max, 0], [0, 1]], dtype=np.int64)
        assert kernel_dtype(matrix) == np.dtype(expected)

    def test_width_bounds_every_merged_row(self):
        # Two rows each within 16 bits whose sum is not: the column sum,
        # not the largest entry, decides the width.
        matrix = np.array([[40_000, 1], [40_000, 2]], dtype=np.int64)
        assert kernel_dtype(matrix) == np.dtype(np.uint32)
        state = MergeState(matrix)
        assert state.loss(0, 1) == 0
        merged = state.merge(0, 1)
        assert (state.rows[merged] == [80_000, 3]).all()

    def test_negative_entries_fall_back_to_int64(self):
        assert kernel_dtype(np.array([[-1, 2]])) == np.dtype(np.int64)

    def test_restricted_columns_decide_width(self):
        matrix = np.array([[2**20, 1], [0, 2]], dtype=np.int64)
        assert kernel_dtype(matrix[:, [1]]) == np.dtype(np.uint16)
