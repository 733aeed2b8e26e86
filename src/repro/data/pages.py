"""Paged view of a transaction database.

The paper's constrained segmentation starts from the *physical pages*
the collection is stored in: the segmenters never look at individual
transactions, only at the aggregate per-page singleton supports
(Section 4.3, "the page version"). :class:`PagedDatabase` provides that
granularity: contiguous fixed-size runs of transactions plus the
``P × m`` page-support matrix the segmentation algorithms consume.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain

import numpy as np

from .transactions import TransactionDatabase

__all__ = ["PagedDatabase", "PAGE_BYTES", "TRANSACTIONS_PER_PAGE"]

#: Nominal page size used by the paper's storage math (Section 6.3):
#: "For a page size of 4 kilobytes, each page can contain roughly
#: 100 transactions."
PAGE_BYTES = 4096
TRANSACTIONS_PER_PAGE = 100


class PagedDatabase:
    """A :class:`TransactionDatabase` organized into contiguous pages.

    Parameters
    ----------
    database:
        The underlying transaction collection.
    page_size:
        Transactions per page. The last page may be short. Defaults to
        the paper's nominal 100 transactions per 4 KB page.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        page_size: int = TRANSACTIONS_PER_PAGE,
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self._db = database
        self._page_size = int(page_size)
        n = len(database)
        self._bounds = list(range(0, n, self._page_size)) + [n]
        if n == 0:
            self._bounds = [0, 0]
        self._supports: np.ndarray | None = None

    # -- basic properties ------------------------------------------------

    @property
    def database(self) -> TransactionDatabase:
        """The underlying transaction database."""
        return self._db

    @property
    def page_size(self) -> int:
        """Transactions per (full) page."""
        return self._page_size

    @property
    def n_pages(self) -> int:
        """Number of pages (``P`` in the paper); at least 1."""
        return len(self._bounds) - 1

    @property
    def n_items(self) -> int:
        """Size of the item domain."""
        return self._db.n_items

    def __len__(self) -> int:
        return self.n_pages

    def __repr__(self) -> str:
        return (
            f"PagedDatabase({self.n_pages} pages x {self._page_size} txns, "
            f"{self.n_items} items)"
        )

    # -- page access -------------------------------------------------------

    def page_bounds(self, page: int) -> tuple[int, int]:
        """Half-open transaction-index range ``[lo, hi)`` of *page*."""
        if not 0 <= page < self.n_pages:
            raise IndexError(f"page {page} out of range [0, {self.n_pages})")
        return self._bounds[page], self._bounds[page + 1]

    def page(self, page: int) -> TransactionDatabase:
        """The transactions stored on *page*, as a database slice."""
        lo, hi = self.page_bounds(page)
        return self._db[lo:hi]

    def __iter__(self) -> Iterator[TransactionDatabase]:
        for page in range(self.n_pages):
            yield self.page(page)

    def page_lengths(self) -> np.ndarray:
        """Number of transactions on each page."""
        bounds = np.asarray(self._bounds, dtype=np.int64)
        return bounds[1:] - bounds[:-1]

    # -- aggregate supports --------------------------------------------------

    def page_supports(self) -> np.ndarray:
        """``P × m`` matrix of per-page singleton supports.

        Row ``p``, column ``x`` is the number of transactions on page
        ``p`` containing item ``x``. This matrix is the *only* input the
        segmentation algorithms need (the page version of the problem),
        and summing groups of its rows yields any candidate OSSM. The
        matrix is computed once and cached.
        """
        if self._supports is None:
            txns = self._db.transactions
            lengths = np.fromiter(
                (len(txn) for txn in txns), dtype=np.int64, count=len(txns)
            )
            items = np.fromiter(
                chain.from_iterable(txns),
                dtype=np.int64,
                count=int(lengths.sum()),
            )
            # Transactions hold unique items, so one bincount over
            # ``page * m + item`` counts each (page, item) cell exactly.
            pages = np.repeat(
                np.arange(len(txns), dtype=np.int64) // self._page_size,
                lengths,
            )
            cells = self.n_pages * self.n_items
            self._supports = np.bincount(
                pages * self.n_items + items, minlength=cells
            ).reshape(self.n_pages, self.n_items)
        return self._supports

    def item_supports(self) -> np.ndarray:
        """Global singleton supports (column sums of the page matrix)."""
        return self.page_supports().sum(axis=0)

    # -- segment realization ---------------------------------------------

    def segment_supports(self, groups: Sequence[Sequence[int]]) -> np.ndarray:
        """Sum page-support rows into segment-support rows.

        *groups* assigns every page to exactly one segment (a partition
        of ``range(n_pages)``). Returns the ``n_segments × m`` matrix an
        :class:`~repro.core.ossm.OSSM` is built from.
        """
        self._check_partition(groups)
        page_matrix = self.page_supports()
        rows = [page_matrix[list(group)].sum(axis=0) for group in groups]
        return np.vstack(rows) if rows else np.zeros((0, self.n_items), np.int64)

    def segment_databases(
        self, groups: Sequence[Sequence[int]]
    ) -> list[TransactionDatabase]:
        """Materialize the transactions of each segment (for testing)."""
        self._check_partition(groups)
        segments = []
        for group in groups:
            txns: list = []
            for page in sorted(group):
                lo, hi = self.page_bounds(page)
                txns.extend(self._db[tid] for tid in range(lo, hi))
            segments.append(
                TransactionDatabase(txns, n_items=self.n_items)
            )
        return segments

    def _check_partition(self, groups: Sequence[Sequence[int]]) -> None:
        seen = sorted(page for group in groups for page in group)
        if seen != list(range(self.n_pages)):
            raise ValueError(
                "groups must partition range(n_pages): each page exactly once"
            )
