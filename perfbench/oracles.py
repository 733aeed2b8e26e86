"""Output oracles, run outside every timed region.

Each check returns a list of human-readable problems (empty = pass), so
a run can count them into its ``failed`` figure and print them. The
oracles avoid the code paths they check where they can: the input is
read straight from the ``.npz`` arrays, Equation (1) is recomputed as a
numpy one-liner over the artifact's matrix, and true supports come from
a dense boolean matrix. The mined itemsets are compared against the
paper-literal miner: ``Apriori`` with ``NullPruner`` on
``SubsetCounter``.

:func:`self_test` feeds each check a corrupted support, bound, size and
epoch and reports any check that fails to notice.
"""

from __future__ import annotations

import random
import re

import numpy as np

from common import digest_arrays

_HEADER = re.compile(
    r"^(?P<algo>\S+): (?P<n>\d+) frequent itemsets \(minsup (?P<minsup>\d+) "
    r"of (?P<total>\d+)\) in [\d.]+s; candidates counted (?P<counted>\d+)$"
)
_ITEMSET = re.compile(r"^\s+\{(?P<items>[\d,]*)\}: (?P<support>\d+)$")
_SEGMENT = re.compile(
    r"^(?P<algo>\S+): (?P<pages>\d+) pages -> (?P<segments>\d+) segments "
    r"in [\d.]+s \((?P<evals>\d+) loss evaluations\)"
)


# -- input ---------------------------------------------------------------

def read_transactions(path) -> tuple[np.ndarray, np.ndarray, int]:
    """The CSR arrays of a ``repro generate`` ``.npz``, read directly."""
    with np.load(path) as payload:
        return (
            np.asarray(payload["items"], dtype=np.int64),
            np.asarray(payload["offsets"], dtype=np.int64),
            int(payload["n_items"]),
        )


def input_digest(path) -> str:
    items, offsets, n_items = read_transactions(path)
    return digest_arrays(items, offsets, np.asarray(n_items))


def dense(items: np.ndarray, offsets: np.ndarray, n_items: int) -> np.ndarray:
    """``n_items × N`` boolean incidence matrix (one row per item)."""
    n = len(offsets) - 1
    rows = np.repeat(np.arange(n), np.diff(offsets))
    out = np.zeros((n_items, n), dtype=bool)
    out[items, rows] = True
    return out


def true_support(incidence: np.ndarray, itemset) -> int:
    column = incidence[itemset[0]].copy()
    for item in itemset[1:]:
        column &= incidence[item]
    return int(column.sum())


# -- CLI output parsing --------------------------------------------------

def parse_mine_output(text: str) -> tuple[dict, dict[tuple, int]]:
    """``repro mine --top 0`` stdout → (header fields, itemset → support)."""
    lines = text.splitlines()
    match = _HEADER.match(lines[0]) if lines else None
    if match is None:
        raise ValueError(f"unrecognised mine header: {lines[:1]!r}")
    header = {
        "algorithm": match["algo"],
        "n_frequent": int(match["n"]),
        "minsup": int(match["minsup"]),
        "total": int(match["total"]),
        "counted": int(match["counted"]),
    }
    itemsets: dict[tuple, int] = {}
    for line in lines[1:]:
        found = _ITEMSET.match(line)
        if found is None:
            raise ValueError(f"unrecognised itemset line: {line!r}")
        key = tuple(int(x) for x in found["items"].split(",") if x)
        itemsets[key] = int(found["support"])
    return header, itemsets


def parse_ossm_output(text: str) -> dict:
    match = _SEGMENT.match(text.strip().splitlines()[0]) if text.strip() else None
    if match is None:
        raise ValueError(f"unrecognised ossm output: {text[:200]!r}")
    return {
        "algorithm": match["algo"],
        "pages": int(match["pages"]),
        "segments": int(match["segments"]),
        "loss_evaluations": int(match["evals"]),
    }


# -- mining --------------------------------------------------------------

def oracle_mine(database, minsup: float) -> dict[tuple, int]:
    """The paper-literal miner: plain Apriori, subset enumeration."""
    from repro.mining.apriori import Apriori
    from repro.mining.counting import SubsetCounter
    from repro.mining.pruning import NullPruner

    miner = Apriori(pruner=NullPruner(), counter=SubsetCounter())
    return dict(miner.mine(database, minsup).frequent)


def check_itemsets(got: dict, expected: dict, header: dict | None = None) -> list[str]:
    problems = []
    missing = expected.keys() - got.keys()
    extra = got.keys() - expected.keys()
    wrong = [k for k in expected.keys() & got.keys() if got[k] != expected[k]]
    if missing:
        problems.append(f"{len(missing)} frequent itemsets missing, e.g. {min(missing)}")
    if extra:
        problems.append(f"{len(extra)} spurious itemsets, e.g. {min(extra)}")
    if wrong:
        k = min(wrong)
        problems.append(
            f"{len(wrong)} wrong supports, e.g. {k}: {got[k]} != {expected[k]}"
        )
    if header is not None and header["n_frequent"] != len(expected):
        problems.append(
            f"header reports {header['n_frequent']} itemsets, oracle {len(expected)}"
        )
    return problems


# -- the OSSM ------------------------------------------------------------

def eq1(matrix: np.ndarray, itemset) -> int:
    """Equation (1): sum over segments of the min item support."""
    return int(matrix[:, list(itemset)].min(axis=1).sum())


def check_segments(matrix, sizes, n_transactions: int, item_supports) -> list[str]:
    problems = []
    if sizes is None or len(sizes) != matrix.shape[0]:
        problems.append("segment sizes missing or misshapen")
    elif int(np.sum(sizes)) != n_transactions:
        problems.append(f"segment sizes sum to {int(np.sum(sizes))}, not {n_transactions}")
    columns = matrix.sum(axis=0)
    if columns.shape != item_supports.shape or not np.array_equal(columns, item_supports):
        bad = int(np.sum(columns != item_supports)) if columns.shape == item_supports.shape else -1
        problems.append(f"per-segment supports do not sum to item supports ({bad} items)")
    return problems


def check_bounds(matrix, supported: list[tuple[tuple, int]]) -> list[str]:
    """Eq. (1) must dominate the true support of every listed itemset."""
    low = [(k, s) for k, s in supported if eq1(matrix, k) < s]
    if low:
        k, s = low[0]
        return [f"{len(low)} bounds below true support, e.g. {k}: {eq1(matrix, k)} < {s}"]
    return []


def candidate_sample(incidence, frequent: dict, seed: int, n_pairs=3000, n_triples=1000):
    """A seeded sample of candidates over the frequent items, with true supports."""
    rng = random.Random(seed)
    singles = sorted(k[0] for k in frequent if len(k) == 1)
    if len(singles) < 3:
        return []
    sample = []
    for size, count in ((2, n_pairs), (3, n_triples)):
        for _ in range(count):
            itemset = tuple(sorted(rng.sample(singles, size)))
            sample.append((itemset, true_support(incidence, itemset)))
    return sample


# -- serving -------------------------------------------------------------

class EpochHistory:
    """Which artifact each epoch of one tenant served, and when.

    ``window(e)`` is the client-time interval in which epoch ``e`` may
    have been live: from the send of the request that published it to
    the completion of the request that replaced it.
    """

    def __init__(self, first_matrix: np.ndarray, created_at: float = 0.0) -> None:
        self.matrices = {0: first_matrix}
        self.windows = {0: [created_at, float("inf")]}

    def published(self, epoch: int, matrix: np.ndarray, sent: float, done: float) -> None:
        self.matrices[epoch] = matrix
        self.windows[epoch] = [sent, float("inf")]
        if epoch - 1 in self.windows:
            self.windows[epoch - 1][1] = done

    def live_during(self, start: float, end: float) -> list[int]:
        return [
            e for e, (lo, hi) in self.windows.items() if lo <= end and hi >= start
        ]

    @property
    def last(self) -> int:
        return max(self.matrices)


def check_served(history: EpochHistory, label: int, start: float, end: float,
                 itemsets, bounds, cache: dict) -> tuple[list[str], int]:
    """Check one response; returns (problems, label_skews).

    Every bound must equal Eq. (1) on the artifact of the labelled
    epoch, which must have been live while the request was in flight.
    One exception is tolerated and counted, because it is a known
    gateway defect that mislabels exact values: a *label skew*, where
    the label is ``e`` and every bound equals Eq. (1) on epoch
    ``e + 1``, whose publish was sent before the request completed
    (the gateway reads the epoch before the admission linger window,
    and ``e + 1`` landed inside it). Anything else, such as values of
    an older epoch under a newer label, is a failure.
    """
    live = history.live_during(start, end)
    if label not in history.matrices or label not in live:
        return [f"epoch {label} was not live during the request (live: {live})"], 0

    def matches(epoch):
        matrix = history.matrices[epoch]
        for itemset, bound in zip(itemsets, bounds):
            key = (id(matrix), tuple(itemset))
            if key not in cache:
                cache[key] = eq1(matrix, itemset)
            if cache[key] != bound:
                return False
        return True

    if len(itemsets) != len(bounds):
        return [f"{len(bounds)} bounds for {len(itemsets)} itemsets"], 0
    if matches(label):
        return [], 0
    after = label + 1
    if after in history.matrices and history.windows[after][0] <= end and matches(after):
        return [], 1
    return [f"bounds {bounds[:4]} under epoch {label} are not Eq. (1) on it "
            f"for {itemsets[:4]}"], 0


def check_recovered(name: str, acked_epoch: int, acked_matrix, served_epoch: int,
                    probes, served_bounds) -> list[str]:
    problems = []
    if served_epoch != acked_epoch:
        problems.append(
            f"tenant {name} recovered at epoch {served_epoch}, last acknowledged {acked_epoch}"
        )
    expected = [eq1(acked_matrix, p) for p in probes]
    if list(served_bounds) != expected:
        bad = sum(1 for a, b in zip(served_bounds, expected) if a != b)
        problems.append(f"tenant {name}: {bad} recovered bounds differ from epoch {acked_epoch}")
    return problems


# -- mutation self-test --------------------------------------------------

def self_test(mined: dict, matrix, sizes, n_transactions, item_supports) -> list[str]:
    """Corrupt a support, a bound, a size and an epoch; every check must fail."""
    failures = []
    if not mined:
        return ["self-test needs a non-empty mining result"]
    key = max(mined, key=lambda k: (len(k), mined[k]))
    bumped = dict(mined)
    bumped[key] += 1
    if not check_itemsets(bumped, mined):
        failures.append("check_itemsets accepted a corrupted support")
    inflated = [(key, eq1(matrix, key) + 1)]
    if not check_bounds(matrix, inflated):
        failures.append("check_bounds accepted a support above the bound")
    shrunk = matrix.copy()
    shrunk[:, list(key)] = 0
    if not check_bounds(shrunk, [(key, mined[key])]):
        failures.append("check_bounds accepted a corrupted bound")
    if not check_segments(shrunk, sizes, n_transactions, item_supports):
        failures.append("check_segments accepted corrupted segment supports")
    if sizes is not None:
        wrong = list(sizes)
        wrong[0] += 1
        if not check_segments(matrix, wrong, n_transactions, item_supports):
            failures.append("check_segments accepted corrupted segment sizes")
    # Epochs 0 and 2 share a map, as when a publisher alternates two.
    history = EpochHistory(matrix)
    history.published(1, shrunk, 5.0, 6.0)
    history.published(2, matrix, 10.0, 11.0)
    good, stale = [eq1(matrix, key)], [eq1(shrunk, key)]
    if check_served(history, 0, 1.0, 2.0, [key], good, {}) != ([], 0):
        failures.append("check_served rejected a correct response")
    if not check_served(history, 1, 1.0, 2.0, [key], good, {})[0]:
        failures.append("check_served accepted a corrupted epoch")
    if not check_served(history, 0, 1.0, 2.0, [key], [good[0] + 1], {})[0]:
        failures.append("check_served accepted a corrupted bound")
    if not check_served(history, 1, 5.5, 5.8, [key], good, {})[0]:
        failures.append("check_served accepted the previous epoch's values")
    if check_served(history, 1, 9.5, 10.5, [key], good, {}) != ([], 1):
        failures.append("check_served did not count a label skew")
    if not check_served(history, 2, 10.5, 10.8, [key], stale, {})[0]:
        failures.append("check_served accepted a stale cache after a publish")
    if not check_recovered("t", 1, shrunk, 0, [key], [eq1(shrunk, key)]):
        failures.append("check_recovered accepted a stale epoch")
    if not check_recovered("t", 1, shrunk, 1, [key], good):
        failures.append("check_recovered accepted a stale artifact")
    return failures
