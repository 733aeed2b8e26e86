"""Golden segmentation corpus: merge decisions pinned across versions.

For small seeded Quest and skewed page matrices, the committed
``golden_segmentation.json`` records what every loss-guided segmenter
(Greedy, RC, Random-Greedy, Random-RC), with and without a bubble list,
produced: the page groups, a digest of the realized OSSM matrix and the
number of Equation (2) evaluations. Any change to the loss kernel, the
tie order or the merge bookkeeping that alters a single merge decision
fails here, whatever the other tests say.

Regenerate only when a change of behaviour is intended::

    PYTHONPATH=src python -m tests.core.test_golden_segmentation
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    GreedySegmenter,
    RandomGreedySegmenter,
    RandomRCSegmenter,
    RCSegmenter,
    bubble_list,
)
from repro.data import PagedDatabase, generate_quest, generate_skewed

GOLDEN = Path(__file__).with_name("golden_segmentation.json")
N_SEGMENTS = 6
N_MID = 20
BUBBLE = {"threshold": 0.02, "size": 24}


def _digest(matrix: np.ndarray) -> str:
    array = np.ascontiguousarray(matrix, dtype=np.int64)
    shape = ",".join(str(n) for n in array.shape).encode()
    return hashlib.sha256(shape + b":" + array.tobytes()).hexdigest()


def _page_matrices() -> dict[str, np.ndarray]:
    quest = generate_quest(
        n_transactions=1200, n_items=80, avg_transaction_len=6,
        n_patterns=60, seed=5,
    )
    skewed = generate_skewed(
        n_transactions=1000, n_items=80, avg_transaction_len=6,
        skew=0.7, n_seasons=2, seed=9,
    )
    return {
        "quest": PagedDatabase(quest, page_size=20).page_supports(),
        "skewed": PagedDatabase(skewed, page_size=25).page_supports(),
    }


def _segmenters(items):
    return {
        "greedy": GreedySegmenter(items=items),
        "rc": RCSegmenter(seed=3, items=items),
        "random-greedy": RandomGreedySegmenter(
            n_mid=N_MID, seed=4, items=items
        ),
        "random-rc": RandomRCSegmenter(n_mid=N_MID, seed=4, items=items),
    }


def compute_corpus() -> dict:
    """Run every pinned segmentation; the JSON-ready corpus."""
    corpus: dict = {"workloads": {}}
    for workload, matrix in _page_matrices().items():
        supports = matrix.sum(axis=0)
        n_transactions = 1200 if workload == "quest" else 1000
        bubble = bubble_list(
            supports, n_transactions, BUBBLE["threshold"], BUBBLE["size"]
        )
        runs = {}
        for restriction, items in (("all", None), ("bubble", bubble)):
            for name, segmenter in _segmenters(items).items():
                result = segmenter.segment(matrix, N_SEGMENTS)
                runs[f"{name}/{restriction}"] = {
                    "groups": result.groups,
                    "ossm_digest": _digest(result.ossm.matrix),
                    "loss_evaluations": result.loss_evaluations,
                }
        corpus["workloads"][workload] = {
            "page_matrix_digest": _digest(matrix),
            "bubble": [int(i) for i in bubble],
            "runs": runs,
        }
    return corpus


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return compute_corpus()


@pytest.mark.parametrize("workload", ["quest", "skewed"])
def test_page_matrix_unchanged(golden, current, workload):
    # A generator drift would invalidate every run below for a reason
    # unrelated to segmentation; report it separately.
    assert (
        current["workloads"][workload]["page_matrix_digest"]
        == golden["workloads"][workload]["page_matrix_digest"]
    )
    assert (
        current["workloads"][workload]["bubble"]
        == golden["workloads"][workload]["bubble"]
    )


@pytest.mark.parametrize("workload", ["quest", "skewed"])
@pytest.mark.parametrize(
    "run",
    [
        f"{name}/{restriction}"
        for name in ("greedy", "rc", "random-greedy", "random-rc")
        for restriction in ("all", "bubble")
    ],
)
def test_segmentation_matches_golden(golden, current, workload, run):
    expected = golden["workloads"][workload]["runs"][run]
    actual = current["workloads"][workload]["runs"][run]
    assert actual["groups"] == expected["groups"]
    assert actual["ossm_digest"] == expected["ossm_digest"]
    assert actual["loss_evaluations"] == expected["loss_evaluations"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_corpus(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
