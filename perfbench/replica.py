"""Traced replica of ``repro generate``, ``repro ossm`` and ``repro mine
--ossm``, run as a fresh process so it shares the CLI's conditions.

    python3 perfbench/replica.py --spec JSON --data PATH --seed N \
        --out PATH --trace 1

It goes through the same public calls as the CLI (the generators,
``io.load``, ``PagedDatabase``, ``segment``, ``OSSM.save``/``load`` and
``Apriori.mine``) with the miner's own pruner and counter wrapped in
delegating timers, and writes its spans and outputs as JSON to --out.
With ``--trace 0`` recording is off and only the total is kept: the
pair of runs prices the tracing itself.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    SpanRecorder, digest_arrays, median, ossm_digest, use_program_in_process,
)


class TimedPruner:
    """Delegates to the miner's own pruner, timing each call."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.level2: list = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def prune(self, candidates, min_support):
        if candidates and len(candidates[0]) == 2:
            self.level2 = list(candidates)
        with self._recorder.span("mining.prune", n=len(candidates)):
            return self._inner.prune(candidates, min_support)


class TimedCounter:
    """Delegates to the miner's own counting engine, timing each call."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def count(self, database, candidates):
        with self._recorder.span("mining.count", n=len(candidates)):
            return self._inner.count(database, candidates)


def generate(spec: dict, seed: int):
    """``repro generate`` with the CLI's default flags."""
    if spec["kind"] == "quest":
        from repro.data.quest import generate_quest

        return generate_quest(
            n_transactions=spec["transactions"], n_items=spec["items"],
            avg_transaction_len=10.0, n_patterns=2000, seed=seed,
        )
    from repro.data.skewed import generate_skewed

    return generate_skewed(
        n_transactions=spec["transactions"], n_items=spec["items"],
        avg_transaction_len=10.0, skew=0.8, seed=seed,
    )


def segmenter(spec: dict):
    """The segmenter ``repro ossm`` builds from its default flags."""
    from repro.core.greedy import GreedySegmenter
    from repro.core.hybrid import RandomGreedySegmenter

    if spec["algorithm"] == "greedy":
        return GreedySegmenter()
    if spec["algorithm"] == "random-greedy":
        return RandomGreedySegmenter(n_mid=200, seed=0)
    raise ValueError(f"no replica for --algorithm {spec['algorithm']}")


def run(spec: dict, data: Path, seed: int, out_map: Path, rec: SpanRecorder) -> dict:
    from repro.core.ossm import OSSM
    from repro.data import io as data_io
    from repro.data.pages import PagedDatabase
    from repro.mining.apriori import Apriori
    from repro.mining.pruning import OSSMPruner

    # Generated in both modes, so the traced and untraced runs reach
    # the timed region in the same process state.
    result = {}
    with rec.span("data.generate"):
        generated = generate(spec, seed)
    lengths = np.fromiter((len(t) for t in generated), dtype=np.int64)
    items = np.fromiter((i for t in generated for i in t), dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    result["generated_digest"] = digest_arrays(
        items, offsets, np.asarray(generated.n_items))
    del generated, items, offsets

    start = time.perf_counter()
    with rec.span("cli.ossm"):
        with rec.span("data.load"):
            database = data_io.load(data)
        with rec.span("data.page_supports"):
            paged = PagedDatabase(database, page_size=spec["page_size"])
            paged.page_supports()
        with rec.span("core.segment"):
            segmented = segmenter(spec).segment(paged, spec["segments"])
        with rec.span("core.ossm_save"):
            segmented.ossm.save(out_map)
    with rec.span("cli.mine"):
        with rec.span("data.load"):
            database = data_io.load(data)
        with rec.span("core.ossm_load"):
            ossm = OSSM.load(out_map)
        miner = Apriori(pruner=OSSMPruner(ossm))
        pruner = TimedPruner(miner.pruner, rec)
        counter = TimedCounter(miner.counter, rec)
        miner.pruner, miner.counter = pruner, counter
        with rec.span("mining.mine"):
            mined = miner.mine(database, spec["minsup"])
    result["total_s"] = time.perf_counter() - start

    bound_times = []
    for _ in range(5):
        t = time.perf_counter()
        ossm.upper_bounds(pruner.level2)
        bound_times.append(time.perf_counter() - t)
    result.update({
        "map_digest": ossm_digest(ossm),
        "loss_evaluations": segmented.loss_evaluations,
        "frequent": [[list(k), v] for k, v in mined.frequent.items()],
        "levels": [
            [lv.level, lv.candidates_generated, lv.candidates_pruned,
             lv.candidates_counted, lv.frequent]
            for lv in mined.levels
        ],
        "engine": type(counter._inner).__name__,
        "c2": len(pruner.level2),
        "bounds_per_s": len(pruner.level2) / median(bound_times) if pruner.level2 else 0.0,
        "spans": rec.with_self_time(),
    })
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    use_program_in_process()
    rec = SpanRecorder()
    rec.enabled = bool(args.trace)
    out = Path(args.out)
    result = run(json.loads(args.spec), Path(args.data), args.seed,
                 out.with_suffix(".npz"), rec)
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
