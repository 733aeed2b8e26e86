"""Repository benchmark: the user-visible paths of the OSSM toolkit,
timed end to end through the real CLI and checked against oracles.

    python3 perfbench/run.py --workload mine_quest --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout. Each workload generates its input
from ``--seed`` with ``repro generate``, boots ``repro serve --listen
--state-dir``, drives one open-loop schedule of bound queries and map
publishes against it, and stops it, in rounds. After each round it
times a restart on the same state dir, then one ``repro ossm`` and one
``repro mine --ossm`` as subprocesses, each between two timings of a
fixed reference job that gauge the machine's speed. Every output is checked
against an oracle outside the timed regions.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced in-process
replica instead (see README.md for the layer → end-to-end mapping).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback

from common import (
    ROOT, WORK, Failures, SpanRecorder, Yardstick, median, program_present,
    use_program_in_process,
)

SETUP_REPEATS = 3


def _workloads():
    from batch import BatchSpec

    return {
        # Counting dominates: ~800 frequent itemsets over ~260k counted
        # candidates; Eq. (1) prunes only ~12% of C2.
        "mine_quest": BatchSpec("quest", 20_000, 1000, "random-greedy", 40, 20, 0.005),
        # The paper's hot path: Greedy over 400 pages (158,460 Eq. (2)
        # evaluations), after which Eq. (1) prunes nearly all of C2.
        "segment_skewed": BatchSpec("skewed", 20_000, 1000, "greedy", 40, 50, 0.01),
    }


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _provenance(args, engine: str) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "engine": engine,
    }


def _default_engine() -> str:
    """The counting engine ``repro mine`` resolves with no flags."""
    from repro.mining.apriori import Apriori
    from repro.mining.pruning import NullPruner

    return type(Apriori(pruner=NullPruner()).counter).__name__


def _bench_record(provenance: dict, metrics: dict) -> None:
    """Append a flat record to ``BENCH_perfbench.json`` in the work dir,
    so ``repro bench-history --dir .perfbench_work`` compares layers as
    well as totals, one series per workload and mode."""
    record = {
        "bench": "perfbench",
        "case": provenance["workload"],
        "mode": "trace" if provenance["trace"] else "e2e",
        "engine": provenance["engine"],
        "provenance": provenance,
    }
    for name, (value, unit) in metrics.items():
        key = name.replace(".", "_")
        if unit == "s" and key.endswith("_s"):
            key = key[:-2] + "_seconds"
        record[key] = value
    path = WORK / "BENCH_perfbench.json"
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        records = []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not program_present():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    use_program_in_process()
    # SIGTERM unwinds like an exception, so every child gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import batch
    import serving
    from repro.data import io as data_io

    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    trace = bool(args.trace)

    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    failures = Failures()
    rec = SpanRecorder() if trace else None
    started = time.perf_counter()

    def phase(name):
        print(f"[{time.perf_counter() - started:6.1f}s] {name}", file=sys.stderr)

    try:
        data, setup_times = batch.setup(spec, args.seed, work, SETUP_REPEATS, failures)
        phase("set-up done")
        runs = {"ossm": [], "mine": [], "map_digests": set(), "ossm_rel": [], "mine_rel": []}
        # The traced run reports plain wall times only.
        yardstick = None if trace else Yardstick(work)
        serve_e2e, serve_info = serving.run(
            data_io.load(data), spec.page_size, spec.segments,
            args.seed, args.seconds, work, failures, trace, rec, yardstick,
            lambda: batch.timed_rep(spec, data, work, runs, failures, yardstick))
        if not runs["mine"]:
            raise RuntimeError("; ".join(failures.problems) or "no CLI run finished")
        phase("serving and batch paths timed")
        checked = batch.check_outputs(spec, data, runs, args.seed, failures)
        phase("oracles done")
        engine = _default_engine()
        if trace:
            layers, batch_spans, engine = batch.layer_metrics(
                spec, data, work, args.seed, runs, checked, failures)
            phase("traced replica done")
            layers.update(serve_info["layers"])
            layers["recover_s"] = (median(serve_info["recover_s"]), "s")
            layers["recover.unattributed_s"] = (
                layers["recover_s"][0] - layers["import.s"][0]
                - layers["serve.recovery_s"][0], "s")
            metrics = layers
            # Two span trees, each with parents indexing its own list.
            spans = {"replica": batch_spans, "client": rec.with_self_time()}
        else:
            metrics = {**batch.e2e_metrics(runs, setup_times), **serve_e2e}
    except Exception:  # noqa: BLE001 - a crashed run prints no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in list(metrics.items()):
        if not math.isfinite(value):
            failures.op([f"metric {name} is not a finite number: {value}"])
            metrics[name] = (0.0, unit)
    if trace:
        metrics["error_rate"] = (failures.failed / max(1, failures.attempted), "ratio")
    provenance = _provenance(args, engine)
    provenance["steps"] = serve_info["steps"]
    provenance["epoch_label_skews"] = serve_info["label_skews"]
    provenance["client_late_p99_ms"] = serve_info["late_p99_ms"]
    provenance["starved_rounds_rerun"] = serve_info["reruns"]
    provenance["saturated"] = serve_info["saturated"]
    provenance["reps_s"] = {
        "setup": setup_times,
        "ossm": batch.walls(runs, "ossm"),
        "mine": batch.walls(runs, "mine"),
        "recover": serve_info["recover_s"],
        "reference": yardstick.readings if yardstick else [],
    }
    if trace:
        (WORK / f"spans-{args.workload}-s{args.seed}.json").write_text(
            json.dumps(spans) + "\n", encoding="utf-8")
    _bench_record(provenance, metrics)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    for problem in failures.problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({"provenance": provenance}))
    correct = failures.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
