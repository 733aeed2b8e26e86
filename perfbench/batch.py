"""The batch path ``repro generate | ossm | mine``: timed CLI runs, the
oracle checks of their outputs, and the traced in-process replica."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import oracles
from common import (
    ROOT, Failures, Yardstick, cli_env, median, ossm_digest, run_cli, time_import,
)


@dataclass(frozen=True)
class BatchSpec:
    kind: str            # generate --kind
    transactions: int
    items: int
    algorithm: str       # ossm --algorithm
    segments: int
    page_size: int
    minsup: float

    def generate_args(self, seed: int, out: Path) -> list[str]:
        return [
            "generate", "--kind", self.kind, "--out", str(out),
            "--transactions", str(self.transactions),
            "--items", str(self.items), "--seed", str(seed),
        ]

    def ossm_args(self, data: Path, out: Path) -> list[str]:
        return [
            "ossm", "--data", str(data), "--out", str(out),
            "--algorithm", self.algorithm, "--segments", str(self.segments),
            "--page-size", str(self.page_size),
        ]

    def mine_args(self, data: Path, ossm: Path) -> list[str]:
        return [
            "mine", "--data", str(data), "--minsup", str(self.minsup),
            "--ossm", str(ossm), "--top", "0",
        ]


def _cli_ok(run, failures: Failures) -> bool:
    problems = []
    if run.returncode != 0:
        problems.append(f"{run.args[0]} exited {run.returncode}: {run.stderr[-500:]}")
    elif run.stderr.strip():
        problems.append(f"{run.args[0]} wrote to stderr: {run.stderr[-500:]}")
    return failures.op(problems)


def setup(spec: BatchSpec, seed: int, work: Path, repeats: int,
          failures: Failures) -> tuple[Path, list[float]]:
    """Generate the input *repeats* times; every copy must be identical."""
    times, digests = [], set()
    data = work / "data.npz"
    for _ in range(repeats):
        run = run_cli(spec.generate_args(seed, data), work)
        times.append(run.wall_s)
        if _cli_ok(run, failures):
            digests.add(oracles.input_digest(data))
    if len(digests) > 1:
        failures.op([f"generate --seed {seed} gave {len(digests)} different inputs"])
    return data, times


def timed_rep(spec: BatchSpec, data: Path, work: Path, runs: dict,
              failures: Failures, yardstick: Yardstick | None) -> None:
    """One ``repro ossm`` then one ``repro mine --ossm``, each timed from
    spawn to exit, and with a *yardstick* also relative to the machine's
    speed; every output is kept in *runs* for the oracles."""
    ossm_path = runs.setdefault("map", work / "map.npz")
    seg = run_cli(spec.ossm_args(data, ossm_path), work)
    if not _cli_ok(seg, failures):
        return
    runs["ossm"].append(seg)
    if yardstick:
        runs["ossm_rel"].append(yardstick.relative(seg.wall_s))
    runs["map_digests"].add(map_digest(ossm_path))
    mine = run_cli(spec.mine_args(data, ossm_path), work)
    if _cli_ok(mine, failures):
        runs["mine"].append(mine)
        if yardstick:
            runs["mine_rel"].append(yardstick.relative(mine.wall_s))


def map_digest(path: Path) -> str:
    from repro.core.ossm import OSSM

    return ossm_digest(OSSM.load(path))


def check_outputs(spec: BatchSpec, data: Path, runs: dict, seed: int,
                  failures: Failures) -> dict:
    """Every oracle check of the batch path; returns what the replica
    reuses (oracle itemsets, map digest, loss evaluations)."""
    from repro.core.ossm import OSSM
    from repro.data import io as data_io

    items, offsets, n_items = oracles.read_transactions(data)
    n_transactions = len(offsets) - 1
    item_supports = np.bincount(items, minlength=n_items)
    database = data_io.load(data)
    expected = oracles.oracle_mine(database, spec.minsup)

    for run in runs["mine"]:
        try:
            header, mined = oracles.parse_mine_output(run.stdout)
        except ValueError as exc:
            failures.op([str(exc)])
            continue
        failures.op(oracles.check_itemsets(mined, expected, header))
    if len(runs["map_digests"]) != 1:
        failures.op([f"repro ossm gave {len(runs['map_digests'])} different maps"])

    ossm = OSSM.load(runs["map"])
    matrix = ossm.matrix
    failures.op(oracles.check_segments(
        matrix, ossm.segment_sizes, n_transactions, item_supports))
    incidence = oracles.dense(items, offsets, n_items)
    sample = oracles.candidate_sample(incidence, expected, seed)
    failures.op(oracles.check_bounds(matrix, list(expected.items()) + sample))
    failures.op([
        f"oracle self-test: {p}" for p in oracles.self_test(
            expected, matrix, ossm.segment_sizes, n_transactions, item_supports)
    ])
    cli_segment = oracles.parse_ossm_output(runs["ossm"][-1].stdout) if runs["ossm"] else {}
    return {
        "expected": expected,
        "map_digest": next(iter(runs["map_digests"]), None),
        "loss_evaluations": cli_segment.get("loss_evaluations"),
    }


def walls(runs: dict, name: str) -> list[float]:
    return [run.wall_s for run in runs[name]]


def e2e_metrics(runs: dict, setup_times: list[float]) -> dict:
    return {
        "setup_s": (median(setup_times), "s"),
        "ossm_rel": (median(runs["ossm_rel"]), "ratio"),
        "mine_rel": (median(runs["mine_rel"]), "ratio"),
        "mine_peak_rss_mb": (median([r.peak_rss_mb for r in runs["mine"]]), "MB"),
    }


# -- the traced replica ----------------------------------------------------

#: Traced replicas per traced run; per-layer figures are their medians.
REPLICAS = 2

def _replica(spec: BatchSpec, data: Path, seed: int, work: Path, trace: int) -> dict:
    out = work / f"replica{trace}.json"
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("replica.py")),
         "--spec", json.dumps(asdict(spec)), "--data", str(data),
         "--seed", str(seed), "--out", str(out), "--trace", str(trace)],
        env=cli_env(), cwd=ROOT, check=True, timeout=150,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def _spans_under(spans: list[dict], root: str, name: str) -> float:
    roots = {i for i, s in enumerate(spans) if s["name"] == root}
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name and s["parent"] in roots)


def _fidelity(out: dict, data: Path, checked: dict) -> list[str]:
    """The replica must have run the CLI's program: same input, same
    map, same loss evaluations, same itemsets."""
    problems = []
    if out["generated_digest"] != oracles.input_digest(data):
        problems.append("in-process generate differs from repro generate")
    if out["map_digest"] != checked["map_digest"]:
        problems.append("replica OSSM digest differs from repro ossm")
    if out["loss_evaluations"] != checked["loss_evaluations"]:
        problems.append(
            f"replica made {out['loss_evaluations']} loss evaluations, "
            f"repro ossm {checked['loss_evaluations']}")
    frequent = {tuple(k): v for k, v in out["frequent"]}
    return problems + [f"replica: {p}" for p in oracles.check_itemsets(frequent, checked["expected"])]


def _replica_layers(out: dict) -> dict:
    """The timed layers of one traced replica, in seconds."""
    spans = out["spans"]

    def span(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    return {
        "data.generate_s": span("data.generate"),
        "data.load_s": _spans_under(spans, "cli.ossm", "data.load"),
        "load_mine": _spans_under(spans, "cli.mine", "data.load"),
        "data.page_supports_s": span("data.page_supports"),
        "core.segment_s": span("core.segment"),
        "core.ossm_save_s": span("core.ossm_save"),
        "core.ossm_load_s": span("core.ossm_load"),
        "core.bounds_per_s": out["bounds_per_s"],
        "mining.mine_s": span("mining.mine"),
        "mining.count_s": span("mining.count"),
        "mining.prune_s": span("mining.prune"),
    }


def layer_metrics(spec: BatchSpec, data: Path, work: Path, seed: int,
                  runs: dict, checked: dict, failures: Failures) -> tuple[dict, list, str]:
    """Per-layer figures of the batch path: medians over traced
    replicas, each followed by an untraced one that prices the tracing."""
    imports, traced, untraced = [], [], []
    ossm_s, mine_s = median(walls(runs, "ossm")), median(walls(runs, "mine"))
    for _ in range(REPLICAS):
        imports.append(time_import(work))
        traced.append(_replica(spec, data, seed, work, 1))
        untraced.append(_replica(spec, data, seed, work, 0))
    for out in traced:
        failures.op(_fidelity(out, data, checked))

    per_run = [_replica_layers(out) for out in traced]
    layer = {name: median([m[name] for m in per_run]) for name in per_run[0]}
    out = traced[0]
    levels = [dict(zip(("level", "generated", "pruned", "counted", "frequent"), lv))
              for lv in out["levels"]]
    later = [lv for lv in levels if lv["level"] >= 2]
    generated_later = sum(lv["generated"] for lv in later)
    counted = sum(lv["counted"] for lv in levels)
    evaluations = out["loss_evaluations"]
    import_s = median(imports)
    seconds = {name: (layer[name], "s") for name in (
        "data.generate_s", "data.load_s", "data.page_supports_s", "core.segment_s",
        "core.ossm_save_s", "core.ossm_load_s", "mining.mine_s", "mining.count_s",
        "mining.prune_s")}
    metrics = {
        "ossm_s": (ossm_s, "s"),
        "mine_s": (mine_s, "s"),
        "import.s": (import_s, "s"),
        **seconds,
        "core.loss_evaluations": (evaluations, "count"),
        "core.us_per_loss_eval": (
            layer["core.segment_s"] / evaluations * 1e6 if evaluations else 0.0, "us"),
        "core.bounds_per_s": (layer["core.bounds_per_s"], "1/s"),
        "mining.count_us_per_candidate": (
            layer["mining.count_s"] / counted * 1e6 if counted else 0.0, "us"),
        "mining.prune_ratio": (
            sum(lv["pruned"] for lv in later) / generated_later if generated_later else 0.0,
            "ratio"),
        "mining.other_s": (
            layer["mining.mine_s"] - layer["mining.count_s"] - layer["mining.prune_s"], "s"),
        "unattributed.ossm_s": (
            ossm_s - import_s - layer["data.load_s"]
            - layer["data.page_supports_s"] - layer["core.segment_s"]
            - layer["core.ossm_save_s"], "s"),
        "unattributed.mine_s": (
            mine_s - import_s - layer["load_mine"]
            - layer["core.ossm_load_s"] - layer["mining.mine_s"], "s"),
        "obs.trace_overhead_frac": (
            median([o["total_s"] for o in traced])
            / median([o["total_s"] for o in untraced]) - 1.0, "ratio"),
    }
    for field in ("generated", "pruned", "counted"):
        by_level = {"L1": 0, "L2": 0, "L3": 0, "L4plus": 0}
        for lv in levels:
            by_level[f"L{lv['level']}" if lv["level"] <= 3 else "L4plus"] += lv[field]
        for key, value in by_level.items():
            metrics[f"mining.candidates_{field}.{key}"] = (value, "count")
    return metrics, out["spans"], out["engine"]
