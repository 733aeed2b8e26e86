"""The serving path: ``repro serve --listen --state-dir`` under an
open-loop schedule of bound queries and map publishes, run in rounds
with a SIGTERM and a timed restart on the same state dir after each."""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import os
import random
import re
import select
import subprocess
import sys
import time
from pathlib import Path

import oracles
from common import SpanRecorder, Yardstick, cli_env, median, percentile, stop_process
from loadgen import Op, run_schedule, simple_request

#: The query latency limit the schedule is judged against (ms).
LIMIT_MS = 25.0
#: A round whose generator p99 lateness exceeds this share of the
#: limit measured the client, not the gateway: it is run again, and
#: only its last attempt enters the figures (every attempt's responses
#: are still checked). Starvation comes in bursts of contention on a
#: shared machine, so each consecutive rerun first waits a second
#: longer. A run that needs more than ``RERUNS`` reruns fails without
#: a result.
LATE_SHARE = 0.5
RERUNS = 8
HOST = "127.0.0.1"
TENANTS = ("t0", "t1", "t2", "t3")
PUBLISHER = "t0"


#: (name, query rate per second, share of --seconds, publishes?), run
#: once per round with each share split evenly over the rounds.
#: ``warmup`` lets the gateway's lazy set-up finish before anything is
#: timed; its responses are checked but enter no metric.
STEPS = (
    ("warmup", 100.0, 0.1, False),
    ("light", 100.0, 0.2, False),
    ("heavy", 250.0, 0.2, False),
    ("writes", 100.0, 0.4, True),
    ("saturate", 1000.0, 0.15, False),
)
#: Each round ends with a SIGTERM, a timed restart, then one ``repro
#: ossm`` + ``repro mine`` pair while the restarted gateway idles.
#: Rounds spread every figure's samples over the whole run: on a shared
#: machine whose speed drifts over tens of seconds, one block would
#: land in one stretch.
ROUNDS = 3
MIN_PUBLISHES = 100
#: The single-itemset stream is the repository's gateway load test's
#: (``benchmarks/bench_serve.py``): 70% from a popular pool of 32
#: itemsets, 30% from a tail pool of 512, sizes drawn from (1, 2, 2,
#: 3), one pool pair per tenant, the four tenants equally loaded.
POPULAR_POOL = 32
TAIL_POOL = 512
POPULAR_SHARE = 0.7
SIZES = (1, 2, 2, 3)
#: Assumed, with no source in the repository: a fifth of the requests
#: are batches of 32 itemsets drawn uniformly, so the kernel path
#: (cache misses) carries most of the itemsets evaluated while most
#: requests take the cache path.
BATCH_SHARE = 0.2
BATCH_SIZE = 32
#: The publisher cycles through three maps, so the epochs on either
#: side of any epoch serve different maps from each other.
PUBLISH_MAPS = 3
CONNECTIONS = 2


def build_maps(database, page_size: int, segments: int, seed: int,
               work: Path) -> list[Path]:
    """Seven maps of the run's input: one per tenant plus the three the
    publisher cycles through (random segmentations: no mining or
    Eq. (2) work on the serving path)."""
    from repro.core.random_seg import RandomSegmenter
    from repro.data.pages import PagedDatabase

    paged = PagedDatabase(database, page_size=page_size)
    paths = []
    for k in range(len(TENANTS) + PUBLISH_MAPS):
        path = work / f"serve_map{k}.npz"
        RandomSegmenter(seed=seed * 101 + k).segment(paged, segments).ossm.save(path)
        paths.append(path)
    return paths


def _itemset(rng: random.Random, n_items: int) -> list[int]:
    return sorted(rng.sample(range(n_items), rng.choice(SIZES)))


def schedule(seed: int, seconds: float, n_items: int) -> list[tuple[list[Op], dict]]:
    """The run's fixed open-loop schedule: per round, one step per
    ``STEPS`` entry, publishes spread evenly over the steps flagged
    for them. Returns (ops, step windows) per round, timed from the
    round's start. Publishes get their map when they are run."""
    rng = random.Random(seed)
    pools = {
        tenant: ([_itemset(rng, n_items) for _ in range(POPULAR_POOL)],
                 [_itemset(rng, n_items) for _ in range(TAIL_POOL)])
        for tenant in TENANTS
    }
    per_round = -(-MIN_PUBLISHES // ROUNDS)
    rounds = []
    for _ in range(ROUNDS):
        ops, windows, t0 = [], {}, 0.0
        publish_windows = []
        for name, rate, share, publishing in STEPS:
            duration = max(0.5, share * seconds / ROUNDS)
            windows[name] = (t0, t0 + duration)
            if publishing:
                publish_windows.append((t0, duration))
            for k in range(int(rate * duration)):
                tenant = rng.choice(TENANTS)
                if rng.random() < BATCH_SHARE:
                    itemsets = [_itemset(rng, n_items) for _ in range(BATCH_SIZE)]
                    body, kind = {"itemsets": itemsets}, "batch"
                else:
                    popular, tail = pools[tenant]
                    itemset = rng.choice(popular if rng.random() < POPULAR_SHARE else tail)
                    itemsets = [itemset]
                    body, kind = {"itemset": itemset}, "single"
                ops.append(Op(
                    t0 + k / rate, kind, name, "POST", f"/v1/tenants/{tenant}/bounds",
                    json.dumps(body).encode(), {"tenant": tenant, "itemsets": itemsets},
                ))
            t0 += duration
        total = sum(duration for _, duration in publish_windows)
        for k in range(per_round):
            offset = (k + 0.5) * total / per_round
            for start, duration in publish_windows:
                if offset < duration:
                    break
                offset -= duration
            ops.append(Op(
                start + offset, "publish", "publish", "PUT",
                f"/v1/tenants/{PUBLISHER}/ossm", b"",
            ))
        rounds.append((ops, windows))
    return rounds


class Server:
    """One ``repro serve --listen`` process."""

    def __init__(self, boot_map: Path, state: Path, work: Path) -> None:
        self.log = open(work / "serve.stderr", "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--ossm", str(boot_map),
             "--listen", f"{HOST}:0", "--state-dir", str(state),
             "--tenant", "boot"],
            stdout=subprocess.PIPE, stderr=self.log, env=cli_env(), cwd=work,
        )
        self.port = None
        self.ready_s = None
        self.boot_line = ""
        self.stopped = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/ready`` answers 200."""
        deadline = self.started + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"gateway did not boot: {line!r}")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = self.proc.stdout.read1(4096)
                if not chunk:
                    raise RuntimeError(f"gateway exited during boot: {line!r}")
                line += chunk
        self.boot_line = line.decode()
        self.port = int(re.search(r"http://[\d.]+:(\d+)/", self.boot_line)[1])
        while time.perf_counter() < deadline:
            status, _ = asyncio.run(simple_request(HOST, self.port, "GET", "/ready"))
            if status == 200:
                self.ready_s = time.perf_counter() - self.started
                return self.ready_s
            time.sleep(0.002)
        raise RuntimeError("gateway never became ready")

    def get(self, path: str):
        status, body = asyncio.run(simple_request(HOST, self.port, "GET", path))
        return status, body.decode("utf-8")

    def stop(self) -> tuple[int, str]:
        """Stop the process (once); returns (exit code, rest of stdout)."""
        if self.stopped is None:
            code = stop_process(self.proc)
            rest = self.proc.stdout.read().decode()
            self.proc.stdout.close()
            self.log.close()
            self.stopped = (code, rest)
        return self.stopped


def prometheus(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                pass
    return values


def _check_responses(ops, histories, failures) -> int:
    skews, cache = 0, {}
    for op in ops:
        if op.kind == "publish":
            continue
        payload = op.payload if isinstance(op.payload, dict) else {}
        bounds = [payload["bound"]] if "bound" in payload else payload.get("bounds")
        if op.status != 200 or bounds is None:
            failures.op([f"{op.path} -> {op.status} {op.error or payload}"])
            continue
        problems, skew = oracles.check_served(
            histories[op.meta["tenant"]], payload.get("epoch"), op.sent, op.done,
            op.meta["itemsets"], bounds, cache)
        skews += skew
        failures.op(problems)
    return skews


def _provision(server, bodies, matrices, failures) -> dict:
    """Create the tenants over HTTP; returns their epoch histories."""
    histories = {}
    for k, name in enumerate(TENANTS):
        status, raw = asyncio.run(simple_request(
            HOST, server.port, "PUT", f"/v1/tenants/{name}/ossm", bodies[k],
            "application/octet-stream"))
        if failures.op([] if status == 201 else [f"provision {name}: {status} {raw[:200]!r}"]):
            histories[name] = oracles.EpochHistory(matrices[k], float("-inf"))
    return histories


def _scrape(server) -> tuple[dict, dict]:
    stats = {name: json.loads(server.get(f"/v1/tenants/{name}/stats")[1]) for name in TENANTS}
    return stats, prometheus(server.get("/metrics")[1])


def _fold_publishes(ops, history, matrices, failures) -> None:
    """Record each acknowledged publish of a round in the publisher's
    epoch history, in epoch order."""
    publishes = sorted((op for op in ops if op.kind == "publish"),
                       key=lambda op: (op.payload or {}).get("epoch", -1))
    for op in publishes:
        if op.status == 200 and isinstance(op.payload, dict):
            history.published(
                op.payload["epoch"], matrices[op.meta["map"]], op.sent, op.done)
            failures.op()
        else:
            failures.op([f"publish -> {op.status} {op.error or op.payload}"])


def _recover(server, histories, probes, failures):
    """Time one restart to ``/ready``; every tenant must serve its last
    acknowledged epoch bit-exactly. Returns (seconds, scraped metrics)."""
    seconds = server.wait_ready()
    for name, history in histories.items():
        status, raw = asyncio.run(simple_request(
            HOST, server.port, "POST", f"/v1/tenants/{name}/bounds",
            json.dumps({"itemsets": probes}).encode()))
        if status != 200:
            failures.op([f"recovered {name}: {status} {raw[:200]!r}"])
            continue
        payload = json.loads(raw)
        failures.op(oracles.check_recovered(
            name, history.last, history.matrices[history.last],
            payload["epoch"], probes, payload["bounds"]))
    return seconds, prometheus(server.get("/metrics")[1])


def _stopped(server, failures) -> None:
    code, tail = server.stop()
    failures.op([] if code == 0 and "gateway stopped" in tail
                else [f"gateway exit {code}, output {tail[-200:]!r}"])


def _late_p99(ops) -> float:
    """The generator's p99 lateness (ms) over the judged steps."""
    return percentile([op.lateness * 1e3 for op in ops
                       if op.step in ("light", "heavy", "writes")], 99)


def run(database, page_size: int, segments: int,
        seed: int, seconds: float, work: Path, failures, trace: bool,
        rec: SpanRecorder | None, yardstick: Yardstick | None,
        after_restart) -> tuple[dict, dict]:
    """The whole serving phase; returns (end-to-end metrics, details).

    Each round ends with a SIGTERM and a timed restart, after which
    ``after_restart()`` runs while the gateway idles, so the restarts
    and whatever it times are spread over the run alongside the rounds.
    With a *yardstick*, the reference job is timed just before each
    restart and just after it, and ``recover_rel`` is reported.
    """
    from repro.core.ossm import OSSM

    maps = build_maps(database, page_size, segments, seed, work)
    matrices = [OSSM.load(p).matrix for p in maps]
    bodies = [p.read_bytes() for p in maps]
    state = work / "state"
    templates = schedule(seed, seconds, database.n_items)
    probes = [op.meta["itemsets"][0] for op in templates[0][0][:64] if op.kind != "publish"]
    connections = min(CONNECTIONS, os.cpu_count() or 1)
    publishes = itertools.count()
    rounds, discarded, scrapes, recoveries, recovered = [], [], [], [], []
    relative = []
    reruns = 0

    def attempt(server, template, windows):
        """Run one round's schedule on fresh copies of its operations."""
        ops = [dataclasses.replace(op) for op in template]
        for op in sorted((op for op in ops if op.kind == "publish"), key=lambda op: op.due):
            index = len(TENANTS) + next(publishes) % PUBLISH_MAPS
            op.body, op.meta = bodies[index], {"map": index}
        shift = asyncio.run(run_schedule(HOST, server.port, ops, connections, origin))
        _fold_publishes(ops, histories[PUBLISHER], matrices, failures)
        return ops, {name: (lo + shift, hi + shift) for name, (lo, hi) in windows.items()}

    server = Server(maps[0], state, work)
    try:
        server.wait_ready()
        histories = _provision(server, bodies, matrices, failures)
        histories["boot"] = oracles.EpochHistory(matrices[0])
        origin = time.monotonic()
        for r, (template, windows) in enumerate(templates):
            for pause in itertools.count(1):
                ops, shifted = attempt(server, template, windows)
                late_p99 = _late_p99(ops)
                if late_p99 <= LATE_SHARE * LIMIT_MS:
                    break
                problem = (f"round {r}: generator p99 lateness {late_p99:.1f} ms "
                           f"exceeds {LATE_SHARE:.0%} of the {LIMIT_MS:.0f} ms limit")
                if reruns == RERUNS:
                    raise RuntimeError(f"{problem} after {RERUNS} reruns: the client is starved")
                print(f"{problem}; rerunning it", file=sys.stderr)
                discarded.extend(ops)
                reruns += 1
                time.sleep(pause)
            rounds.append((ops, shifted))
            scrapes.append(_scrape(server))
            _stopped(server, failures)
            if yardstick:
                yardstick.read()
            server = Server(maps[0], state, work)
            ready_s, scraped = _recover(server, histories, probes, failures)
            recoveries.append(ready_s)
            recovered.append(scraped)
            if yardstick:
                relative.append(yardstick.relative(ready_s))
            after_restart()
    finally:
        _stopped(server, failures)

    all_ops = [op for ops, _ in rounds for op in ops]
    skews = _check_responses(all_ops + discarded, histories, failures)

    def latency_ms(op):
        # A failed or refused query counts as missing every limit.
        return op.latency * 1e3 if op.status == 200 else float("inf")

    def step_pct(ops, step, q):
        return percentile([latency_ms(op) for op in ops
                           if op.step == step and op.kind != "publish"], q)

    def max_rate(ops):
        """Saturated throughput of ``connections`` keep-alive
        connections: the step's queries over the time from the first
        one's due time to the last one's completion (the client-side
        backlog keeps every connection busy all through). The gateway
        answers a connection's requests one at a time, so this is
        about ``connections`` / mean round trip, over all requests of
        the mix, batches included."""
        sat = [op for op in ops if op.step == "saturate"]
        return len(sat) / (max(op.done for op in sat) - min(op.due for op in sat))

    def publish_p(ops, q):
        return percentile([op.latency * 1e3 for op in ops
                           if op.kind == "publish" and op.status == 200], q)

    late_p99 = _late_p99(all_ops)
    # Medians over the rounds: a stretch of a slow machine moves one
    # round, not the figure. Query tails and publish latencies are
    # reported with the per-layer figures instead: on a shared 2-vCPU
    # machine they move with the neighbours' CPU and disk load by more
    # than any useful bound.
    e2e = {
        "query_p50_ms.light": (median([step_pct(ops, "light", 50) for ops, _ in rounds]), "ms"),
        "query_p50_ms.heavy": (median([step_pct(ops, "heavy", 50) for ops, _ in rounds]), "ms"),
        "max_rate_rps": (median([max_rate(ops) for ops, _ in rounds]), "1/s"),
    }
    if yardstick:
        e2e["recover_rel"] = (median(relative), "ratio")
    steps = {}
    for step in [*rounds[0][1], "publish"]:
        sent = [op for op in all_ops if op.step == step]
        steps[step] = {
            "sent": len(sent),
            "succeeded": sum(op.status in (200, 201) for op in sent),
            "refused": sum(op.status in (429, 503) for op in sent),
            "failed": sum(op.status not in (200, 201, 429, 503) for op in sent),
            "late_p99_ms": percentile([op.lateness * 1e3 for op in sent], 99),
        }
    layers = {}
    if trace:
        layers = _layer_metrics(rounds, scrapes, recovered, matrices, skews, late_p99, rec)
        layers.update({
            f"query_p{q}_ms.{step}": (step_pct(all_ops, step, q), "ms")
            for step in ("light", "heavy", "writes") for q in (50, 95, 99)
            if f"query_p{q}_ms.{step}" not in e2e
        })
        layers["publish_p50_ms"] = (median([publish_p(ops, 50) for ops, _ in rounds]), "ms")
        layers["publish_p90_ms"] = (publish_p(all_ops, 90), "ms")
    saturated = all(
        any(op.due < windows["saturate"][1] and op.done > windows["saturate"][1] + 0.1
            for op in ops if op.step == "saturate")
        for ops, windows in rounds)
    return e2e, {"layers": layers, "steps": steps, "label_skews": skews,
                 "late_p99_ms": late_p99, "reruns": reruns,
                 "saturated": saturated, "recover_s": recoveries}


def _in_process_p50_ms(matrix, ops, admission: dict) -> tuple[float, float]:
    """p50 (ms) of the light step's mix in-process, one request at a
    time as the light step sends them: straight into
    ``BoundQueryService.query_batch``, and through a ``BatchScheduler``
    configured like the gateway's tenants (linger window, batch cap)."""
    from repro.core.ossm import OSSM
    from repro.serve.admission import BatchScheduler
    from repro.serve.service import BoundQueryService

    async def timed(call):
        times = []
        for op in ops:
            start = time.perf_counter()
            await call(op.meta["itemsets"])
            times.append((time.perf_counter() - start) * 1e3)
        return percentile(times, 50)

    async def drive():
        async with BoundQueryService(OSSM(matrix)) as service:
            direct = await timed(service.query_batch)
        async with BoundQueryService(OSSM(matrix)) as service:
            scheduler = BatchScheduler(service, max_batch=admission["max_batch"],
                                       linger=admission["linger_seconds"])
            try:
                admitted = await timed(scheduler.submit)
            finally:
                await scheduler.aclose()
        return direct, admitted

    return asyncio.run(drive())


def _layer_metrics(rounds, scrapes, recovered, matrices, skews, late_p99, rec) -> dict:
    light = [op for ops, _ in rounds for op in ops
             if op.step == "light" and op.kind != "publish"]
    client_p50 = percentile([op.latency * 1e3 for op in light], 50)
    if rec is not None:
        for r, (ops, windows) in enumerate(rounds):
            for step, (lo, hi) in windows.items():
                parent = rec.add(f"client.step.{step}", lo, hi, clock="schedule", round=r)
                for index, op in enumerate(ops):
                    if op.step == step:
                        rec.add("client.request", op.due, op.done, parent=parent,
                                request_id=f"{r}.{index}", kind=op.kind,
                                status=op.status, clock="schedule")

    def total(name):
        return sum(scraped.get(name, 0.0) for _, scraped in scrapes)

    def tenant_total(name, *keys):
        value = 0
        for stats, _ in scrapes:
            entry = stats[name]
            for key in keys:
                entry = entry[key]
            value += entry
        return value

    batches = total("repro_serve_batch_seconds_count")
    misses = sum(tenant_total(name, "cache", "misses") for name in TENANTS)
    appends = total("repro_serve_wal_appends_total")
    service_p50, admitted_p50 = _in_process_p50_ms(
        matrices[1], light, scrapes[0][0][TENANTS[1]]["admission"])
    layers = {
        "serve.http_overhead_ms": (client_p50 - admitted_p50, "ms"),
        "serve.admission_ms": (admitted_p50 - service_p50, "ms"),
        "serve.batch_mean": (misses / batches if batches else 0.0, "count"),
        "serve.batch_eval_s": (total("repro_serve_batch_seconds_sum") / batches
                               if batches else 0.0, "s"),
        "serve.shed": (total("repro_serve_shed_total") + sum(
            tenant_total(name, "admission", "quota_shed") for name in TENANTS), "count"),
        "serve.gateway.errors": (total("repro_serve_gateway_errors_total"), "count"),
        "serve.wal.bytes_per_publish": (total("repro_serve_wal_bytes_total") / appends
                                        if appends else 0.0, "B"),
        "serve.recovery_s": (median([m.get("repro_serve_recovery_seconds_sum", 0.0)
                                     for m in recovered]), "s"),
        "serve.wal.records_replayed": (median([
            m.get("repro_serve_wal_records_replayed_total", 0.0) for m in recovered]), "count"),
        "serve.epoch_label_skew": (skews, "count"),
        "client.late_p99_ms": (late_p99, "ms"),
    }
    for name in TENANTS:
        hits = tenant_total(name, "cache", "hits")
        lookups = hits + tenant_total(name, "cache", "misses")
        layers[f"serve.cache_hit_rate.{name}"] = (hits / lookups if lookups else 0.0, "ratio")
    return layers
