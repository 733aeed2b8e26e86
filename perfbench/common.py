"""Shared plumbing: where things live, how the CLI is spawned and timed,
percentiles, and the in-memory span recorder of traced runs."""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: The checkout root: the benchmark is always run from there.
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_in_process() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PYTHONSTARTUP", None)
    return env


class Failures:
    """Operations attempted and the problems found, for the result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def op(self, problems=()) -> bool:
        self.attempted += 1
        problems = list(problems)
        self.problems.extend(problems)
        return not problems

    @property
    def failed(self) -> int:
        return len(self.problems)


@dataclass
class CliRun:
    """One finished ``python -m repro`` process."""

    args: list[str]
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for *proc*, killing it after *deadline* (``perf_counter``);
    sets its return code and returns its resource usage.

    Polls ``wait4`` every 2 ms: ``Popen.wait`` with a timeout sleeps up
    to 50 ms between polls, which would round every timing up to a step
    of that size.
    """
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_cli(args: list[str], workdir: Path, timeout: float = 150.0) -> CliRun:
    """Spawn ``python -m repro ARGS`` and time it from spawn to exit.

    The child is reaped with ``wait4`` so its own peak RSS is read,
    not the maximum over every child the harness ever had.
    """
    out_path = workdir / "cli.stdout"
    err_path = workdir / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=out, stderr=err, env=cli_env(), cwd=workdir,
        )
        usage = _reap(proc, start + timeout)
        wall = time.perf_counter() - start
    return CliRun(
        args=list(args),
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


class Yardstick:
    """Times ``reference_job.py`` in a fresh process next to each
    measured process, so each has a reading just before and just after
    it: how fast the machine ran at that moment."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.readings: list[float] = []

    def read(self) -> float:
        """Time the reference job once, spawn to exit."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("reference_job.py"))],
            cwd=self.workdir,
        )
        _reap(proc, start + 60.0)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"reference job exited {proc.returncode}")
        self.readings.append(wall)
        return wall

    def relative(self, seconds: float) -> float:
        """*seconds*, just measured, over the mean of the last reading
        (taken just before it) and a new one."""
        before = self.readings[-1]
        return seconds / ((before + self.read()) / 2)


def time_import(workdir: Path) -> float:
    """Wall time of ``python -c "import repro"`` in a fresh process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import repro"],
                            env=cli_env(), cwd=workdir)
    _reap(proc, start + 60.0)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import repro exited {proc.returncode}")
    return wall


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> int:
    """SIGTERM, wait, SIGKILL as a last resort; returns the exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-th percentile (0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    if rank == lo or ordered[hi] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def digest_arrays(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(str(array.dtype).encode())
        sha.update(str(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()[:16]


def ossm_digest(ossm) -> str:
    """Digest of a map's segment-support matrix and segment sizes."""
    import numpy as np

    sizes = np.asarray(ossm.segment_sizes or (), dtype=np.int64)
    return digest_arrays(ossm.matrix, sizes)


class SpanRecorder:
    """Spans kept in memory and written out once at the end of a run.

    Each span has a name, a start, an end, a parent and a request id;
    self time is the span's duration minus the time its children cover.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.enabled = True

    @contextmanager
    def span(self, name: str, request_id: str | None = None, **attrs):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request_id": request_id,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name, start, end, parent=None, request_id=None, **attrs):
        """Record an already-finished span (e.g. a client request)."""
        self.spans.append({
            "name": name, "start": start, "end": end, "parent": parent,
            "request_id": request_id, **attrs,
        })
        return len(self.spans) - 1

    def with_self_time(self) -> list[dict]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [
            {**span, "self": span["end"] - span["start"] - child_time[i]}
            for i, span in enumerate(self.spans)
        ]
