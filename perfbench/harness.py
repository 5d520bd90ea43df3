"""Measurement plumbing shared by the perfbench workloads.

Latency statistics, the resident-memory sampler that covers the load
generator and every process it caused, the calibration loop, the per-run
scratch directory inside the checkout, and the result line the benchmark
prints last.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: The checkout the benchmark runs from (the directory holding ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes (scratch databases, catalogs, span dumps) lives here.
OUT_DIR = ROOT / ".bench_out"

#: Statuses an operation can end with.  Every status but ``ok`` counts in
#: ``failed_frac``; ``wrong`` also makes the run incorrect.
OK, REFUSED, TIMEOUT, ERROR, WRONG = "ok", "refused", "timeout", "error", "wrong"

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
MODES = ("boolean", "count", "enumerate")


@dataclass
class Op:
    """One closed-loop operation: what was asked, how long it took, how it ended."""

    label: str
    mode: str
    seconds: float
    status: str
    detail: str = ""


def quantile(values: list[float], fraction: float) -> float:
    """Harrell–Davis estimate of a quantile: a Beta-weighted mean of the order statistics.

    Over a few dozen distinct requests a nearest-rank 90th percentile is
    one request's latency, and that request's own noise moves it; this
    estimate weighs the order statistics around the rank, with weights
    from the Beta((n+1)q, (n+1)(1-q)) distribution over each 1/n slice.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * fraction, (n + 1) * (1 - fraction)

    steps = 100  # midpoint rule per slice
    points = [(i + (j + 0.5) / steps) / n for i in range(n) for j in range(steps)]
    # Log of the Beta(a, b) density up to its constant, shifted by its peak
    # so no term underflows; both constants cancel in the division below.
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in points]
    peak = max(logs)
    weights = [
        sum(math.exp(v - peak) for v in logs[i * steps : (i + 1) * steps]) for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop: host speed, reported as context."""
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    return time.perf_counter() - start


# --------------------------------------------------------------------------- #
# resident memory of the whole process tree
# --------------------------------------------------------------------------- #
def _process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants, read from ``/proc``.

    Children are listed per thread (``task/<tid>/children``), because the
    service and the parallel decomposer fork from different threads.
    """
    pids, stack = [], [root]
    while stack:
        pid = stack.pop()
        pids.append(pid)
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as handle:
                    stack.extend(int(child) for child in handle.read().split())
            except OSError:
                pass
    return pids


class RssSampler:
    """Samples the summed resident set of this process and its descendants.

    ``RUSAGE_CHILDREN`` only covers children that have already been
    reaped, so live service and search workers are read from ``/proc``
    every ``interval`` seconds on a background thread.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_bytes = 0
        self.samples = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-rss", daemon=True)

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm") as handle:
                return int(handle.read().split()[1]) * self._page
        except (OSError, IndexError, ValueError):
            return 0

    def sample(self) -> None:
        total = sum(self._rss(pid) for pid in _process_tree(os.getpid()))
        self.peak_bytes = max(self.peak_bytes, total)
        self.samples += 1

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1024 * 1024)


def live_children() -> list[int]:
    """Descendant processes still alive (the run must leave none behind)."""
    return [pid for pid in _process_tree(os.getpid())[1:] if _is_running(pid)]


def _is_running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


# --------------------------------------------------------------------------- #
# scratch space inside the checkout
# --------------------------------------------------------------------------- #
class Workspace:
    """A per-run directory under ``.bench_out`` for every file the run writes.

    Temporary files of Python and SQLite are redirected into it too, so the
    run never writes outside its checkout.  Removed when the run ends.
    """

    def __init__(self, workload: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
        tmp = self.path / "tmp"
        tmp.mkdir()
        os.environ["TMPDIR"] = str(tmp)
        os.environ["SQLITE_TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)

    def file(self, name: str) -> Path:
        return self.path / name

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #
def failed_ops(ops: list[Op]) -> list[Op]:
    return [op for op in ops if op.status != OK]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: a quarter (rounded down) dropped at each end."""
    ordered = sorted(values)
    trim = len(ordered) // 4
    kept = ordered[trim : len(ordered) - trim]
    return sum(kept) / len(kept)


def request_latencies(ops: list[Op], mode: str | None = None) -> list[float]:
    """Each distinct request's latency in ms: the interquartile mean of its repetitions.

    A request is a (label, mode) pair of the fixed stream; every run asks
    each one several times.  Summarising each request first keeps one that
    once hit a collection pause or a burst of host load from moving the
    run's percentiles, while the mean of the middle repetitions still
    averages the host's speed over the run.
    """
    by_request: dict[tuple[str, str], list[float]] = {}
    for op in ops:
        if mode is None or op.mode == mode:
            by_request.setdefault((op.label, op.mode), []).append(op.seconds * 1000.0)
    return [interquartile_mean(latencies) for latencies in by_request.values()]


def end_to_end(
    setup_samples: list[float],
    ops: list[Op],
    measured_seconds: float,
    peak_mb: float,
    ops_per_s: float | None = None,
) -> dict[str, float]:
    """The result-line metrics; ``ops_per_s`` defaults to ops over measured time."""
    latencies = request_latencies(ops)
    return {
        "setup_s": median(setup_samples),
        "ops_per_s": len(ops) / measured_seconds if ops_per_s is None else ops_per_s,
        "p50_ms": median(latencies),
        "p90_ms": quantile(latencies, 0.90),
        "peak_rss_mb": peak_mb,
    }


def mode_p50_ms(ops: list[Op]) -> dict[str, tuple[float | None, int]]:
    """Median over each answer mode's requests, with its operation count."""
    out = {}
    for mode in MODES:
        latencies = request_latencies(ops, mode)
        count = sum(op.mode == mode for op in ops)
        out[mode] = (median(latencies) if latencies else None, count)
    return out


def print_report(
    workload: str,
    seed: int,
    setup_samples: list[float],
    ops: list[Op],
    values: dict[str, float],
    rss_samples: int,
    calibration: tuple[float, float],
) -> None:
    """The human-readable table: every end-to-end metric, unit and sample count."""
    print(f"# workload={workload} seed={seed} "
          f"calibration_s={calibration[0]:.4f}/{calibration[1]:.4f} (before/after; context only)")
    print(f"# {'metric':<18} {'value':>12} {'unit':<6} samples")
    print(f"# {len(ops)} operations over {len(request_latencies(ops))} distinct requests")
    rows = [
        ("setup_s", values["setup_s"], "s", len(setup_samples)),
        ("ops_per_s", values["ops_per_s"], "1/s", len(ops)),
        ("p50_ms", values["p50_ms"], "ms", len(ops)),
        ("p90_ms", values["p90_ms"], "ms", len(ops)),
    ]
    for mode, (value, count) in mode_p50_ms(ops).items():
        rows.append((f"p50_ms.{mode}", value, "ms", count))
    failed = failed_ops(ops)
    rows.append(("failed_frac", len(failed) / len(ops) if ops else 0.0, "ratio", len(ops)))
    rows.append(("peak_rss_mb", values["peak_rss_mb"], "MiB", rss_samples))
    for name, value, unit, count in rows:
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"# {name:<18} {shown:>12} {unit:<6} {count}")
    by_status: dict[str, int] = {}
    for op in failed:
        by_status[op.status] = by_status.get(op.status, 0) + 1
    if by_status:
        print(f"# failures by kind: {by_status}")
        for op in failed:
            if op.status in (WRONG, ERROR):
                print(f"#   {op.status}: {op.label} {op.mode}: {op.detail}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    """The result object, printed as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
