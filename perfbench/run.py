"""The repository benchmark: one command, three workloads, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

``--workload`` is ``decide``, ``query-mix`` or ``cold-restart`` (see
``perfbench/DESIGN.md`` for why each exists).  Each run builds its inputs
from ``--seed``, times set-up apart from the measured phase, repeats a
fixed stream of requests for about ``--seconds`` seconds, and checks
every answer.  It prints a table of the end-to-end metrics with units and
sample counts, then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run repeats its stream with spans around each layer's entry points and
the metrics are the per-layer ones (the span dump goes to ``.bench_out/``).
A wrong answer exits with code 1.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys

from harness import (
    END_TO_END,
    OUT_DIR,
    ROOT,
    ERROR,
    TIMEOUT,
    WRONG,
    RssSampler,
    Workspace,
    calibration_seconds,
    emit,
    end_to_end,
    failed_ops,
    live_children,
    mode_p50_ms,
    print_report,
)

WORKLOADS = ("decide", "query-mix", "cold-restart")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import wl_coldrestart
    import wl_decide
    import wl_querymix

    module = {"decide": wl_decide, "query-mix": wl_querymix, "cold-restart": wl_coldrestart}[
        args.workload
    ]
    workspace = Workspace(args.workload)
    recorder = spans.SpanRecorder() if args.trace else None
    try:
        calibration_before = calibration_seconds()
        with RssSampler() as rss:
            outcome = module.run(args.seed, args.seconds, workspace, recorder)
        calibration_after = calibration_seconds()
    finally:
        workspace.close()
    multiprocessing.active_children()  # reap finished children
    leftover = live_children()
    if leftover:
        print(f"perfbench: processes still running after the run: {leftover}", file=sys.stderr)
        return 3

    ops = outcome["ops"]
    values = end_to_end(
        outcome["setup"], ops, outcome["seconds"], rss.peak_mb, outcome.get("ops_per_s")
    )
    print_report(
        args.workload,
        args.seed,
        outcome["setup"],
        ops,
        values,
        rss.samples,
        (calibration_before, calibration_after),
    )
    checked = ops + outcome.get("checked", [])
    correct = not any(op.status == WRONG for op in checked)
    # A typed refusal is an answer the program chose to give; it counts in
    # failed_frac (printed above) but not as a failed operation here.
    failed = sum(op.status in (TIMEOUT, ERROR, WRONG) for op in ops)

    if recorder is None:
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    else:
        extra = dict(outcome.get("extra", {}))
        for mode, (value, _count) in mode_p50_ms(ops).items():
            extra[f"client.p50_ms.{mode}"] = value or 0.0
        extra["client.failed_frac"] = len(failed_ops(ops)) / len(ops)
        layer = spans.per_layer(recorder, extra)
        metrics = {name: (layer[name], spans.PER_LAYER_UNITS[name]) for name in layer}
        for name, (value, unit) in metrics.items():
            print(f"# {name:<36} {value:>14.4f} {unit}")
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.dump(dump)
        print(f"# {len(recorder.spans)} spans written to {dump.relative_to(ROOT)}")
    emit(correct, len(ops), failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
