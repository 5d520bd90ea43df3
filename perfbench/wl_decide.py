"""``decide``: the paper's own experiment, parallel log-k-decomp deciding hw <= k.

Each pass decides every (corpus instance, k) pair once through
``DecompositionEngine(cache=False).decompose`` with the process-backed
parallel log-k-decomp (``hybrid=False``, one worker per core): the
pipeline's simplify/split/lift around the paper's algorithm.  Pairs sit at
k = hw - 1 (an exhaustive "no") and k = hw (a "yes").  The workload is all
search: no query, service, codec or catalog work, so intra-decomposition
parallelism and kernel work show here alone.

The seed draws only the order of the pairs within each pass.
"""

from __future__ import annotations

import os
import random
import time

from repro.bench.corpus import generate_corpus
from repro.core.width import make_decomposer
from repro.decomp.validation import validate_hd
from repro.exceptions import ReproError
from repro.pipeline.engine import DecompositionEngine

from harness import OK, TIMEOUT, WRONG, Op

#: (small-scale corpus instance, k, pinned outcome).  Outcomes were
#: cross-checked against sequential log-k-decomp; every pair decides well
#: inside the budget (pairs that time out measure the budget, not the search).
PAIRS = (
    ("app-query-m-2", 2, False),
    ("app-query-m-2", 3, True),
    ("app-query-m-3", 3, True),
    ("app-cycle-m-3", 3, True),
    ("app-cycle-l-0", 2, False),
    ("app-cycle-l-0", 3, True),
    ("app-cycle-l-2", 3, True),
    ("app-cycle-l-5", 2, False),
    ("app-cycle-l-5", 3, True),
    ("app-query-l-0", 3, False),
    ("app-query-l-1", 3, False),
    ("syn-csp-m-1", 3, False),
    ("syn-csp-m-2", 3, False),
    ("syn-csp-l-0", 3, False),
    ("syn-grid-l-0", 4, True),
    ("syn-cycle-xl-0", 2, True),
    ("syn-cycle-xl-1", 2, True),
    ("syn-csp-xl-0", 2, False),
)
BUDGET_S = 30.0
SETUP_REPEATS = 5


def _setup():
    instances = {instance.name: instance.hypergraph for instance in generate_corpus("small")}
    pairs = [(name, k, expected, instances[name]) for name, k, expected in PAIRS]
    decomposer = make_decomposer(
        "parallel",
        hybrid=False,
        num_workers=os.cpu_count() or 1,
        backend="process",
        timeout=BUDGET_S,
    )
    return pairs, decomposer, DecompositionEngine(cache=False)


def _decide(engine, decomposer, name, k, expected, hypergraph) -> Op:
    start = time.perf_counter()
    result = engine.decompose(decomposer, hypergraph, k)
    seconds = time.perf_counter() - start
    label = f"{name}@k{k}"
    if result.timed_out:
        return Op(label, "decide", seconds, TIMEOUT, f"budget {BUDGET_S}s")
    if result.success != expected:
        return Op(label, "decide", seconds, WRONG, f"answered {result.success}")
    if result.success:
        try:
            validate_hd(result.decomposition)
        except ReproError as error:
            return Op(label, "decide", seconds, WRONG, f"invalid HD: {error}")
        if result.decomposition.width > k:
            return Op(label, "decide", seconds, WRONG, f"width {result.decomposition.width}")
    return Op(label, "decide", seconds, OK)


def run(seed: int, seconds: float, workspace, recorder=None) -> dict:
    setup_samples = []

    def set_up():
        start = time.perf_counter()
        built = _setup()
        setup_samples.append(time.perf_counter() - start)
        return built

    rng = random.Random(seed)
    ops: list[Op] = []
    if recorder is None:
        # Passes in seeded orders until the time is up, checked before each
        # pair once every pair has been decided.  A set-up takes about 15 ms
        # and bursts of host load can double it, so every decision gets a
        # fresh one: the set-up samples are then spread evenly over the run.
        measured = 0.0
        while measured < seconds:
            for index in rng.sample(range(len(PAIRS)), len(PAIRS)):
                if measured >= seconds and len(ops) >= len(PAIRS):
                    break
                pairs, decomposer, engine = set_up()
                ops.append(_decide(engine, decomposer, *pairs[index]))
                measured += ops[-1].seconds
        # The last pass may be partial, so the rate is that of one whole
        # pass with each pair at its mean time over the run.
        per_pair: dict[str, list[float]] = {}
        for op in ops:
            per_pair.setdefault(op.label, []).append(op.seconds)
        pass_seconds = sum(sum(times) / len(times) for times in per_pair.values())
        return {
            "setup": setup_samples,
            "ops": ops,
            "seconds": measured,
            "ops_per_s": len(per_pair) / pass_seconds,
        }

    for _ in range(SETUP_REPEATS):
        pairs, decomposer, engine = set_up()
    # Traced run: one untraced pass, the same pass traced, and the same
    # pairs through sequential log-k-decomp for the parallel speedup.
    order = rng.sample(pairs, len(pairs))
    start = time.perf_counter()
    ops = [_decide(engine, decomposer, *pair) for pair in order]
    untraced = time.perf_counter() - start
    recorder.install()
    try:
        traced_start = time.perf_counter()
        traced_ops = [_decide(engine, decomposer, *pair) for pair in order]
        traced = time.perf_counter() - traced_start
    finally:
        recorder.uninstall()
    sequential = make_decomposer("logk", timeout=BUDGET_S)
    sequential_start = time.perf_counter()
    sequential_ops = [_decide(engine, sequential, *pair) for pair in order]
    sequential_seconds = time.perf_counter() - sequential_start
    return {
        "setup": setup_samples,
        "ops": ops,
        "seconds": untraced,
        "checked": traced_ops + sequential_ops,
        "extra": {
            "core.parallel_speedup": sequential_seconds / untraced,
            "trace.overhead_ms": 1000.0 * (traced - untraced) / len(order),
            "trace.overhead_frac": traced / untraced - 1.0,
        },
    }
