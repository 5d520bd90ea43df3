"""Unit tests for the parallel search-space-partitioning backend."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import LogKDecomposer, ParallelLogKDecomposer
from repro.core.logk import LogKSearch
from repro.core.base import SearchContext
from repro.core.fragments import fragment_to_decomposition
from repro.core.parallel import _worker_search
from repro.decomp import validate_hd
from repro.decomp.covers import CoverEnumerator
from repro.decomp.extended import full_comp
from repro.exceptions import SolverError, TimeoutExceeded
from repro.hypergraph import generators


def test_rejects_bad_configuration():
    with pytest.raises(SolverError):
        ParallelLogKDecomposer(num_workers=0)
    with pytest.raises(SolverError):
        ParallelLogKDecomposer(backend="gpu")


def test_single_worker_falls_back_to_sequential(cycle10):
    result = ParallelLogKDecomposer(num_workers=1).decompose(cycle10, 2)
    assert result.success
    validate_hd(result.decomposition)


@pytest.mark.parametrize("backend", ["process", "thread"])
def test_parallel_positive_instance(backend, cycle10):
    decomposer = ParallelLogKDecomposer(num_workers=2, backend=backend, hybrid=False)
    result = decomposer.decompose(cycle10, 2)
    assert result.success
    assert result.decomposition is not None
    validate_hd(result.decomposition)
    assert result.decomposition.width <= 2


@pytest.mark.parametrize("backend", ["process", "thread"])
def test_parallel_negative_instance(backend, cycle6):
    decomposer = ParallelLogKDecomposer(num_workers=2, backend=backend)
    result = decomposer.decompose(cycle6, 1)
    assert not result.success
    assert not result.timed_out


def test_parallel_hybrid_mode(grid23):
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=True, threshold=4)
    result = decomposer.decompose(grid23, 2)
    assert result.success
    validate_hd(result.decomposition)


def test_parallel_agrees_with_sequential():
    cases = [
        (generators.cycle(8), 1),
        (generators.cycle(8), 2),
        (generators.triangle_cascade(3), 2),
        (generators.clique(5), 2),
    ]
    for hypergraph, k in cases:
        sequential = LogKDecomposer().decompose(hypergraph, k).success
        parallel = ParallelLogKDecomposer(num_workers=3, hybrid=False).decompose(
            hypergraph, k
        )
        assert parallel.success == sequential


def test_partitioned_search_is_complete_unionwise(cycle10):
    """The union of the per-partition searches equals the full search.

    Worker i only explores top-level child labels whose smallest edge lies in
    partition i; here we check directly that for a positive instance at least
    one partition succeeds and for a negative one all partitions fail.
    """
    k_positive, k_negative = 2, 1
    enumerator = CoverEnumerator(cycle10, k_positive)
    partitions = enumerator.partition_first_edges(None, 3)

    def run(partition, k):
        context = SearchContext(cycle10, k)
        search = LogKSearch(context, root_partition=partition)
        fragment = search.search(
            full_comp(cycle10), conn=0, allowed=frozenset(range(cycle10.num_edges))
        )
        return fragment

    positives = [run(p, k_positive) for p in partitions]
    assert any(fragment is not None for fragment in positives)
    for fragment in positives:
        if fragment is not None:
            validate_hd(fragment_to_decomposition(cycle10, fragment))

    negatives = [run(p, k_negative) for p in partitions]
    assert all(fragment is None for fragment in negatives)


def test_worker_statistics_are_merged(cycle10):
    result = ParallelLogKDecomposer(num_workers=2, hybrid=False).decompose(cycle10, 2)
    assert result.statistics.recursive_calls > 0


# --------------------------------------------------------------------------- #
# cooperative cancellation (thread backend)
# --------------------------------------------------------------------------- #
def test_search_context_honours_cancel_event(cycle10):
    event = threading.Event()
    context = SearchContext(cycle10, 2, cancel_event=event)
    for _ in range(200):
        context.check_timeout()  # not set: never raises
    event.set()
    with pytest.raises(TimeoutExceeded):
        context.force_timeout_check()
    with pytest.raises(TimeoutExceeded):
        for _ in range(200):  # throttled check trips within one stride
            context.check_timeout()


def test_cancelled_worker_aborts_quickly():
    # A refutation on a large chorded cycle takes far longer than 0.5 s; a
    # pre-set cancellation event must make the worker bail out almost
    # immediately, reporting "no answer" (timed_out) rather than a refutation.
    hard = generators.with_chords(generators.cycle(60), 5, seed=4)
    event = threading.Event()
    event.set()
    start = time.monotonic()
    timed_out, success, fragment, _stats = _worker_search(
        hard.edges_as_dict(),
        hard.name,
        2,
        list(range(hard.num_edges)),
        None,
        False,
        "WeightedCount",
        400.0,
        cancel_event=event,
    )
    assert time.monotonic() - start < 0.5
    assert timed_out and not success and fragment is None


def test_thread_backend_sets_cancel_event_on_success(cycle10, monkeypatch):
    # Observe the cancellation event the coordinator hands to its workers.
    from repro.core import parallel as parallel_module

    seen: list[threading.Event] = []
    original = parallel_module._worker_search

    def spy(*args, cancel_event=None, **kwargs):
        if cancel_event is not None:
            seen.append(cancel_event)
        return original(*args, cancel_event=cancel_event, **kwargs)

    monkeypatch.setattr(parallel_module, "_worker_search", spy)
    # use_engine=False: the engine's result cache could otherwise answer from
    # an earlier test without ever starting workers.
    decomposer = ParallelLogKDecomposer(
        num_workers=2, backend="thread", hybrid=False, use_engine=False
    )
    result = decomposer.decompose(cycle10, 2)
    assert result.success
    assert seen and all(event is seen[0] for event in seen)
    assert seen[0].is_set()


# --------------------------------------------------------------------------- #
# worker supervision: crash detection, respawn, abandonment
# --------------------------------------------------------------------------- #
def test_killed_process_worker_is_respawned_and_run_succeeds(cycle10):
    from repro import faults

    # Every first-attempt worker is OOM-killed at startup; the supervisor
    # must detect the silent deaths, respawn each partition once, and the
    # replacements (attempt 1 no longer matches the rule) decide the run.
    rule = faults.FaultRule(point="parallel.worker", kill=True, where={"attempt": 0})
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False, use_engine=False)
    with faults.injected(rule):
        result = decomposer.decompose_raw(cycle10, 2)
    assert result.success
    assert not result.timed_out
    validate_hd(result.decomposition)
    assert result.statistics.worker_respawns == 2


def test_respawn_budget_exhausted_degrades_to_undecided(cycle10):
    from repro import faults
    from repro.core.parallel import ParallelLogKDecomposer as P

    # Every attempt dies: after the per-slot budget the partitions are
    # abandoned and the run reports undecided (timed out), not a wrong "no".
    rule = faults.FaultRule(point="parallel.worker", kill=True)
    decomposer = ParallelLogKDecomposer(num_workers=2, hybrid=False, use_engine=False)
    with faults.injected(rule):
        result = decomposer.decompose_raw(cycle10, 2)
    assert not result.success
    assert result.timed_out
    assert result.statistics.worker_respawns == 2 * P._MAX_RESPAWNS_PER_SLOT


def test_coordinator_stops_at_its_budget():
    from repro import faults

    # Every worker stalls far past the budget before it starts searching;
    # the coordinator must not wait for them: it stops at its own deadline,
    # terminates the workers and reports the run as undecided.
    hard = generators.with_chords(generators.cycle(60), 5, seed=4)
    rule = faults.FaultRule(point="parallel.worker", delay=6.0)
    decomposer = ParallelLogKDecomposer(
        num_workers=2, hybrid=False, use_engine=False, timeout=1.0
    )
    start = time.monotonic()
    with faults.injected(rule):
        result = decomposer.decompose_raw(hard, 2)
    elapsed = time.monotonic() - start
    assert result.timed_out and not result.success
    assert elapsed <= decomposer.timeout + 0.5
