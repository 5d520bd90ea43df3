"""Parallel execution of the separator search (Appendix D.1).

The paper parallelises log-k-decomp by partitioning the search space of
balanced separators uniformly over the available cores; because subproblems
are independent, no communication between workers is needed.  This module
reproduces that strategy:

* The candidate pool of the *top-level* child-separator loop is partitioned
  round-robin into ``num_workers`` groups; worker ``i`` only explores labels
  whose smallest edge index falls in group ``i``.  The union of the groups
  covers the full label space, so "all workers fail" is a sound "no" answer
  and "any worker succeeds" is a sound "yes".
* Two backends are provided.  The ``process`` backend runs one worker per
  partition on the supervised pool of :mod:`repro.workers` and delivers
  real speedups (each worker is a separate interpreter).  The ``thread``
  backend is the path used inside the service's process-backend workers:
  those are daemonic and cannot fork workers of their own.  Under the GIL
  it does not scale this CPU-bound search.

The Go implementation evaluated in the paper parallelises every recursion
level; partitioning only the top level is a simplification that preserves the
strategy's character (independent partitions, no shared state) while keeping
the Python implementation portable.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from .. import faults
from ..decomp.covers import CoverEnumerator
from ..decomp.extended import FragmentNode, full_bitcomp
from ..exceptions import SolverError
from ..hypergraph import Hypergraph
from ..workers import POLL_INTERVAL, EitherEvent, WorkerPool, WorkerSlot, _write_frame
from .base import Decomposer, DecompositionResult, SearchContext, SearchStatistics
from .detk import DetKSearch
from .fragments import fragment_to_decomposition
from .hybrid import HybridDecomposer, make_metric
from .logk import LogKSearch

__all__ = ["ParallelLogKDecomposer"]


def _partition_worker(result_fd, slot, attempt, fault_spec, args: tuple) -> None:
    """Process-backend entry point: run the search, frame its one outcome back.

    ``fault_spec`` re-creates the parent's fault injector in the child with
    fresh locks; the ``parallel.worker`` point fired here carries
    ``slot``/``attempt`` context, so a chaos schedule can kill attempt 0 of
    a slot and let its respawned replacement live.
    """
    faults.install_spec(fault_spec)
    try:
        faults.fire("parallel.worker", slot=slot, attempt=attempt)
        outcome = _worker_search(*args)
    except Exception:
        # An injected (or otherwise escaped) error: report the partition as
        # undecided rather than dying without a word.
        outcome = (True, False, None, SearchStatistics())
    _write_frame(result_fd, outcome)


def _worker_search(
    edges: dict[str, frozenset[str]],
    hypergraph_name: str,
    k: int,
    partition: list[int],
    timeout: float | None,
    hybrid: bool,
    metric_name: str,
    threshold: float,
    label_pruning: bool = True,
    subedge_domination: bool = True,
    cancel_event: threading.Event | None = None,
) -> tuple[bool, bool, FragmentNode | None, SearchStatistics]:
    """Worker entry point (module level so it can be pickled).

    ``cancel_event`` is only used by the thread backend: once some worker has
    succeeded, the coordinator sets the event and the remaining workers abort
    at their next periodic deadline check instead of burning CPU to the end
    of their partitions (``Future.cancel`` cannot stop an already-running
    worker).  Process workers are terminated through the pool instead.

    Returns ``(timed_out, success, fragment, statistics)``.
    """
    host = Hypergraph(edges, name=hypergraph_name)
    context = SearchContext(host, k, timeout=timeout, cancel_event=cancel_event)
    leaf_delegate = None
    delegate_predicate = None
    if hybrid:
        detk = DetKSearch(
            context,
            label_pruning=label_pruning,
            subedge_domination=subedge_domination,
        )
        metric = make_metric(metric_name)

        def leaf_delegate(comp, conn, depth, allowed, _detk=detk):  # type: ignore[misc]
            return _detk.search(comp, conn, depth, allowed=allowed)

        def delegate_predicate(comp, _metric=metric, _host=host, _k=k):  # type: ignore[misc]
            return _metric.value(_host, comp, _k) < threshold

    search = LogKSearch(
        context,
        label_pruning=label_pruning,
        subedge_domination=subedge_domination,
        leaf_delegate=leaf_delegate,
        delegate_predicate=delegate_predicate,
        root_partition=partition,
    )
    try:
        fragment = search.search(
            full_bitcomp(host), conn=0, allowed=host.all_edges_mask
        )
    except Exception:  # TimeoutExceeded or unexpected failure in the worker
        return True, False, None, context.stats
    return False, fragment is not None, fragment, context.stats


class ParallelLogKDecomposer(Decomposer):
    """log-k-decomp (optionally hybrid) with a parallel top-level separator search."""

    name = "log-k-decomp-parallel"

    def __init__(
        self,
        timeout: float | None = None,
        num_workers: int = 1,
        backend: str = "process",
        hybrid: bool = True,
        metric: str = "WeightedCount",
        threshold: float = 400.0,
        label_pruning: bool = True,
        subedge_domination: bool = True,
        **engine_options,
    ) -> None:
        super().__init__(timeout=timeout, **engine_options)
        if num_workers < 1:
            raise SolverError("num_workers must be >= 1")
        if backend not in {"process", "thread"}:
            raise SolverError(f"unknown parallel backend {backend!r}")
        self.num_workers = num_workers
        self.backend = backend
        self.hybrid = hybrid
        self.metric = metric
        self.threshold = threshold
        self.label_pruning = label_pruning
        self.subedge_domination = subedge_domination

    # ------------------------------------------------------------------ #
    # Decomposer interface
    # ------------------------------------------------------------------ #
    def decompose_raw(
        self,
        hypergraph: Hypergraph,
        k: int,
        timeout: float | None = None,
        cancel_event=None,
    ) -> DecompositionResult:
        if self.num_workers <= 1:
            return self._sequential().decompose_raw(
                hypergraph, k, timeout=timeout, cancel_event=cancel_event
            )
        start = time.monotonic()
        partitions = CoverEnumerator(hypergraph, k).partition_first_edges(
            None, self.num_workers
        )
        partitions = [p for p in partitions if p]
        runner = self._run_processes if self.backend == "process" else self._run_threads
        effective_timeout = self.timeout if timeout is None else timeout
        timed_out, success, fragment, stats = runner(
            hypergraph, k, partitions, effective_timeout, cancel_event
        )
        elapsed = time.monotonic() - start
        decomposition = None
        if success and fragment is not None:
            decomposition = fragment_to_decomposition(hypergraph, fragment)
        return DecompositionResult(
            algorithm=self.name,
            hypergraph=hypergraph,
            width_parameter=k,
            success=success,
            decomposition=decomposition,
            elapsed=elapsed,
            timed_out=timed_out and not success,
            statistics=stats,
        )

    def _run(self, context: SearchContext):  # pragma: no cover - not used
        raise NotImplementedError("ParallelLogKDecomposer overrides decompose_raw()")

    # ------------------------------------------------------------------ #
    # backends
    # ------------------------------------------------------------------ #
    def _sequential(self) -> Decomposer:
        # use_engine=False: when the engine is on, it already ran the
        # preprocessing before calling decompose_raw; running it again in the
        # fallback would double the simplification work.
        if self.hybrid:
            return HybridDecomposer(
                timeout=self.timeout,
                metric=self.metric,
                threshold=self.threshold,
                label_pruning=self.label_pruning,
                subedge_domination=self.subedge_domination,
                use_engine=False,
            )
        from .logk import LogKDecomposer

        return LogKDecomposer(
            timeout=self.timeout,
            label_pruning=self.label_pruning,
            subedge_domination=self.subedge_domination,
            use_engine=False,
        )

    def _worker_args(
        self,
        hypergraph: Hypergraph,
        k: int,
        partition: list[int],
        timeout: float | None,
    ) -> tuple:
        return (
            hypergraph.edges_as_dict(),
            hypergraph.name,
            k,
            partition,
            timeout,
            self.hybrid,
            self.metric,
            self.threshold,
            self.label_pruning,
            self.subedge_domination,
        )

    #: Respawn budget per partition slot; beyond it the slot is abandoned
    #: (the run degrades to undecided instead of looping on a doomed
    #: partition).
    _MAX_RESPAWNS_PER_SLOT = 2

    def _run_processes(
        self,
        hypergraph: Hypergraph,
        k: int,
        partitions: list[list[int]],
        timeout: float | None,
        cancel_event: threading.Event | None = None,
    ) -> tuple[bool, bool, FragmentNode | None, SearchStatistics]:
        # One pool slot per partition.  A worker that dies without
        # reporting (OOM-killed, injected ``kill``) is respawned on the same
        # partition — the search is pure, so recomputing a partition is
        # sound — up to ``_MAX_RESPAWNS_PER_SLOT`` times, after which the
        # slot is abandoned and the run degrades to undecided.  The
        # coordinator keeps its own deadline: a wedged or late worker is
        # terminated at the budget, never waited for.
        stats = SearchStatistics()
        timed_out = False
        deadline = None if timeout is None else time.monotonic() + timeout
        fault_spec = faults.current_spec()

        def args(slot: WorkerSlot) -> tuple:
            # A respawned worker gets what is left of the budget.
            remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
            return fault_spec, self._worker_args(
                hypergraph, k, partitions[slot.index], remaining
            )

        pool = WorkerPool(
            _partition_worker,
            [WorkerSlot(i) for i in range(len(partitions))],
            args,
            name="repro-parallel-worker",
            max_respawns=self._MAX_RESPAWNS_PER_SLOT,
        )
        try:
            while not all(slot.retired for slot in pool.slots):
                # External cancellation (a threading.Event cannot cross the
                # process boundary): terminate the workers in the finally
                # block and report the run as undecided.
                if cancel_event is not None and cancel_event.is_set():
                    return True, False, None, stats
                poll = POLL_INTERVAL
                if deadline is not None:
                    poll = min(poll, deadline - time.monotonic())
                    if poll <= 0:
                        return True, False, None, stats
                messages = pool.read(poll)
                for slot, (worker_timeout, success, fragment, worker_stats) in messages:
                    slot.retired = True
                    stats.merge(worker_stats)
                    timed_out = timed_out or worker_timeout
                    if success:
                        return False, True, fragment, stats
                for slot, _exit_code in pool.sweep():
                    if slot.retired:  # abandoned: the run degrades to undecided
                        timed_out = True
                    else:
                        stats.worker_respawns += 1
        finally:
            pool.close()
        return timed_out, False, None, stats

    def _run_threads(
        self,
        hypergraph: Hypergraph,
        k: int,
        partitions: list[list[int]],
        timeout: float | None,
        cancel_event: threading.Event | None = None,
    ) -> tuple[bool, bool, FragmentNode | None, SearchStatistics]:
        stats = SearchStatistics()
        timed_out = False
        cancel = threading.Event()
        # Workers poll one object: the caller's external cancellation folded
        # into the coordinator's own first-success signal.
        worker_cancel = (
            cancel if cancel_event is None else EitherEvent(cancel, cancel_event)
        )
        with ThreadPoolExecutor(max_workers=len(partitions)) as executor:
            futures = {
                executor.submit(
                    _worker_search,
                    *self._worker_args(hypergraph, k, part, timeout),
                    cancel_event=worker_cancel,
                )
                for part in partitions
            }
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                if cancel_event is not None and cancel_event.is_set():
                    for other in futures:
                        other.cancel()
                    return True, False, None, stats
                for future in done:
                    worker_timeout, success, fragment, worker_stats = future.result()
                    stats.merge(worker_stats)
                    timed_out = timed_out or worker_timeout
                    if success:
                        # Future.cancel only helps workers still queued; the
                        # shared event makes already-running workers abort at
                        # their next deadline check, so the executor shutdown
                        # below does not wait for them to finish their
                        # partitions.
                        cancel.set()
                        for other in futures:
                            other.cancel()
                        return False, True, fragment, stats
        return timed_out, False, None, stats
