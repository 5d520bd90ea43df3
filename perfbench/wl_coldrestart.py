"""``cold-restart``: planning traffic against a freshly restarted service.

Every instance of the ``tiny`` corpus is read as a conjunctive query (one
atom per edge) over a tiny random database.  Set-up decides a seeded half
of the shapes into a fresh catalog file.  A timed pass restarts from a copy
of that file: a fresh ``DecompositionEngine(catalog=...)`` behind the
default thread-backend service, with one client asking each shape in
boolean and then count mode through the default ``QueryEngine`` (hybrid,
a fixed per-k budget, ``max_width=10``).  So the same layers are used in
three ways: an L2 read plus validate-on-load for the known half, a search
plus a write-behind put for the new half, and an L1 hit for each shape's
second mode.  It is the only workload that touches the catalog, hashing,
simplify and plan compilation at volume; columnar work is negligible.

One client, because with two the interleaving of the interpreter lock
decides which searches hit their wall-clock budget.  Shapes the planner
refuses stay in the stream and count in ``failed_frac``: at this budget
they are 8 of 32, and they take most of the wall time, so work on the plan
path shows on ``p50_ms`` more than on ``ops_per_s``.

The seed draws the databases, the known half and the order of the shapes.
"""

from __future__ import annotations

import os
import random
import shutil
import time

from repro.bench.corpus import generate_corpus
from repro.decomp.jointree import join_tree_from_decomposition
from repro.decomp.validation import validate_hd
from repro.exceptions import QueryError, ReproError
from repro.pipeline.engine import DecompositionEngine
from repro.query import QueryEngine, materialise_bags, random_database_for_query, yannakakis
from repro.service import DecompositionService

from harness import WRONG, Op, median
from wl_querymix import corpus_query, query_op

SCALE = "tiny"
#: Per-k hybrid budget of the planner.  Every decided search of the stream
#: takes under a third of it, except app-query-l-0 at k=2 (a "no" in about
#: 0.6 s followed by a timeout at k=3, so it is refused either way) and
#: syn-grid-l-0 at k=2 (about 1.9 s, refused unless that search gets ~4x
#: faster).
BUDGET_S = 0.5
DOMAIN, TUPLES = 3, 6
MODES = ("boolean", "count")
SETUP_REPEATS = 3


class _Shape:
    __slots__ = ("name", "query", "database", "reference")

    def __init__(self, name, query, database) -> None:
        self.name, self.query, self.database = name, query, database
        self.reference = None


def _setup(seed: int, workspace, repeat: int):
    rng = random.Random(seed)
    shapes = []
    for instance in generate_corpus(SCALE):
        query = corpus_query(instance)
        database = random_database_for_query(
            query, domain_size=DOMAIN, tuples_per_relation=TUPLES, seed=rng.randrange(2**31)
        )
        shapes.append(_Shape(instance.name, query, database))
    # One of each pair of neighbours in size order: every seed knows a
    # like-sized half, so the set-up cost and the L2/search mix of a pass
    # vary little with the seed.
    by_size = sorted(shapes, key=lambda shape: (len(shape.query.atoms), shape.name))
    known = [rng.choice(by_size[i : i + 2]) for i in range(0, len(by_size), 2)]
    order = rng.sample(shapes, len(shapes))
    catalog = workspace.file(f"catalog-{repeat}.sqlite")
    engine = DecompositionEngine(catalog=catalog)
    planner = QueryEngine(algorithm="hybrid", timeout=BUDGET_S, engine=engine)
    for shape in known:
        try:
            planner.plan(shape.query, "boolean")
        except QueryError:
            pass  # refused: nothing decided, nothing stored
    engine.catalog.close()
    return order, catalog


def _eager(query, database, decomposition) -> frozenset:
    """Answers of the eager reference pipeline over a given decomposition."""
    annotated = materialise_bags(
        join_tree_from_decomposition(decomposition), database, query.edge_atom_map()
    )
    return frozenset(yannakakis(annotated, list(query.free_variables)).tuples)


def _ask(service, shape: _Shape, mode: str, answered: list) -> tuple[Op, float | None]:
    """One request; answers are kept for checking after timing."""
    op, result = query_op(service, shape.name, mode, shape.query, shape.database)
    if result is None:
        return op, None
    answered.append((op, shape, mode, result))
    return op, op.seconds - result.plan_seconds - result.execution_seconds


def _restart_pass(order, pristine, workspace, index, recorder=None):
    """One restart: copy the set-up catalog, start engine and service, ask every shape."""
    path = workspace.file(f"pass-{index}.sqlite")
    shutil.copyfile(pristine, path)
    ops, overheads, answered = [], [], []
    start = time.perf_counter()
    engine = DecompositionEngine(catalog=path)
    service = DecompositionService(engine=engine, timeout=BUDGET_S)
    try:
        for shape in order:
            for mode in MODES:
                if recorder is None:
                    op, overhead = _ask(service, shape, mode, answered)
                else:
                    with recorder.request(f"{shape.name}/{mode}"):
                        op, overhead = _ask(service, shape, mode, answered)
                ops.append(op)
                if overhead is not None:
                    overheads.append(overhead)
    finally:
        service.shutdown()
        stats = service.stats()
        engine.catalog.flush()
        entries = len(engine.catalog)
        rejects = engine.catalog.stats().validate_rejects
        engine.catalog.close()
    seconds = time.perf_counter() - start
    return {
        "ops": ops,
        "seconds": seconds,
        "overheads": overheads,
        "answered": answered,
        "stats": stats,
        "catalog": (entries, rejects, os.path.getsize(path)),
    }


def _check_answers(answered) -> None:
    """Check every answer against the eager reference, after timing.

    The reference evaluates the query with the eager pipeline over the
    planner's own decomposition, once ``validate_hd`` has accepted it: any
    valid decomposition gives the same answers, and an independent search
    would cost several budget-bound timeouts per run.
    """
    for op, shape, mode, result in answered:
        decomposition = result.planned.decomposition
        try:
            validate_hd(decomposition)
        except ReproError as error:
            op.status, op.detail = WRONG, f"planner decomposition invalid: {error}"
            continue
        if shape.reference is None:
            shape.reference = _eager(shape.query, shape.database, decomposition)
        expected = bool(shape.reference) if mode == "boolean" else len(shape.reference)
        actual = result.boolean if mode == "boolean" else result.count
        if actual != expected:
            op.status, op.detail = WRONG, f"{mode} {actual} but the eager reference gives {expected}"


def run(seed: int, seconds: float, workspace, recorder=None) -> dict:
    setup_samples, passes = [], []

    def set_up():
        start = time.perf_counter()
        built = _setup(seed, workspace, len(setup_samples))
        setup_samples.append(time.perf_counter() - start)
        return built

    # Whole restarts until ``seconds`` have passed, so every run measures
    # the same multiset of requests.  The first restarts each have their
    # own set-up (the same catalog, drawn from the seed), which spreads the
    # set-up samples over the run.
    measured = 0.0
    while not passes or (recorder is None and measured < seconds):
        if len(setup_samples) < SETUP_REPEATS:
            order, pristine = set_up()
        passes.append(_restart_pass(order, pristine, workspace, len(passes)))
        measured += passes[-1]["seconds"]
    while len(setup_samples) < SETUP_REPEATS:
        set_up()
    ops = [op for p in passes for op in p["ops"]]
    for p in passes:
        _check_answers(p["answered"])
    result = {"setup": setup_samples, "ops": ops, "seconds": measured}
    if recorder is None:
        return result

    recorder.install()
    try:
        traced = _restart_pass(order, pristine, workspace, len(passes), recorder)
    finally:
        recorder.uninstall()
    _check_answers(traced["answered"])
    untraced = passes[0]
    stats = untraced["stats"]
    entries, rejects, size = traced["catalog"]
    result["checked"] = traced["ops"]
    result["extra"] = {
        "catalog.validate_rejects": rejects,
        "catalog.bytes_per_entry": size / entries if entries else 0.0,
        "service.overhead_ms": 1000.0 * median(untraced["overheads"]),
        "service.computations": stats.computations,
        "service.coalesced": stats.coalesced,
        "service.failed": stats.failed,
        "service.worker_respawns": stats.health["process_worker_respawns"],
        "trace.overhead_ms": 1000.0
        * (traced["seconds"] - untraced["seconds"])
        / len(traced["ops"]),
        "trace.overhead_frac": traced["seconds"] / untraced["seconds"] - 1.0,
    }
    return result
