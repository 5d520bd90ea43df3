"""``query-mix``: warm, repeated query serving on the process backend.

``DecompositionService(backend="process", workers=nproc)`` serves one
closed-loop client.  The request stream is made of whole rounds;
a round asks every (database, mode, executor) key once, in a seeded order:

* seven in-memory shapes — the four ``bench_query`` templates and three
  hw-2 corpus application shapes, over one to three databases each — in
  boolean, count and enumerate mode on the columnar executor;
* two shapes in all three modes on ``executor="sql"`` against on-disk
  SQLite files written by ``dump_database`` in set-up, each larger than
  the 256 KiB in-memory budget (a fixed share of 6 in 51 requests).

Set-up serves every key once, so each plan is cached on its affinity slot
and every column store is built before timing starts.  Then the search
does no work: the columnar bag/semijoin/join/dedupe path, the SQL arm and
the answer codec across the pipe do nearly all of it.

The seed draws the databases and the order of each round.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import time
from contextlib import nullcontext

from repro.bench.corpus import generate_corpus
from repro.core import codec
from repro.exceptions import QueryError, ReproError, TimeoutExceeded
from repro.hypergraph.cq import Atom, ConjunctiveQuery, parse_conjunctive_query
from repro.pipeline.engine import DecompositionEngine
from repro.query import QueryEngine, dump_database, evaluate_query, random_database_for_query
from repro.service import DecompositionService

from harness import ERROR, MODES, OK, REFUSED, TIMEOUT, WRONG, Op, median

TEMPLATES = {
    "chain": "ans(x, w) :- r(x,y), s(y,z), t(z,w).",
    "triangle": "ans(x) :- r(x,y), s(y,z), t(z,x).",
    "star": "ans(c) :- a(c,x), b(c,y), d(c,z).",
    "cycle4tail": "ans(x, p) :- r(x,y), s(y,z), t(z,w), u(w,x), v(x,p).",
}
#: (shape, domain size, tuples per relation, databases).  Enumerate answers
#: span about 25 (app-triangles-1) to 2.6e4 rows (chain); every database fits
#: in memory.  Requests are routed to a worker by a hash that includes the
#: database, so the heavy chain work is spread over several databases: many
#: keys of moderate weight keep the per-worker load alike from run to run.
#: Two databases per light shape keep the median request inside the light
#: cluster instead of on the edge between light and heavy requests.
COLUMNAR = (
    ("chain", 400, 1700, 3),
    ("triangle", 200, 2000, 2),
    ("star", 300, 1500, 2),
    ("cycle4tail", 300, 1500, 2),
    ("app-cycle-1", 60, 200, 2),
    ("app-triangles-1", 50, 200, 2),
    ("app-cycle-m-0", 40, 120, 2),
)
#: On-disk shapes for ``executor="sql"``: each file is about 300 KiB, and
#: enumerate answers about 8e3 (chain) and 2.6e3 rows (star).
SQL = (
    ("chain", 8000, 8000),
    ("star", 4000, 8000),
)
#: The in-memory budget the on-disk files must exceed (as in bench_query.py).
MEMORY_BUDGET_BYTES = 256 * 1024
#: Each epoch sets up a fresh service and measures a third of the run.  The
#: worker a request goes to hashes the database's identity, so the split of
#: load between workers is drawn anew by every service; measuring several
#: services averages it out.  The epochs' set-ups are the set-up repeats.
#:
#: One client, not nproc: with concurrent clients a light request's latency
#: hung on whether the split had put it on the same worker as another
#: client's heavy request, and ``p50_ms`` spread about twice as far over
#: runs of the same code as with one client.
EPOCHS = 3
WAIT_S = 120.0


def corpus_query(instance) -> ConjunctiveQuery:
    """A corpus instance read as a CQ: one atom per edge, first two variables free."""
    atoms = tuple(
        Atom(name, tuple(sorted(vertices)))
        for name, vertices in sorted(instance.hypergraph.edges_as_dict().items())
    )
    variables = sorted({v for atom in atoms for v in atom.arguments})
    return ConjunctiveQuery(atoms, tuple(variables[:2]), name=instance.name)


class _Key:
    """One (shape, mode, executor) request and its reference answer."""

    __slots__ = ("shape", "mode", "executor", "query", "database", "staging", "reference")

    def __init__(self, shape, mode, executor, query, database, staging) -> None:
        self.shape, self.mode, self.executor = shape, mode, executor
        self.query, self.database, self.staging = query, database, staging
        self.reference = None

    @property
    def label(self) -> str:
        return f"{self.shape}/{self.executor}"


def _queries() -> dict[str, ConjunctiveQuery]:
    queries = {name: parse_conjunctive_query(text, name=name) for name, text in TEMPLATES.items()}
    corpus = {instance.name: instance for instance in generate_corpus("small")}
    for shape, *_sizes in COLUMNAR:
        if shape not in queries:
            queries[shape] = corpus_query(corpus[shape])
    return queries


def _setup(seed: int, workspace, epoch: int):
    # Start the workers first: they fork from the parent, so they do not
    # carry copies of the databases generated below.
    service = DecompositionService(backend="process", workers=os.cpu_count() or 1)
    try:
        return _load(seed, workspace, epoch, service), service
    except BaseException:
        service.shutdown()
        raise


def _load(seed: int, workspace, epoch: int, service) -> list[_Key]:
    """Generate the seeded databases and serve every key once."""
    rng = random.Random(seed)
    queries = _queries()
    keys = []
    for shape, domain, tuples, copies in COLUMNAR:
        for copy in range(copies):
            database = random_database_for_query(
                queries[shape], domain_size=domain, tuples_per_relation=tuples, seed=rng.randrange(2**31)
            )
            name = f"{shape}#{copy}" if copies > 1 else shape
            keys += [_Key(name, mode, "columnar", queries[shape], database, database) for mode in MODES]
    for shape, domain, tuples in SQL:
        staging = random_database_for_query(
            queries[shape], domain_size=domain, tuples_per_relation=tuples, seed=rng.randrange(2**31)
        )
        path = workspace.file(f"{shape}-{epoch}.sqlite")
        on_disk = dump_database(staging, path)
        if os.path.getsize(path) <= MEMORY_BUDGET_BYTES:
            raise RuntimeError(f"{path.name} does not exceed the in-memory budget")
        keys += [_Key(shape, mode, "sql", queries[shape], on_disk, staging) for mode in MODES]
    tickets = [
        service.submit_query(key.query, key.database, key.mode, executor=key.executor)
        for key in keys
    ]
    for ticket in tickets:
        ticket.result(timeout=WAIT_S)
    return keys


def _reference(keys, answers: dict) -> None:
    """The eager arm's answers, computed once per database before timing.

    Every epoch draws the same databases from the seed, so ``answers``
    (keyed by shape and executor) carries over from the first epoch.
    """
    for key in keys:
        if key.label not in answers:
            answers[key.label] = evaluate_query(key.query, key.staging, executor="eager").answers
        key.reference = answers[key.label]


def _same_rows(answers, reference) -> bool:
    if answers is None:
        return False
    if answers.schema == reference.schema:
        return answers.tuples == reference.tuples
    order = [answers.schema.index(a) for a in reference.schema]
    return {tuple(row[i] for i in order) for row in answers.tuples} == reference.tuples


def _check(key: _Key, answer) -> str:
    """Compare a served answer with the eager reference; returns ``""`` when right."""
    reference = key.reference
    if key.mode == "boolean":
        ok = answer.boolean == bool(reference.tuples)
    elif key.mode == "count":
        ok = answer.count == len(reference.tuples)
    else:
        ok = _same_rows(answer.answers, reference)
    return "" if ok else f"answer differs from the eager reference ({len(reference)} rows)"


def query_op(service, label: str, mode: str, query, database, executor: str = "columnar"):
    """One query through the service, timed from submit to result.

    Returns the op (``ok``, or how the request failed) and the service's
    result, which is ``None`` when the request failed.
    """
    start = time.perf_counter()
    try:
        result = service.submit_query(query, database, mode, executor=executor).result(
            timeout=WAIT_S
        )
    except QueryError as error:
        status, detail, result = REFUSED, str(error), None
    except TimeoutExceeded as error:
        status, detail, result = TIMEOUT, str(error), None
    except ReproError as error:
        status, detail, result = ERROR, repr(error), None
    else:
        status, detail = OK, ""
    return Op(label, mode, time.perf_counter() - start, status, detail), result


def _serve(service, key: _Key) -> tuple[Op, float | None]:
    """One checked request; returns the op and its service overhead."""
    op, answer = query_op(service, key.label, key.mode, key.query, key.database, key.executor)
    if answer is None:
        return op, None
    problem = _check(key, answer)
    if problem:
        op.status, op.detail = WRONG, problem
        return op, None
    return op, op.seconds - answer.plan_seconds - answer.execution_seconds


def _measure(service, keys, rng, seconds: float):
    """Closed loop, one client: whole seeded rounds until ``seconds`` have passed."""
    ops: list[Op] = []
    overheads: list[float] = []
    first_round = rng.sample(keys, len(keys))
    round_ = first_round
    start = time.perf_counter()
    while True:
        for key in round_:
            op, overhead = _serve(service, key)
            ops.append(op)
            if overhead is not None:
                overheads.append(overhead)
        if time.perf_counter() - start >= seconds:
            return ops, time.perf_counter() - start, overheads, first_round
        round_ = rng.sample(keys, len(keys))


def _replay(keys, engine, recorder=None) -> float:
    """Serve ``keys`` in-process, encoding and decoding through the wire codec.

    The process backend's workers are invisible from the parent, so the
    traced run replays the stream here: the same query-engine call a
    worker makes, and the codec functions on the real requests and answers.
    """
    start = time.perf_counter()
    for index, key in enumerate(keys):
        if recorder is None:
            _replay_one(key, engine, lambda name: nullcontext(), None)
        else:
            with recorder.request(index):
                _replay_one(key, engine, recorder.span, recorder.counters)
    return time.perf_counter() - start


def _replay_one(key: _Key, engine, timed, counters) -> None:
    with timed("codec.request_encode"):
        request = pickle.dumps(
            codec.query_request_to_dict(
                query=key.query, mode=key.mode, database="db", timeout=None, executor=key.executor
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    with timed("codec.request_decode"):
        codec.service_request_from_dict(pickle.loads(request))
    result = engine.execute(key.query, key.database, key.mode, executor=key.executor)
    with timed("codec.answer_encode"):
        answer = pickle.dumps(
            codec.query_answer_to_dict(
                mode=key.mode,
                answers=result.answers,
                boolean=result.boolean,
                count=result.count,
                width=result.width,
                plan_cached=result.plan_cached,
                plan_seconds=result.plan_seconds,
                execution_seconds=result.execution_seconds,
                statistics=result.execution.statistics.as_dict(),
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    with timed("codec.answer_decode"):
        codec.query_answer_from_dict(pickle.loads(answer))
    if counters is not None:
        counters["codec.requests"] += 1
        counters["codec.request_bytes"] += len(request)
        counters["codec.answer_bytes"] += len(answer)


def run(seed: int, seconds: float, workspace, recorder=None) -> dict:
    rng = random.Random(seed)
    setup_samples, ops, overheads, answers = [], [], [], {}
    measured = 0.0
    keys = first_round = None
    for epoch in range(EPOCHS):
        keys = first_round = None  # the last epoch's keys stay for the replay
        gc.collect()
        start = time.perf_counter()
        keys, service = _setup(seed, workspace, epoch)
        setup_samples.append(time.perf_counter() - start)
        try:
            _reference(keys, answers)
            before = service.stats()
            epoch_ops, epoch_seconds, epoch_overheads, first_round = _measure(
                service, keys, rng, seconds / EPOCHS
            )
            after = service.stats()
        finally:
            service.shutdown()
        ops += epoch_ops
        overheads += epoch_overheads
        measured += epoch_seconds
    result = {"setup": setup_samples, "ops": ops, "seconds": measured}
    if recorder is None:
        return result

    engine = QueryEngine(engine=DecompositionEngine())
    _replay(keys, engine)  # warm plans and column stores, as the workers' are
    # Alternate untraced and traced replays so drift in host speed cancels.
    untraced = traced = 0.0
    for _ in range(2):
        gc.collect()
        untraced += _replay(first_round, engine)
        gc.collect()
        recorder.install()
        try:
            traced += _replay(first_round, engine, recorder)
        finally:
            recorder.uninstall()
    result["extra"] = {
        **_service_counters(before, after),
        "service.overhead_ms": 1000.0 * median(overheads),
        "trace.overhead_ms": 1000.0 * (traced - untraced) / (2 * len(first_round)),
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    return result


def _service_counters(before, after) -> dict[str, float]:
    """The service's own counters over the last epoch's measured phase."""
    return {
        "service.computations": after.computations - before.computations,
        "service.coalesced": after.coalesced - before.coalesced,
        "service.failed": after.failed - before.failed,
        "service.worker_respawns": after.health["process_worker_respawns"]
        - before.health["process_worker_respawns"],
    }
