"""Differential tests pinning the columnar executor to the reference arms.

The plan-compiled columnar evaluation (all three answer modes) must agree
answer-for-answer with :func:`repro.query.joins.naive_join_query` — and the
eager Yannakakis pipeline — on random conjunctive queries and databases,
including empty relations, repeated variables and Boolean queries.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.width import hypertree_width
from repro.decomp.jointree import join_tree_from_decomposition
from repro.query import (
    ColumnStore,
    Database,
    Relation,
    compile_plan,
    evaluate_query,
    execute_plan,
    naive_join_query,
)
from repro.query import columnar
from repro.query.columnar import ColumnarRelation
from repro.hypergraph.cq import Atom, ConjunctiveQuery


# --------------------------------------------------------------------------- #
# strategies: random CQs with matching random databases
# --------------------------------------------------------------------------- #
_VARIABLES = [f"v{i}" for i in range(6)]


@st.composite
def _query_and_database(draw):
    num_atoms = draw(st.integers(1, 4))
    atoms = []
    for index in range(num_atoms):
        arity = draw(st.integers(1, 3))
        # Variables may repeat inside an atom (repeated-variable binding).
        arguments = tuple(
            draw(st.sampled_from(_VARIABLES)) for _ in range(arity)
        )
        atoms.append(Atom(f"rel{index}", arguments))
    variables = sorted({v for atom in atoms for v in atom.arguments})
    # Output may be empty (Boolean query) or any subset of the variables.
    free = tuple(draw(st.lists(st.sampled_from(variables), unique=True, max_size=3)))
    query = ConjunctiveQuery(tuple(atoms), free)

    database = Database()
    for atom in atoms:
        schema = [f"a{i}" for i in range(len(atom.arguments))]
        # Relations may be empty.
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(0, 3) for _ in atom.arguments]), max_size=10
            )
        )
        database.add(Relation(atom.relation, schema, rows))
    return query, database


@given(_query_and_database())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_columnar_modes_agree_with_naive_join(case):
    query, database = case
    naive = naive_join_query(database, query.atoms, query.free_variables)
    width, decomposition = hypertree_width(query.hypergraph(), max_width=4)
    assert width is not None, "tiny random queries must decompose within width 4"
    tree = join_tree_from_decomposition(decomposition)
    tree.validate()
    store = ColumnStore(database)
    for mode in ("enumerate", "boolean", "count"):
        plan = compile_plan(query, tree, mode)
        result = execute_plan(plan, database, store)
        assert result.boolean == (len(naive) > 0), mode
        if mode == "enumerate":
            assert result.answers.as_dicts() == naive.as_dicts()
            assert result.count == len(naive)
        elif mode == "count":
            assert result.count == len(naive)


@given(_query_and_database())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_columnar_and_eager_evaluate_query_agree(case):
    query, database = case
    columnar = evaluate_query(query, database, executor="columnar")
    eager = evaluate_query(query, database, executor="eager")
    assert columnar.answers.as_dicts() == eager.answers.as_dicts()
    assert columnar.count == len(eager.answers)


@pytest.mark.skipif(columnar._np is None, reason="numpy is not installed")
@given(_query_and_database())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_numpy_and_pure_python_paths_agree(case):
    # The numpy fast path is what users with numpy installed hit; the same
    # plans must answer identically with it and without it.
    query, database = case
    _width, decomposition = hypertree_width(query.hypergraph(), max_width=4)
    tree = join_tree_from_decomposition(decomposition)
    plans = [compile_plan(query, tree, mode) for mode in ("enumerate", "boolean", "count")]

    def run():
        store = ColumnStore(database)  # fresh: no columns cached by the other arm
        outcomes = []
        for plan in plans:
            result = execute_plan(plan, database, store)
            answers = result.answers
            outcomes.append(
                (
                    None if answers is None else (answers.schema, answers.as_dicts()),
                    result.boolean,
                    result.count,
                )
            )
        return outcomes

    with_numpy = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "_np", None)
        pure = run()
    assert with_numpy == pure


# --------------------------------------------------------------------------- #
# directed edge cases
# --------------------------------------------------------------------------- #
def _run_all_modes(query, database):
    naive = naive_join_query(database, query.atoms, query.free_variables)
    results = {}
    for mode in ("enumerate", "boolean", "count"):
        report = evaluate_query(query, database, mode=mode)
        results[mode] = report
        assert report.boolean_answer == (len(naive) > 0), mode
    assert results["enumerate"].answers.as_dicts() == naive.as_dicts()
    assert results["count"].count == len(naive)
    return results


def test_empty_relation_early_exit():
    query = ConjunctiveQuery(
        (Atom("r", ("x", "y")), Atom("s", ("y", "z"))), ("x",)
    )
    database = Database(
        [Relation("r", ["a0", "a1"], []), Relation("s", ["a0", "a1"], [(1, 2)])]
    )
    results = _run_all_modes(query, database)
    assert len(results["enumerate"].answers) == 0


def test_repeated_variables_inside_atoms():
    query = ConjunctiveQuery(
        (Atom("r", ("x", "x", "y")), Atom("s", ("y", "y"))), ("x", "y")
    )
    database = Database(
        [
            Relation("r", ["a0", "a1", "a2"], [(1, 1, 2), (1, 2, 2), (3, 3, 3)]),
            Relation("s", ["a0", "a1"], [(2, 2), (3, 1), (3, 3)]),
        ]
    )
    results = _run_all_modes(query, database)
    assert results["enumerate"].answers.as_dicts() == {
        frozenset({("x", 1), ("y", 2)}),
        frozenset({("x", 3), ("y", 3)}),
    }


def test_boolean_query_positive_and_negative():
    query = ConjunctiveQuery((Atom("r", ("x", "y")), Atom("s", ("y", "x"))), ())
    positive = Database(
        [Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], [(2, 1)])]
    )
    negative = Database(
        [Relation("r", ["a0", "a1"], [(1, 2)]), Relation("s", ["a0", "a1"], [(1, 2)])]
    )
    assert _run_all_modes(query, positive)["boolean"].boolean_answer is True
    assert _run_all_modes(query, negative)["boolean"].boolean_answer is False


def test_boolean_mode_skips_join_work():
    query = ConjunctiveQuery(
        (Atom("r", ("x", "y")), Atom("s", ("y", "z")), Atom("t", ("z", "x"))), ()
    )
    database = Database(
        [
            Relation("r", ["a0", "a1"], [(i, i + 1) for i in range(5)]),
            Relation("s", ["a0", "a1"], [(i, i + 1) for i in range(5)]),
            Relation("t", ["a0", "a1"], []),
        ]
    )
    report = evaluate_query(query, database, mode="boolean")
    assert report.boolean_answer is False
    assert report.plan is not None and report.plan.top_down == ()


# --------------------------------------------------------------------------- #
# columnar substrate units
# --------------------------------------------------------------------------- #
def test_zero_ary_relation_round_trip():
    nonempty = ColumnarRelation.from_rows((), {()})
    empty = ColumnarRelation.from_rows((), set())
    assert nonempty.nrows == 1 and list(nonempty.rows()) == [()]
    assert empty.nrows == 0 and list(empty.rows()) == []


def test_index_cache_counts_reuse():
    table = ColumnarRelation.from_rows(("a", "b"), {(1, 2), (1, 3), (2, 3)})
    from repro.query.columnar import ExecutionStatistics

    stats = ExecutionStatistics()
    first = table.index_on(("a",), stats)
    second = table.index_on(("a",), stats)
    assert first is second
    assert stats.indexes_built == 1 and stats.indexes_reused == 1
    assert sorted(first) == [1, 2] and sorted(first[1]) == sorted(
        [i for i, key in enumerate(table.column("a")) if key == 1]
    )


def test_atom_tables_are_schema_specific_but_share_columns():
    # Regression: r(x,y) and r(y,z) must not share one schema-bound table.
    database = Database([Relation("r", ["a0", "a1"], [(1, 2), (2, 3)])])
    store = ColumnStore(database)
    from repro.query.plan import AtomBinding

    t_xy = store.atom_table(AtomBinding("r", "r", ("x", "y"), ("x", "y")))
    t_yz = store.atom_table(AtomBinding("r#1", "r", ("y", "z"), ("y", "z")))
    assert t_xy.schema == ("x", "y") and t_yz.schema == ("y", "z")
    assert t_xy.columns is t_yz.columns  # encoded data is shared
    assert t_xy is store.atom_table(AtomBinding("r", "r", ("x", "y"), ("x", "y")))


def test_executor_reuses_indexes_across_passes():
    # On a chain query the child/parent shared variables are identical in the
    # bottom-up pass, the top-down pass and the final join, so the executor
    # must reuse cached hash indexes instead of rebuilding them.
    query = ConjunctiveQuery(
        (Atom("r", ("x", "y")), Atom("s", ("y", "z")), Atom("t", ("z", "w"))),
        ("x", "w"),
    )
    rows = [(i, (i * 7) % 10) for i in range(10)]
    database = Database(
        [
            Relation("r", ["a0", "a1"], rows),
            Relation("s", ["a0", "a1"], rows),
            Relation("t", ["a0", "a1"], rows),
        ]
    )
    report = evaluate_query(query, database, mode="enumerate")
    naive = naive_join_query(database, query.atoms, query.free_variables)
    assert report.answers.as_dicts() == naive.as_dicts()
    width, decomposition = hypertree_width(query.hypergraph())
    tree = join_tree_from_decomposition(decomposition)
    plan = compile_plan(query, tree, "enumerate")
    result = execute_plan(plan, database)
    assert result.statistics.indexes_reused >= 1


def test_key_column_cached_per_attributes():
    table = ColumnarRelation.from_rows(("a", "b"), {(1, 2), (3, 4), (5, 6)})
    wide = table.key_column(("a", "b"))
    assert table.key_column(("a", "b")) is wide  # zipped once, then cached
    # Single-attribute keys are the stored column itself — identity-stable.
    assert table.key_column(("a",)) is table.column("a")
    assert sorted(wide) == [(1, 2), (3, 4), (5, 6)]


def test_live_keys_cache_invalidated_by_alive_changes():
    from repro.query.columnar import _NodeState

    table = ColumnarRelation.from_rows(("a", "b"), {(1, 2), (3, 4), (5, 6)})
    state = _NodeState(table)
    first = state.live_keys(("a",))
    assert first == {1, 3, 5}
    assert state.live_keys(("a",)) is first  # cached while the mask stands

    dead = table.key_masks(("a",))[3]
    state.kill(dead)
    assert state.live_count == 2
    second = state.live_keys(("a",))
    assert second == {1, 5}  # the kill invalidated the cached snapshot
    assert state.live_keys(("a",)) is second

    # Killing rows that are already dead must not invalidate the cache.
    state.kill(dead)
    assert state.live_keys(("a",)) is second


def test_store_database_mismatch_rejected():
    query = ConjunctiveQuery((Atom("r", ("x", "y")),), ("x",))
    db1 = Database([Relation("r", ["a0", "a1"], [(1, 2)])])
    db2 = Database([Relation("r", ["a0", "a1"], [(1, 2)])])
    width, decomposition = hypertree_width(query.hypergraph())
    tree = join_tree_from_decomposition(decomposition)
    plan = compile_plan(query, tree, "enumerate")
    from repro.exceptions import QueryError

    with pytest.raises(QueryError):
        execute_plan(plan, db1, ColumnStore(db2))
