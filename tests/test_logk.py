"""Unit tests for the optimised log-k-decomp (Algorithm 2)."""

from __future__ import annotations

import math

import pytest

from repro.core import LogKDecomposer
from repro.decomp import validate_hd
from repro.hypergraph import Hypergraph, generators


def test_positive_instance_produces_valid_hd(cycle10):
    result = LogKDecomposer().decompose(cycle10, 2)
    assert result.success
    assert result.decomposition.width <= 2
    validate_hd(result.decomposition)


def test_negative_instance(cycle10):
    result = LogKDecomposer().decompose(cycle10, 1)
    assert not result.success
    assert result.decomposition is None


def test_acyclic_instance_width_one(path5):
    result = LogKDecomposer().decompose(path5, 1)
    assert result.success
    validate_hd(result.decomposition)
    assert result.decomposition.width == 1


def test_width_parameter_is_an_upper_bound(cycle6):
    # Asking for k=4 must still succeed (and may use fewer edges per label).
    result = LogKDecomposer().decompose(cycle6, 4)
    assert result.success
    assert result.decomposition.width <= 4
    validate_hd(result.decomposition)


def test_every_cover_respects_k(grid23):
    result = LogKDecomposer().decompose(grid23, 2)
    assert result.success
    assert all(len(node.cover) <= 2 for node in result.decomposition.nodes())


def test_single_edge_hypergraph():
    h = Hypergraph({"only": ["a", "b"]})
    result = LogKDecomposer().decompose(h, 1)
    assert result.success
    assert len(result.decomposition) == 1


def test_small_hypergraph_base_case():
    h = Hypergraph({"a": ["x", "y"], "b": ["y", "z"]})
    result = LogKDecomposer().decompose(h, 2)
    assert result.success
    assert len(result.decomposition) == 1  # base case: <= k edges, one node


def test_disconnected_hypergraph():
    h = Hypergraph(
        {"a": ["x", "y"], "b": ["y", "x2"], "c": ["p", "q"], "d": ["q", "r"], "e": ["r", "p"]}
    )
    result = LogKDecomposer().decompose(h, 2)
    assert result.success
    validate_hd(result.decomposition)


def test_recursion_depth_is_logarithmic():
    # Theorem 4.1: the recursion depth is O(log |E|).  We allow a generous
    # constant factor but require sub-linear growth.
    for length in (8, 16, 32):
        h = generators.cycle(length)
        result = LogKDecomposer().decompose(h, 2)
        assert result.success
        bound = 3 * math.log2(length) + 4
        assert result.statistics.max_recursion_depth <= bound, (
            length,
            result.statistics.max_recursion_depth,
        )


def test_restrict_allowed_edges_flag_is_gone():
    # The flag was deprecated-and-ignored and has now been removed (see "Why
    # the allowed-edge restriction is correctness-relevant" in
    # docs/architecture.md): constructing with it must fail loudly rather
    # than silently accept a setting that never did anything.
    from repro.core import HybridDecomposer

    with pytest.raises(TypeError, match="restrict_allowed_edges"):
        LogKDecomposer(restrict_allowed_edges=False)
    with pytest.raises(TypeError, match="restrict_allowed_edges"):
        HybridDecomposer(restrict_allowed_edges=False)

    # ... and the restriction itself is, as ever, always applied.
    result = LogKDecomposer().decompose(generators.cycle(6), 2)
    assert result.success
    validate_hd(result.decomposition)


def test_optimisation_flags_do_not_change_answers(cycle6, grid23):
    variants = [
        LogKDecomposer(negative_base_case=False),
        LogKDecomposer(parent_overlap_pruning=False),
        LogKDecomposer(require_balanced=False),
    ]
    for hypergraph in (cycle6, grid23):
        reference = LogKDecomposer().decompose(hypergraph, 2).success
        for variant in variants:
            result = variant.decompose(hypergraph, 2)
            assert result.success == reference
            if result.success:
                validate_hd(result.decomposition)
        reference_negative = LogKDecomposer().decompose(hypergraph, 1).success
        for variant in variants:
            assert variant.decompose(hypergraph, 1).success == reference_negative


def test_statistics_count_labels(cycle6):
    result = LogKDecomposer().decompose(cycle6, 2)
    assert result.statistics.labels_tried > 0
    assert result.statistics.recursive_calls >= 1


def test_timeout_returns_cleanly():
    h = generators.clique(7)
    result = LogKDecomposer(timeout=0.0).decompose(h, 3)
    assert result.timed_out
    assert not result.success


def test_larger_arity_edges():
    from repro.core import DetKDecomposer

    h = Hypergraph(
        {
            "r": ["a", "b", "c"],
            "s": ["c", "d", "e"],
            "t": ["e", "f", "a"],
            "u": ["b", "d", "f"],
        }
    )
    result = LogKDecomposer().decompose(h, 2)
    reference = DetKDecomposer().decompose(h, 2)
    assert result.success == reference.success
    if result.success:
        validate_hd(result.decomposition)


@pytest.mark.parametrize("k", [2, 3])
def test_hd_exists_implies_wider_hd_exists(cycle6, k):
    assert LogKDecomposer().decompose(cycle6, k).success
