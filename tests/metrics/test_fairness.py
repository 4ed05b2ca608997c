"""Jain fairness index and the QUICbench-style competition helpers."""

import pytest
from hypothesis import example, given, strategies as st

from repro.metrics.fairness import (
    beats_relation,
    jain_index,
    throughput_ratio_matrix,
    transitivity_violations,
)


def test_equal_allocation_is_one():
    assert jain_index([10, 10, 10]) == pytest.approx(1.0)


def test_single_hog_is_one_over_n():
    assert jain_index([40, 0, 0, 0]) == pytest.approx(0.25)


def test_two_to_one_split():
    assert jain_index([20, 10]) == pytest.approx(0.9)


def test_all_zero_is_fair():
    assert jain_index([0, 0]) == 1.0


def test_empty_rejected():
    with pytest.raises(ValueError):
        jain_index([])


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=20))
@example([1.26e-161, 1.26e-161])  # squares underflow without scaling
def test_bounds(values):
    idx = jain_index(values)
    assert 1 / len(values) - 1e-9 <= idx <= 1 + 1e-9


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=20),
       st.floats(min_value=0.1, max_value=100))
def test_scale_invariance(values, factor):
    assert jain_index(values) == pytest.approx(jain_index([v * factor for v in values]))


def test_ratio_matrix_diagonal_and_reciprocal():
    matrix = throughput_ratio_matrix({"a": 20.0, "b": 10.0})
    assert matrix["a"]["a"] == pytest.approx(1.0)
    assert matrix["a"]["b"] == pytest.approx(2.0)
    assert matrix["b"]["a"] == pytest.approx(0.5)


def test_ratio_matrix_zero_denominator():
    matrix = throughput_ratio_matrix({"a": 5.0, "b": 0.0})
    assert matrix["a"]["b"] == float("inf")
    assert matrix["b"]["b"] == 1.0
    assert matrix["b"]["a"] == 0.0


def test_beats_requires_margin():
    head_to_head = {("a", "b"): (10.4, 10.0), ("a", "c"): (12.0, 10.0)}
    relation = beats_relation(head_to_head, margin=0.05)
    assert ("a", "b") not in relation  # 4% win is inside the noise band
    assert ("a", "c") in relation


def test_beats_implies_reverse_entry():
    relation = beats_relation({("a", "b"): (10.0, 20.0)})
    assert relation == {("b", "a")}


def test_beats_rejects_negative_margin():
    with pytest.raises(ValueError):
        beats_relation({}, margin=-0.1)


def test_transitive_relation_has_no_violations():
    relation = {("a", "b"), ("b", "c"), ("a", "c")}
    assert transitivity_violations(relation) == []


def test_rock_paper_scissors_is_intransitive():
    relation = {("a", "b"), ("b", "c"), ("c", "a")}
    violations = transitivity_violations(relation)
    assert ("a", "b", "c") in violations
    assert ("b", "c", "a") in violations
    assert ("c", "a", "b") in violations


def test_missing_edge_is_a_violation():
    # a beats b, b beats c, but the a-c duel was a tie: no consistent order.
    relation = {("a", "b"), ("b", "c")}
    assert transitivity_violations(relation) == [("a", "b", "c")]
