"""Reliability-weight tests. The sigma(1) literal was computed with mpmath
at 50 digits; the AUC literal is the exact Fraction result 603/800."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sitepick.errors import ValidationError
from sitepick.weighting import (
    FrequencyCategory,
    frequency_weight,
    reliability_auc,
    reliability_weight,
    reliability_weights,
)


@pytest.mark.parametrize(
    "category, factor",
    [
        (FrequencyCategory.ONE_TO_THREE, 1),
        (FrequencyCategory.FOUR_TO_SIX, 2),
        (FrequencyCategory.SEVEN_TO_NINE, 3),
        (FrequencyCategory.TEN_OR_MORE, 4),
    ],
)
def test_frequency_coding(category, factor):
    assert frequency_weight(category) == factor


def test_sigmoid_anchors():
    assert reliability_weight(1, 0.0) == 0.5
    assert reliability_weight(1, 1.0) == pytest.approx(0.7310585786300049, abs=1e-15)
    assert reliability_weight(4, 240.0) == 1.0  # saturates at machine precision


def test_weight_validation():
    with pytest.raises(ValidationError):
        reliability_weight(5, 1.0)
    with pytest.raises(ValidationError):
        reliability_weight(0, 1.0)
    with pytest.raises(ValidationError):
        reliability_weight(1, -0.5)
    with pytest.raises(ValidationError):
        reliability_weight(1, float("inf"))


@given(st.integers(1, 4), st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
def test_weight_bounds(f, t):
    w = reliability_weight(f, t)
    assert 0.5 <= w <= 1.0
    if t == 0.0:
        assert w == 0.5


@given(
    st.integers(1, 4),
    st.floats(min_value=1e-6, max_value=7.0),
    st.floats(min_value=0.001, max_value=1.0),
)
def test_weight_monotone_in_product(f, t, bump):
    assert reliability_weight(f, t + bump) > reliability_weight(f, t)


def test_vectorized_matches_scalar():
    f = np.array([1, 2, 3, 4, 1, 4])
    t = np.array([0.0, 0.5, 2.0, 240.0, 30.0, 0.25])
    vector = reliability_weights(f, t)
    scalar = [reliability_weight(int(fi), float(ti)) for fi, ti in zip(f, t)]
    assert vector.tolist() == scalar


def test_auc_trivial_cases():
    assert reliability_auc([1.0, 1.0, 1.0]) == 1.0
    assert reliability_auc([0.5, 1.0]) == 0.75
    assert reliability_auc([0.62]) == 0.62


def test_auc_against_exact_fraction_oracle():
    weights = [0.52, 0.61, 0.77, 0.89, 0.97]
    assert reliability_auc(weights) == pytest.approx(float(Fraction(603, 800)), abs=1e-12)


def test_auc_validation():
    with pytest.raises(ValidationError):
        reliability_auc([])
    with pytest.raises(ValidationError):
        reliability_auc([0.5, 1.5])
    with pytest.raises(ValidationError):
        reliability_auc([-0.1])


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_auc_permutation_invariant_and_bounded(weights):
    auc = reliability_auc(weights)
    reversed_auc = reliability_auc(list(reversed(weights)))
    assert auc == reversed_auc
    assert min(weights) - 1e-12 <= auc <= max(weights) + 1e-12


def test_auc_reference_trapezoid():
    # independent re-derivation of the rule: sorted weights at x = i/(n-1)
    rng = np.random.default_rng(8)
    weights = rng.uniform(0.5, 1.0, size=17)
    ws = np.sort(weights)
    expected = float(np.trapezoid(ws, dx=1.0 / (len(ws) - 1)))
    assert reliability_auc(list(weights)) == pytest.approx(expected, abs=1e-12)


def test_overflow_safety_for_huge_products():
    # exp would overflow if the implementation evaluated e^(f*t) directly
    assert reliability_weight(4, 1e308 / 4) == 1.0
    assert math.isfinite(reliability_weight(4, 5000.0))
