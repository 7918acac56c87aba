"""Approximation-factor formulas and their range warnings."""

import math

import pytest

from robust_summary import bound_warnings, theoretical_bound

E = math.e
BETA_CONTINUOUS = E / (E - 1)


def test_centralized_limit_values():
    assert theoretical_bound("centralized", False, 1.0, 0.0) == 3.0
    assert theoretical_bound("centralized", True, 1.0, 0.0) == 3.0
    assert abs(theoretical_bound("centralized", True, BETA_CONTINUOUS, 0.0) - (2 + BETA_CONTINUOUS)) < 1e-12


def test_centralized_formula_transcription():
    eps, beta = 0.1, 1.0
    expected = (2 + eps) * (1 + eps) / ((1 - 2 * eps) * (1 - eps)) + beta / (1 - 2 * eps)
    assert theoretical_bound("centralized", False, beta, eps) == expected
    assert expected == pytest.approx(4.4583, abs=1e-3)


def test_streaming_nonmonotone_formula_transcription():
    eps, beta, gamma = 0.1, 1.0, 1.746
    expected = (
        (2 + gamma)
        * (gamma**2 + (beta + 2) * gamma + 1)
        / (gamma * (1 + gamma - eps * (gamma + 2)))
        * (1 + eps)
        / (1 - eps)
    )
    assert theoretical_bound("streaming", False, beta, eps) == expected


def test_streaming_monotone_formula_transcription():
    eps, beta = 0.1, 1.0
    expected = 2 * (1 + eps) / (1 - eps) ** 2 + (2 + beta) / (1 - eps)
    assert theoretical_bound("streaming", True, beta, eps) == expected
    assert theoretical_bound("streaming", True, 1.0, 0.0) == 5.0


def test_bounds_grow_with_epsilon():
    for eps_small, eps_big in [(0.01, 0.1), (0.05, 0.15)]:
        assert theoretical_bound("centralized", False, 1.0, eps_small) < theoretical_bound(
            "centralized", False, 1.0, eps_big
        )
        assert theoretical_bound("streaming", True, 1.0, eps_small) < theoretical_bound(
            "streaming", True, 1.0, eps_big
        )


def test_range_warnings():
    assert bound_warnings("centralized", 0.1) == []
    assert bound_warnings("centralized", 0.3)
    assert bound_warnings("streaming", 0.1) == []
    # inside (0, 1) but past the non-monotone formula's range: the formula
    # refuses it, and the monotone formula, which has no gamma, still holds
    assert bound_warnings("streaming", 0.95) == []
    with pytest.raises(ValueError, match="epsilon too large for the streaming bound formula"):
        theoretical_bound("streaming", False, 1.0, 0.95)
    assert theoretical_bound("streaming", True, 1.0, 0.95) > 0.0


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        theoretical_bound("centralized", False, 1.0, 0.5)
    with pytest.raises(ValueError):
        theoretical_bound("streaming", False, 1.0, 0.99)
    with pytest.raises(ValueError):
        theoretical_bound("centralized", False, 0.5, 0.1)  # beta below 1
    with pytest.raises(ValueError):
        theoretical_bound("offline", False, 1.0, 0.1)


@pytest.mark.parametrize("mode", ["centralized", "streaming"])
@pytest.mark.parametrize("monotone", [True, False])
def test_nan_beta_or_epsilon_is_refused(mode, monotone):
    # NaN once passed every guard and the bound came back nan
    with pytest.raises(ValueError, match=r"^beta must be at least 1, got nan$"):
        theoretical_bound(mode, monotone, math.nan, 0.1)
    with pytest.raises(ValueError, match=r"^epsilon must be non-negative, got nan$"):
        theoretical_bound(mode, monotone, 2.0, math.nan)
