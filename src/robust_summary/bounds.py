"""Approximation-factor formulas, kept in their pre-simplification form.

The finite-epsilon expressions are evaluated exactly as derived, not as the
epsilon-absorbed headline constants, so bound checks at concrete epsilon are
meaningful.  All formulas degrade to 2+beta (offline), 4+beta (streaming
monotone) and the non-monotone streaming factor at the stream's swap margin
(``summary.swap_margin``) as epsilon -> 0.
"""

from __future__ import annotations

from .summary import MODES, swap_margin


def theoretical_bound(mode: str, monotone: bool, beta: float, epsilon: float) -> float:
    """Approximation factor guaranteed by a beta-approximate second phase.

    The centralized formula covers monotone and non-monotone objectives
    alike (the monotone analysis only sharpens constants as epsilon -> 0).
    epsilon = 0 is accepted to evaluate limits.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    # NaN fails every comparison, so each guard is written to refuse it
    if not beta >= 1.0:
        raise ValueError(f"beta must be at least 1, got {beta!r}")
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon!r}")

    if mode == "centralized":
        if epsilon >= 0.5:
            raise ValueError("centralized bound formula needs epsilon < 1/2")
        return (2.0 + epsilon) * (1.0 + epsilon) / ((1.0 - 2.0 * epsilon) * (1.0 - epsilon)) + beta / (
            1.0 - 2.0 * epsilon
        )

    if monotone:
        if epsilon >= 1.0:
            raise ValueError("streaming bound formula needs epsilon < 1")
        return 2.0 * (1.0 + epsilon) / (1.0 - epsilon) ** 2 + (2.0 + beta) / (1.0 - epsilon)

    g = swap_margin(False)
    denominator = g * (1.0 + g - epsilon * (g + 2.0))
    if denominator <= 0.0 or epsilon >= 1.0:
        raise ValueError("epsilon too large for the streaming bound formula")
    return (
        (2.0 + g)
        * (g * g + (beta + 2.0) * g + 1.0)
        / denominator
        * (1.0 + epsilon)
        / (1.0 - epsilon)
    )


def bound_warnings(mode: str, epsilon: float) -> list[str]:
    """Flags raised when parameters leave the proven range of the formula."""
    warnings = []
    if mode == "centralized":
        if not 0.0 < epsilon < 0.2:
            warnings.append(
                f"epsilon={epsilon!r} outside (0, 1/5): centralized guarantee not proven"
            )
    elif not 0.0 < epsilon < 1.0:
        warnings.append(f"epsilon={epsilon!r} outside (0, 1): streaming guarantee not proven")
    return warnings
