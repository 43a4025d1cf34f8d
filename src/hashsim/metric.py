"""Profile normalization and the masked relative distance between profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_THETA = 0.04


@dataclass(frozen=True)
class FractionProfile:
    """Per-day fractions of a count series; all zeros marks a degenerate profile."""

    fractions: np.ndarray

    @property
    def degenerate(self) -> bool:
        return not np.any(self.fractions)

    def __len__(self) -> int:
        return int(self.fractions.shape[0])


def normalize(counts) -> FractionProfile:
    """Divide a nonnegative count series by its total.

    An all-zero input yields the degenerate all-zero profile rather than an
    error, so callers can flag it explicitly.
    """
    arr = np.asarray(counts, dtype=float)
    if np.any(arr < 0):
        raise ValueError("counts must be nonnegative")
    total = arr.sum()
    fractions = np.zeros_like(arr) if total == 0 else arr / total
    fractions.flags.writeable = False
    return FractionProfile(fractions)


def check_theta(theta: float) -> None:
    """Raise ValueError unless theta is a finite threshold >= 0.

    A NaN or infinite theta masks every day away, so each distance would
    read 0 and every fit would look perfect.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if theta < 0:
        raise ValueError("theta must be >= 0")


def distance(p: FractionProfile, q: FractionProfile,
             theta: float = DEFAULT_THETA) -> float:
    """Masked relative distance between two fraction profiles.

    (1/N) * sqrt(sum over contributing days of ((P_i-Q_i)/max(P_i,Q_i))^2),
    where a day contributes only if P_i + Q_i > theta. The mask also covers
    the P_i = Q_i = 0 case for any theta >= 0. Symmetric in (p, q); bounded
    by 1/sqrt(N).
    """
    a, b = p.fractions, q.fractions
    if a.shape != b.shape:
        raise ValueError("profiles must have equal length")
    check_theta(theta)
    mask = (a + b) > theta
    if not mask.any():
        return 0.0
    diff = a[mask] - b[mask]
    top = np.maximum(a[mask], b[mask])
    return float(np.sqrt(np.sum((diff / top) ** 2)) / a.shape[0])
