"""Class labels for hashtag dynamics, from fitted parameters or profile shape.

Majors: A (activity after the peak), B (before), P (on the peak day),
S (spread before, on and after). A, B and P split into high/low spreading
threshold subclusters, written "A+" and "A-" and so on, with bare "S".
Labels are plain strings; the major class is the first character.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .behavior import ModelParams
from .engine import N_DAYS, PEAK_INDEX


@dataclass(frozen=True)
class ClassBoundaries:
    """Splits in parameter and profile-mass space; all configurable.

    Parameter splits default to the midpoints of the scanned ranges.
    delta_t >= dt_anticipated marks an anticipated event.
    """

    lambda_split: float = 2.0
    eta_split: float = 30.0
    dt_anticipated: int = 2
    peak_frac: float = 0.60
    side_frac: float = 0.25

    def __post_init__(self):
        # written so that NaN fails each check
        if not (self.lambda_split > 0 and self.eta_split > 0):
            raise ValueError("splits must be positive")
        if not self.dt_anticipated > 0:
            raise ValueError("dt_anticipated must be positive")
        if not (0 < self.peak_frac <= 1 and 0 < self.side_frac <= 1):
            raise ValueError("mass thresholds must be in (0, 1]")


def classify_params(lam: float, eta_star: float, delta_t: int,
                    boundaries: ClassBoundaries | None = None) -> str:
    """Seven-way label string from fitted (lam, eta_star, delta_t).

    Returns "S", or a major A, B or P followed by "+" (eta_star at or above
    eta_split) or "-". Raises ValueError for a triplet that ModelParams
    rejects.
    """
    b = boundaries or ClassBoundaries()
    ModelParams(lam=lam, eta_star=eta_star, delta_t=delta_t)
    anticipated = delta_t >= b.dt_anticipated
    if lam < b.lambda_split and eta_star < b.eta_split and anticipated:
        return "S"
    major = "B" if anticipated else ("P" if lam >= b.lambda_split else "A")
    return major + ("+" if eta_star >= b.eta_split else "-")


def classify_profile(fr: np.ndarray,
                     boundaries: ClassBoundaries | None = None) -> str:
    """Major class label "A", "B", "P" or "S" from profile shape alone.

    fr is a 15-day fraction array (see metric.normalize); no fit is read.
    Uses the mass before / on / after the peak day: P if the peak day holds
    at least peak_frac of the mass; A or B if one side holds at least
    side_frac while the other stays below it; S otherwise.
    """
    b = boundaries or ClassBoundaries()
    if not np.any(fr):
        raise ValueError("cannot classify a degenerate (all-zero) profile")
    if len(fr) != N_DAYS:
        raise ValueError(f"profile must cover the {N_DAYS}-day window")
    before, peak = fr[:PEAK_INDEX].sum(), fr[PEAK_INDEX]
    after = fr[PEAK_INDEX + 1:].sum()
    if peak >= b.peak_frac:
        return "P"
    if after >= b.side_frac and before < b.side_frac:
        return "A"
    if before >= b.side_frac and after < b.side_frac:
        return "B"
    return "S"
