"""Class labels for hashtag dynamics, from fitted parameters or profile shape.

Majors: A (activity after the peak), B (before), P (on the peak day),
S (spread before, on and after). A, B and P split into high/low spreading
threshold subclusters; serialized as "A+", "A-", ..., with bare "S".
"""

from __future__ import annotations

from dataclasses import dataclass

from .behavior import ModelParams
from .engine import N_DAYS, PEAK_INDEX
from .metric import FractionProfile

SUB_HIGH = "high-eta"
SUB_LOW = "low-eta"
SUB_NONE = "none"

MAJORS = ("A", "B", "P", "S")


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


@dataclass(frozen=True)
class ClassLabel:
    major: str
    sub: str = SUB_NONE

    def __post_init__(self):
        if self.major not in MAJORS:
            raise ValueError(f"unknown major class {self.major!r}")
        if self.major == "S":
            if self.sub != SUB_NONE:
                raise ValueError("class S has no subcluster")
        elif self.sub not in (SUB_HIGH, SUB_LOW):
            raise ValueError(f"class {self.major} needs a high/low subcluster")

    def __str__(self) -> str:
        if self.major == "S":
            return "S"
        return self.major + ("+" if self.sub == SUB_HIGH else "-")


def classify_params(lam: float, eta_star: float, delta_t: int,
                    boundaries: ClassBoundaries | None = None) -> ClassLabel:
    """Seven-way label from fitted (lam, eta_star, delta_t).

    Raises ValueError for a triplet that ModelParams rejects.
    """
    b = boundaries or ClassBoundaries()
    ModelParams(lam=lam, eta_star=eta_star, delta_t=delta_t)
    sub = SUB_HIGH if eta_star >= b.eta_split else SUB_LOW
    anticipated = delta_t >= b.dt_anticipated
    if lam < b.lambda_split and eta_star < b.eta_split and anticipated:
        return ClassLabel("S")
    if lam >= b.lambda_split and not anticipated:
        return ClassLabel("P", sub)
    if anticipated:
        return ClassLabel("B", sub)
    return ClassLabel("A", sub)


def classify_profile(p: FractionProfile,
                     boundaries: ClassBoundaries | None = None) -> str:
    """Major class from profile shape alone (independent of any fit).

    Uses the mass before / on / after the peak day: P if the peak day holds
    at least peak_frac of the mass; A or B if one side holds at least
    side_frac while the other stays below it; S otherwise.
    """
    b = boundaries or ClassBoundaries()
    if p.degenerate:
        raise ValueError("cannot classify a degenerate (all-zero) profile")
    if len(p) != N_DAYS:
        raise ValueError(f"profile must cover the {N_DAYS}-day window")
    fr = p.fractions
    before, peak = fr[:PEAK_INDEX].sum(), fr[PEAK_INDEX]
    after = fr[PEAK_INDEX + 1:].sum()
    if peak >= b.peak_frac:
        return "P"
    if after >= b.side_frac and before < b.side_frac:
        return "A"
    if before >= b.side_frac and after < b.side_frac:
        return "B"
    return "S"
