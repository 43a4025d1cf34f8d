"""Per-user behavioral quantities of the model.

Everything here is a pure function of its arguments: no state, no
randomness. Each formula is defined once: the functions take Python scalars
or numpy arrays (broadcasting together), and the simulation engine calls
them on whole (runs, users) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MAX_DELTA_T = 7


@dataclass(frozen=True)
class ModelParams:
    """Fitted triplet (lam, eta_star, delta_t) plus fixed constants.

    lam        decay rate of interest after the peak (>= 0)
    eta_star   spreading threshold, multiple of mean leader influence (>= 1)
    delta_t    days before the peak at which injection begins (0..7)
    sigma      topic interest, fixed to 1 by default
    coverage   optional media-coverage profile chi(days-from-peak); None
               means constant 1 inside the simulated window
    """

    lam: float
    eta_star: float
    delta_t: int
    sigma: float = 1.0
    coverage: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        for name in ("lam", "eta_star", "delta_t", "sigma"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite")
        if self.delta_t != int(self.delta_t):
            raise ValueError("delta_t must be an integer")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.eta_star < 1:
            raise ValueError("eta_star must be >= 1")
        if not 0 <= int(self.delta_t) <= MAX_DELTA_T:
            raise ValueError(f"delta_t must be in [0, {MAX_DELTA_T}]")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError("sigma must be in [0, 1]")

    def chi(self, x: float) -> float:
        return 1.0 if self.coverage is None else self.coverage(x)


def activeness(f, l, f_max: int, l_max: int):
    """Propensity to be exposed to external media, in [0, 1].

    Rises with follower count, falls with leader count:
    (f/f_max) * (1 - l/(l_max + f)). When l_max + f == 0 the second factor
    is taken as 1 (f == 0 forces the result to 0 regardless).
    """
    if f_max < 1:
        raise ValueError("f_max must be >= 1 (network has no followers)")
    denom = l_max + f
    second = np.where(denom == 0, 1.0, 1.0 - l / np.maximum(denom, 1.0))
    return (f / f_max) * second


def hesitancy(l, f):
    """Reluctance to post: 1/(l + f + 1), in (0, 1]."""
    return 1.0 / (l + f + 1)


def interest(x: float, lam: float) -> float:
    """Interest level by days since peak: 1 on x <= 0, exp(-lam*x) after."""
    return 1.0 if x <= 0 else math.exp(-lam * x)


def exposure_probability(activeness_value, x: float, params: ModelParams):
    """Probability of exposure to external sources: activeness * chi(x)."""
    return activeness_value * params.chi(x)


def action_probability(sigma: float, tau: float, h):
    """Tweet/retweet probability: clamp(sigma*tau - h, 0, 1).

    The raw value can be negative (hesitancy exceeding interest); the user
    then simply abstains.
    """
    return np.clip(sigma * tau - h, 0.0, 1.0)


def gate_threshold(eta_star: float, influence):
    """The exposure y at which the retweet gate opens: eta_star * influence."""
    return eta_star * influence


def retweet_gate(y, eta_star: float, influence):
    """Necessary condition for retweeting: y >= eta_star * influence.

    The extra y > 0 guard keeps leaderless users (influence == 0, hence
    y == 0) from passing vacuously. `&` rather than `and`, so that arrays
    work elementwise and scalars still give a bool.
    """
    return (y > 0) & (y >= gate_threshold(eta_star, influence))


def gate_min(eta_star: float, influence, y_max: int):
    """The least integer y in [0, y_max] that passes retweet_gate, as int64.

    That is max(ceil(eta_star * influence), 1), or y_max + 1 where no y up
    to y_max passes (also where eta_star * influence overflows to inf).
    The cap is applied before the cast, so a huge threshold cannot wrap.
    For an integer y <= y_max below 2**53, retweet_gate(y, eta_star,
    influence) holds exactly when y >= gate_min(eta_star, influence,
    y_max): y converts to float64 exactly, and y >= x for a float x means
    y >= ceil(x).
    """
    with np.errstate(over="ignore"):  # inf is capped just below
        threshold = gate_threshold(eta_star, influence)
    least = np.minimum(np.ceil(threshold), float(y_max + 1))
    return np.maximum(least, 1.0).astype(np.int64)[()]


def gate_min_leaders(eta_star: float) -> int:
    """floor(eta_star): a user with fewer leaders never passes the gate.

    Let user i have l < floor(eta_star) leaders, whose follower counts sum
    to S, the most that its y can reach. If l = 0, y = 0 < gate_min.
    Otherwise every leader has i as a follower, so S >= l, and influence
    is fl(S / l). As l + 1 <= eta_star, eta_star * S / l >= S + S / l >=
    S + 1, and the two float64 roundings (relative error <= 2**-53 each)
    leave the computed threshold >= (S + 1)(1 - 2**-52) > S, as S + 1 <
    2**52 (S <= E, for any network that fits in memory). So gate_min,
    the threshold's ceiling or the cap E + 1, is at least S + 1 > y. The
    bound is tight: at an integer eta_star, a user whose floor(eta_star)
    leaders have equal follower counts passes once they are all recent.
    """
    return math.floor(eta_star)


def retweet_count(eta_i, y, eta_star: float, influence):
    """Possible retweets this day, assuming the gate passed.

    floor(sqrt((eta_i/eta_star) * (y/(eta_star*influence)))), with 0 bumped
    to 1 since a retweeting user posts at least one retweet. influence == 0
    (gate passed via the y > 0 guard) also yields 1. The result is int64:
    an array for array input, a scalar (`[()]`) for scalar input.

    The last passes run in place on the product. The bump comes before
    the floor: for v >= 0, floor(max(v, 1)) = max(floor(v), 1), and the
    int64 cast truncates toward 0, which is floor there.
    """
    influence = np.asarray(influence, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.asarray(np.divide(eta_i, eta_star)
                           * np.divide(y, gate_threshold(eta_star, influence)))
        np.sqrt(value, out=value)
    np.maximum(value, 1.0, out=value)
    value[influence == 0] = 1.0
    return value.astype(np.int64)[()]


def per_retweet_probability(r_total, n):
    """Per-trial probability so that n trials yield >= 1 success w.p. r_total."""
    return 1.0 - (1.0 - r_total) ** (1.0 / n)
