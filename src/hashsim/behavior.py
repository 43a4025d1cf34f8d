"""Per-user behavioral quantities of the model.

Everything here is a pure function of its arguments: no state, no
randomness. The simulation engine applies vectorized versions of the same
expressions; these scalar forms are the readable reference and are also
used directly for small cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .network import FollowNetwork

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
        for name in ("lam", "eta_star", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.delta_t)
                and self.delta_t == int(self.delta_t)):
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


@dataclass(frozen=True)
class UserTraits:
    """Static per-user quantities derived from the graph."""

    f: int
    l: int
    activeness: float
    hesitancy: float
    influence: float

    @classmethod
    def for_user(cls, net: FollowNetwork, user: int) -> "UserTraits":
        f = int(net.follower_count[user])
        l = int(net.leader_count[user])
        return cls(
            f=f,
            l=l,
            activeness=activeness(f, l, net.f_max, net.l_max),
            hesitancy=hesitancy(l, f),
            influence=float(net.influence[user]),
        )


def activeness(f: int, l: int, f_max: int, l_max: int) -> float:
    """Propensity to be exposed to external media, in [0, 1].

    Rises with follower count, falls with leader count:
    (f/f_max) * (1 - l/(l_max + f)). When l_max + f == 0 the second factor
    is taken as 1 (f == 0 forces the result to 0 regardless).
    """
    if f_max < 1:
        raise ValueError("f_max must be >= 1 (network has no followers)")
    denom = l_max + f
    second = 1.0 if denom == 0 else 1.0 - l / denom
    return (f / f_max) * second


def hesitancy(l: int, f: int) -> float:
    """Reluctance to post: 1/(l + f + 1), in (0, 1]."""
    return 1.0 / (l + f + 1)


def interest(x: float, lam: float) -> float:
    """Interest level by days since peak: 1 on x <= 0, exp(-lam*x) after."""
    return 1.0 if x <= 0 else math.exp(-lam * x)


def exposure_probability(activeness_value: float, x: float,
                         params: ModelParams) -> float:
    """Probability of exposure to external sources: activeness * chi(x)."""
    return activeness_value * params.chi(x)


def action_probability(sigma: float, tau: float, h: float) -> float:
    """Tweet/retweet probability: clamp(sigma*tau - h, 0, 1).

    The raw value can be negative (hesitancy exceeding interest); the user
    then simply abstains.
    """
    return min(max(sigma * tau - h, 0.0), 1.0)


def exposure_mass(net: FollowNetwork, user: int,
                  recently_active_leaders) -> float:
    """Summed follower counts of the recently active leaders of `user`."""
    active = set(recently_active_leaders)
    if not active <= set(int(j) for j in net.leaders_of(user)):
        raise ValueError("recently_active_leaders must be leaders of user")
    return float(sum(int(net.follower_count[j]) for j in active))


def retweet_gate(y: float, eta_star: float, influence: float) -> bool:
    """Necessary condition for retweeting: y >= eta_star * influence.

    The extra y > 0 guard keeps leaderless users (influence == 0, hence
    y == 0) from passing vacuously.
    """
    return y > 0 and y >= eta_star * influence


def retweet_count(eta_i: int, y: float, eta_star: float,
                  influence: float) -> int:
    """Possible retweets this day, assuming the gate passed.

    floor(sqrt((eta_i/eta_star) * (y/(eta_star*influence)))), with 0 bumped
    to 1 since a retweeting user posts at least one retweet. influence == 0
    (gate passed via the y > 0 guard) also yields 1.
    """
    if influence == 0:
        return 1
    value = math.sqrt((eta_i / eta_star) * (y / (eta_star * influence)))
    return max(int(value), 1)


def per_retweet_probability(r_total: float, n: int) -> float:
    """Per-trial probability so that n trials yield >= 1 success w.p. r_total."""
    return 1.0 - (1.0 - r_total) ** (1.0 / n)
