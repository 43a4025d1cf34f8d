"""Agent-based simulation and fitting of hashtag activity profiles.

Three mechanisms drive user activity on a static directed follower network:
exogenous injection of original tweets, endogenous spreading by retweets
gated on leader influence, and exponential decay of interest after the
peak. Empirical 15-day profiles are fitted by a Monte Carlo grid scan over
(lambda, eta_star, delta_t) and classified into dynamical classes.
"""

from .behavior import (ModelParams, action_probability, activeness,
                       exposure_probability, hesitancy, interest,
                       per_retweet_probability, retweet_count, retweet_gate)
from .classify import ClassBoundaries, classify_params, classify_profile
from .engine import ActivityProfile, binomial_count, run_ensemble
from .fitter import GOOD_FIT_LIMIT, FitResult, GridSpec, grid_scan
from .hashtags import HashtagCsvError, read_hashtag_csv
from .metric import DEFAULT_THETA, distance, normalize
from .network import (EdgeListError, FollowNetwork, generate_synthetic,
                      load_edge_list, network_stats, write_edge_list)

__version__ = "0.1.0"

__all__ = [
    "ActivityProfile", "ClassBoundaries", "DEFAULT_THETA", "EdgeListError",
    "FitResult", "FollowNetwork", "GOOD_FIT_LIMIT", "GridSpec",
    "HashtagCsvError", "ModelParams", "action_probability", "activeness",
    "binomial_count", "classify_params", "classify_profile", "distance",
    "exposure_probability", "generate_synthetic", "grid_scan", "hesitancy",
    "interest", "load_edge_list", "network_stats", "normalize",
    "per_retweet_probability", "read_hashtag_csv", "retweet_count",
    "retweet_gate", "run_ensemble", "write_edge_list",
]
