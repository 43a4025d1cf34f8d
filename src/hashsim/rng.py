"""Counter-based pseudo-random numbers for reproducible simulations.

Every draw in a simulation is addressed by (run seed, user id, day index,
slot) and produced by the SplitMix64 finalizer, so results never depend on
the order in which users or days are visited, nor on parallel scheduling.
The same addressing gives bit-identical streams on every platform.
"""

from __future__ import annotations

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_INV53 = 2.0 ** -53


def as_u64(value: int) -> np.uint64:
    """Reduce a Python integer (any sign/size) to a uint64 word."""
    return np.uint64(int(value) & _U64_MASK)


def check_seeds(base_seed, runs) -> None:
    """Raise ValueError unless base_seed and runs are ints and runs >= 1.

    The runs take the seeds base_seed .. base_seed + runs - 1. A bool or
    a float, integral or not, is refused; a NumPy integer is accepted.
    """
    for name, value in (("base_seed", base_seed), ("runs", runs)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if runs < 1:
        raise ValueError("runs must be >= 1")


def mix64(x):
    """SplitMix64 finalizer. Accepts uint64 scalars or arrays.

    Note mix64(0) == 0; callers must offset inputs (e.g. by _GOLDEN) so the
    zero fixed point is never fed in directly.
    """
    with np.errstate(over="ignore"):  # uint64 wraparound is intended
        x = (x ^ (x >> np.uint64(30))) * _M1
        x = (x ^ (x >> np.uint64(27))) * _M2
        return x ^ (x >> np.uint64(31))


def stream_matrix(seeds, n_users: int) -> np.ndarray:
    """Per-(run, user) stream roots, shape (len(seeds), n_users), uint64."""
    with np.errstate(over="ignore"):
        seed_words = np.array([mix64(as_u64(s) + _GOLDEN) for s in seeds],
                              dtype=np.uint64)
    user_words = mix64(np.arange(n_users, dtype=np.uint64) + _GOLDEN)
    return mix64(seed_words[:, None] ^ user_words[None, :])


def uniforms(streams, day_index: int, slot: int):
    """Uniform variates in [0, 1) for every stream at a (day, slot) address.

    `streams` is any uint64 scalar/array from stream_matrix; the result has
    the same shape. Slots 0..15 per day are available.
    """
    with np.errstate(over="ignore"):
        key = mix64(np.uint64(day_index * 16 + slot + 1) * _GOLDEN + _GOLDEN)
    bits = mix64(streams ^ key)
    return (bits >> np.uint64(11)) * _INV53
