"""Directed leader/follower graph: loading, synthesis and static per-user stats.

Node ids are compacted to 0..N-1 at load time so the hot simulation loops can
use plain array indexing; the original ids are kept for reporting.
"""

from __future__ import annotations

import io
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Edge semantics for a line "a b" in an edge-list file.
DIRECTION_FOLLOWS = "follows"          # a follows b (b is a leader of a)
DIRECTION_FOLLOWED_BY = "followed-by"  # b follows a

_RANDOM_BLOCK_ROWS = 2048  # fixed so generation is deterministic per seed
_MAX_NODE_ID = int(np.iinfo(np.int64).max)
# ASCII line breaks of str.splitlines that np.loadtxt does not honour
_EXTRA_LINE_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


class EdgeListError(ValueError):
    """Malformed or empty edge-list input."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class FollowNetwork:
    """Immutable directed follower graph in leader-CSR form.

    leader_ids[leader_indptr[i]:leader_indptr[i+1]] lists the leaders of user
    i (the users i follows), so leader_count[i] is L_i and follower_count[i]
    is F_i. edge_follower is the CSR row index expanded per edge (the i for
    each entry of leader_ids). influence[i] is the mean follower count of
    i's leaders, 0 when i has no leaders.
    """

    user_count: int
    leader_indptr: np.ndarray
    leader_ids: np.ndarray
    edge_follower: np.ndarray
    follower_count: np.ndarray
    leader_count: np.ndarray
    f_max: int
    l_max: int
    influence: np.ndarray
    original_ids: np.ndarray

    @classmethod
    def from_edges(cls, followers, leaders, user_count, original_ids=None):
        """Build a network from parallel (follower, leader) id arrays.

        Self-loops are dropped and duplicate edges collapsed. Ids must
        already be compact in [0, user_count).
        """
        if user_count < 1:
            raise EdgeListError("graph must have at least one node")
        followers = np.asarray(followers, dtype=np.int64)
        leaders = np.asarray(leaders, dtype=np.int64)
        keep = followers != leaders
        followers, leaders = followers[keep], leaders[keep]
        # unique (follower, leader) pairs, sorted by follower then leader
        key = followers * np.int64(user_count) + leaders
        key.sort()
        key = key[_run_starts(key)]
        followers = key // user_count
        leaders = key % user_count

        leader_count = np.bincount(followers, minlength=user_count)
        follower_count = np.bincount(leaders, minlength=user_count)
        indptr = np.concatenate(([0], np.cumsum(leader_count)))
        inf_sum = np.bincount(followers,
                              weights=follower_count[leaders].astype(float),
                              minlength=user_count)
        influence = np.where(leader_count > 0,
                             inf_sum / np.maximum(leader_count, 1), 0.0)
        if original_ids is None:
            original_ids = np.arange(user_count, dtype=np.int64)
        else:
            original_ids = np.asarray(original_ids, dtype=np.int64)

        arrays = (indptr, leaders, followers, follower_count, leader_count,
                  influence, original_ids)
        for a in arrays:
            a.flags.writeable = False
        return cls(
            user_count=int(user_count),
            leader_indptr=indptr,
            leader_ids=leaders,
            edge_follower=followers,
            follower_count=follower_count,
            leader_count=leader_count,
            f_max=int(follower_count.max()),
            l_max=int(leader_count.max()),
            influence=influence,
            original_ids=original_ids,
        )

    @property
    def edge_count(self) -> int:
        return int(self.leader_ids.shape[0])

    @cached_property
    def follower_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Follower CSR (indptr, ids), the transpose of the leader CSR.

        ids[indptr[j]:indptr[j+1]] lists the followers of user j in
        ascending order. Built on first use and kept, so loading a network
        does not pay for it.
        """
        # (leader, follower) keys are unique, so any sort orders them fully
        order = np.argsort(self.leader_ids * np.int64(self.user_count)
                           + self.edge_follower)
        indptr = np.concatenate(([0], np.cumsum(self.follower_count)))
        ids = self.edge_follower[order]
        indptr.flags.writeable = False
        ids.flags.writeable = False
        return indptr, ids

    def leaders_of(self, user: int) -> np.ndarray:
        lo, hi = self.leader_indptr[user], self.leader_indptr[user + 1]
        return self.leader_ids[lo:hi]


def load_edge_list(source, direction: str = DIRECTION_FOLLOWS) -> FollowNetwork:
    """Parse a whitespace-separated edge list into a FollowNetwork.

    `source` may be a path or an open text/binary stream. Each line holds two
    node ids; blank lines and lines whose first non-blank character is '#'
    are skipped. Node ids are arbitrary integers in [0, 2^63) and get
    compacted to 0..N-1 in ascending id order (original ids retained).
    """
    if direction not in (DIRECTION_FOLLOWS, DIRECTION_FOLLOWED_BY):
        raise ValueError(f"unknown direction {direction!r}")
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(os.fspath(source), "rb") as fh:
            raw = fh.read()

    pairs = _parse_canonical(raw)
    if pairs is None:
        text = raw if isinstance(raw, str) else raw.decode("utf-8")
        pairs = _parse_lines(text)
    a_compact, b_compact, ids = _compact_ids(*pairs)
    if direction == DIRECTION_FOLLOWS:
        followers, leaders = a_compact, b_compact
    else:
        followers, leaders = b_compact, a_compact
    return FollowNetwork.from_edges(followers, leaders, len(ids),
                                    original_ids=ids)


def _parse_canonical(raw):
    """Parse canonical edge-list input in numpy; None sends it to _parse_lines.

    Canonical input is ASCII, holds none of _EXTRA_LINE_BREAKS, and has '#'
    only as the first non-blank byte of a line, with no lone '\\r' later in
    that line. On it np.loadtxt splits lines, fields and comments as the
    line loop does, so its result is kept when no warning was raised and it
    has at least one row, two columns and no negative id. Any other input,
    malformed input included, goes to _parse_lines, which alone reports
    errors with line numbers.
    """
    if not raw.isascii():
        return None
    data = raw.encode("ascii") if isinstance(raw, str) else raw
    if any(brk in data for brk in _EXTRA_LINE_BREAKS):
        return None
    pos = data.find(b"#")
    while pos >= 0:
        start = pos
        while start and data[start - 1] in b" \t":
            start -= 1
        if start and data[start - 1] not in b"\n\r":
            return None  # a '#' after an id
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        if data.find(b"\r", pos, end - 1) >= 0:
            return None  # str.splitlines ends this comment early
        pos = data.find(b"#", end)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. the no-data warning
        try:
            pairs = np.loadtxt(io.BytesIO(data), dtype=np.int64,
                               comments="#", ndmin=2)
        except (ValueError, Warning):
            return None
    if pairs.shape[0] < 1 or pairs.shape[1] != 2 or pairs.min() < 0:
        return None
    return pairs[:, 0], pairs[:, 1]


def _parse_lines(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-line parse of edge-list text into (a, b) int64 id arrays.

    Accepts what int() accepts for an id (also '+5', '1_000' and non-ASCII
    digits) and raises EdgeListError, with the line number where there is
    one, on malformed input.
    """
    a_ids, b_ids = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise EdgeListError(
                f"line {lineno}: expected two node ids, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(
                f"line {lineno}: non-integer node id in {line!r}",
                lineno) from None
        if a < 0 or b < 0:
            raise EdgeListError(f"line {lineno}: negative node id", lineno)
        a_ids.append(a)
        b_ids.append(b)
    if not a_ids:
        raise EdgeListError("edge list contains no edges")

    try:
        return (np.asarray(a_ids, dtype=np.int64),
                np.asarray(b_ids, dtype=np.int64))
    except OverflowError:
        # a rare input error, so it is located in a second pass rather than
        # checked on every line of the loop above
        for lineno, line in enumerate(text.splitlines(), start=1):
            parts = line.split()
            if (parts and not parts[0].startswith("#")
                    and max(map(int, parts)) > _MAX_NODE_ID):
                raise EdgeListError(
                    f"line {lineno}: node id above {_MAX_NODE_ID}",
                    lineno) from None
        raise


def _compact_ids(a_ids, b_ids):
    """Map ids to 0..N-1 in ascending id order with one sort.

    Returns (a_compact, b_compact, ids), where ids is the sorted array of
    distinct ids, so ids[a_compact] == a_ids. When the id range leaves room
    for the p bits of a position, the sort is an in-place np.sort of the
    keys ((id - min) << p) | position, several times faster than an
    argsort; wider ranges (e.g. Snowflake-sized ids) take the argsort.
    """
    ids = np.concatenate((a_ids, b_ids))
    p = (ids.size - 1).bit_length()
    lowest = ids.min()
    if (int(ids.max()) - int(lowest)).bit_length() <= 63 - p:
        ids -= lowest
        ids <<= p
        ids |= np.arange(ids.size)
        ids.sort()
        order = ids & ((1 << p) - 1)
        ids >>= p
        ids += lowest
    else:
        order = np.argsort(ids)
        ids = ids[order]
    first = _run_starts(ids)
    compact = np.empty(ids.size, dtype=np.int64)
    compact[order] = np.cumsum(first, dtype=np.int64) - 1
    m = len(a_ids)
    return compact[:m], compact[m:], ids[first]


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    first = np.empty(sorted_values.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def write_edge_list(net: FollowNetwork, dest) -> None:
    """Write the network as edge-list text ("i j" means i follows j)."""
    orig = net.original_ids
    lines = [f"{orig[f]} {orig[l]}"
             for f, l in zip(net.edge_follower, net.leader_ids)]
    payload = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(dest, "write"):
        dest.write(payload)
    else:
        with open(os.fspath(dest), "w", encoding="utf-8") as fh:
            fh.write(payload)


def network_stats(net: FollowNetwork) -> dict:
    """Node and edge counts, degree maxima and mean out-degree, in the key
    order that `hashsim stats` prints."""
    return {
        "nodes": net.user_count,
        "edges": net.edge_count,
        "f_max": net.f_max,
        "l_max": net.l_max,
        "mean_out_degree": net.edge_count / net.user_count,
    }


def generate_synthetic(kind: str, n: int, edge_prob: float | None = None,
                       seed: int = 0) -> FollowNetwork:
    """Deterministic synthetic networks for fixtures and experiments.

    kind="star": users 1..n-1 each follow user 0.
    kind="uniform-random": every ordered pair (i, j), i != j, is an edge
    with probability edge_prob, drawn from numpy's seeded PCG64 stream in
    fixed-size row blocks (so results depend only on seed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "star":
        followers = np.arange(1, n, dtype=np.int64)
        leaders = np.zeros(max(n - 1, 0), dtype=np.int64)
    elif kind == "uniform-random":
        if edge_prob is None or not 0.0 <= edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0, 1]")
        rng = np.random.default_rng(seed)
        rows, cols = [], []
        for start in range(0, n, _RANDOM_BLOCK_ROWS):
            stop = min(start + _RANDOM_BLOCK_ROWS, n)
            block = rng.random((stop - start, n)) < edge_prob
            r, c = np.nonzero(block)
            rows.append(r + start)
            cols.append(c)
        followers = np.concatenate(rows) if rows else np.empty(0, np.int64)
        leaders = np.concatenate(cols) if cols else np.empty(0, np.int64)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    return FollowNetwork.from_edges(followers, leaders, n)
