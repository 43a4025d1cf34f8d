"""Directed leader/follower graph: loading, synthesis and static per-user stats.

Node ids are compacted to 0..N-1 at load time so the hot simulation loops can
use plain array indexing; the original ids are kept for reporting. An edge
list has one parser, np.loadtxt; input that it refuses is parsed again
in halves, by the same call, only to name the first bad line.

Memory: a network keeps 8 bytes per edge (leader_ids) and 40 per user.
Its follower CSR, once built, adds 8 per user and 8 per edge whose
follower has at least the min_leaders asked for (it is kept for one
min_leaders at a time), and the exposure pull's plan 8 per edge and at
most 9 per user. A load peaks while it parses. The input is copied into
an in-memory file (shared memory, outside the process's RSS) that
np.loadtxt reads in C, and the load then keeps only that copy: the two
copies, as the write ends, are 42 bytes per line, 75 MB, on a SNAP-sized
file. Where there is no such file (not Linux), loadtxt reads the raw
input from io.BytesIO, and the input and 16 bytes per line of parsed ids
peak at 38 bytes per line, 67 MB (load_edge_list lists what each stage
holds).
"""

from __future__ import annotations

import contextlib
import io
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Edge semantics for a line "a b" in an edge-list file.
DIRECTION_FOLLOWS = "follows"          # a follows b (b is a leader of a)
DIRECTION_FOLLOWED_BY = "followed-by"  # b follows a

# generate_synthetic draws at most this many float64 uniforms (16 MiB) at once
_RANDOM_BLOCK_DRAWS = 1 << 21
# write_edge_list formats this many rows at a time
_WRITE_ROWS = 1 << 12


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
    is F_i. influence[i] is the mean follower count of i's leaders, 0 when
    i has no leaders.
    """

    user_count: int
    leader_indptr: np.ndarray
    leader_ids: np.ndarray
    follower_count: np.ndarray
    leader_count: np.ndarray
    f_max: int
    l_max: int
    influence: np.ndarray
    original_ids: np.ndarray

    @classmethod
    def from_edges(cls, followers, leaders, user_count, original_ids=None):
        """Build a network from parallel (follower, leader) id arrays.

        Self-loops are dropped and duplicate edges collapsed. user_count
        must be an int (not a bool), ids already compact integers in [0,
        user_count), as 1-D float or integer arrays of one length, and
        original_ids, if given, must hold user_count ids; otherwise
        EdgeListError. Integer id arrays of any width and stride are read
        as they are: the only edge-sized int64 array made from them is the
        key.
        """
        if (isinstance(user_count, bool)
                or not isinstance(user_count, (int, np.integer))):
            raise EdgeListError(f"user_count must be an int: {user_count!r}")
        if user_count < 1:
            raise EdgeListError("graph must have at least one node")
        followers = _int_ids(followers, user_count)
        leaders = _int_ids(leaders, user_count)
        if followers.shape != leaders.shape:
            raise EdgeListError("follower and leader ids differ in length")
        # unique (follower, leader) pairs, sorted by follower then leader
        key = followers.astype(np.int64)
        key *= np.int64(user_count)
        key += leaders
        key = key[followers != leaders]
        key.sort()
        key = key[_run_starts(key)]
        leaders = key % user_count
        followers = key  # in place: the key is not needed after this
        followers //= user_count

        leader_count = np.bincount(followers, minlength=user_count)
        follower_count = np.bincount(leaders, minlength=user_count)
        indptr = np.concatenate(([0], np.cumsum(leader_count)))
        inf_sum = np.bincount(followers,
                              weights=follower_count.astype(float)[leaders],
                              minlength=user_count)
        influence = np.where(leader_count > 0,
                             inf_sum / np.maximum(leader_count, 1), 0.0)
        if original_ids is None:
            original_ids = np.arange(user_count, dtype=np.int64)
        else:
            original_ids = np.asarray(original_ids, dtype=np.int64)
            if original_ids.shape != (user_count,):
                raise EdgeListError(f"original_ids must hold {user_count} ids")

        arrays = (indptr, leaders, follower_count, leader_count, influence,
                  original_ids)
        for a in arrays:
            a.flags.writeable = False
        return cls(
            user_count=int(user_count),
            leader_indptr=indptr,
            leader_ids=leaders,
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

    def follower_csr(self, min_leaders: int) -> tuple[np.ndarray, np.ndarray]:
        """Follower CSR (indptr, ids) of the users with >= min_leaders leaders.

        ids[indptr[j]:indptr[j+1]] lists, in ascending order, the followers
        of user j that have at least min_leaders leaders; at min_leaders 1
        it is the transpose of the leader CSR. Built on first use, so
        loading a network does not pay for it, and kept for the latest
        min_leaders only (values above l_max are one key: no follower).
        """
        min_leaders = min(max(int(min_leaders), 1), self.l_max + 1)
        cached = self.__dict__.get("_follower_csr")
        if cached is None or cached[0] != min_leaders:
            cached = (min_leaders, *self._build_follower_csr(min_leaders))
            # frozen: set as functools.cached_property does
            self.__dict__["_follower_csr"] = cached
        return cached[1:]

    def _build_follower_csr(self, min_leaders: int):
        """follower_csr's (indptr, ids) for this min_leaders, built anew."""
        kept = np.where(self.leader_count >= min_leaders, self.leader_count, 0)
        followers = np.repeat(np.arange(self.user_count), kept)
        key = self.leader_ids[np.repeat(kept > 0, self.leader_count)]
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(key, minlength=self.user_count))))
        key *= np.int64(self.user_count)
        key += followers
        # (leader, follower) keys are unique, so any sort orders them fully
        ids = followers[np.argsort(key)]
        indptr.flags.writeable = False
        ids.flags.writeable = False
        return indptr, ids

    @cached_property
    def pull_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exposure pull's plan: (weights, starts, users).

        weights[e] is (F_j << b) | 1 for the leader j of edge e, with b =
        l_max.bit_length(), the packing of hashsim.engine's exposure state.
        users lists the users with at least one leader, in ascending order,
        and starts[k] is where the segment of users[k] starts in leader_ids,
        for one np.add.reduceat over every edge. Built on the first pull
        and kept, so a network whose updates are all pushes does not hold
        its 8 bytes per edge.
        """
        weights = self.follower_count[self.leader_ids]
        weights <<= self.l_max.bit_length()
        weights |= 1
        users = np.flatnonzero(self.leader_count)
        starts = self.leader_indptr[users]
        for a in (weights, starts, users):
            a.flags.writeable = False
        return weights, starts, users


def load_edge_list(source, direction: str = DIRECTION_FOLLOWS) -> FollowNetwork:
    """Parse a whitespace-separated edge list into a FollowNetwork.

    `source` may be a path or an open text/binary stream. The grammar is
    np.loadtxt's, made strict: the input is ASCII, and only '\\n' and
    '\\r\\n' end a line. '#' starts a comment wherever it stands. A line
    is blank or holds two ids [+-]?[0-9]+ in [0, 2^63), split by blanks
    (space, tab, \\x0b, \\x0c, \\x1c-\\x1f). Anything else raises an
    EdgeListError naming its first bad line, and input with no edge line
    one naming no line. Node ids get compacted to 0..N-1 in ascending id
    order (original ids retained).

    Speed: np.loadtxt parses in C from an anonymous in-memory file, or,
    where the system has none (not Linux), from io.BytesIO line by line
    in Python. Only input it refuses is parsed again, in halves that add
    up to about one more parse, to name the error (_first_bad_line).

    Memory: the raw input dies before the ids are compacted, and the
    parsed pairs before the compact ids are made. Per line of the file,
    the three stages hold:
    - parse: the raw input (21 B/line for SNAP-sized ids; for a text
      stream also its str, which dies once it is encoded) until it is
      copied into the in-memory file (shared memory, outside RSS and the
      traced peak), then that file and the (m, 2) int64 pairs (16) that
      np.loadtxt grows; without the file the raw input stays beside the
      pairs;
    - compaction, in place in the pairs: the pairs as sort keys (16),
      int32 positions (8) and the first-of-run mask (2), then the int32
      ranks and compact ids (8 each);
    - FollowNetwork.from_edges: the compact ids (8), the int64 edge keys
      (8, briefly 16 while self-loops and duplicates are dropped), the
      leaders (8) and their float64 follower counts (8).
    On a 1.77M-line, 37 MB file the traced peaks are 37, 47 and 59 MB
    (21, 26 and 33 B/line); with the in-memory file the parse peaks at
    75 MB (42 B/line) as the write ends, and the process peak RSS rises
    by ~59 MB.
    """
    if direction not in (DIRECTION_FOLLOWS, DIRECTION_FOLLOWED_BY):
        raise ValueError(f"unknown direction {direction!r}")
    # the parsed pairs go straight in, so that no reference here keeps
    # them alive while _compact_ids reuses and then frees them
    ids, compact = _compact_ids(_read_pairs(source))
    followers, leaders = compact[0::2], compact[1::2]
    if direction == DIRECTION_FOLLOWED_BY:
        followers, leaders = leaders, followers
    return FollowNetwork.from_edges(followers, leaders, ids.size,
                                    original_ids=ids)


def _read_pairs(source) -> np.ndarray:
    """The (m, 2) int64 id pairs of an edge-list source, one row per edge.

    np.loadtxt (_loadtxt_pairs) parses the bytes from a file that then
    holds their only copy (_in_memory_file). A text stream's str is
    encoded as UTF-8 first, so that any non-ASCII character is refused
    at its line. When loadtxt refuses the input, and before it when a
    lone '\\r' is in it (a path's reader ends a line there, io.BytesIO's
    does not), _first_bad_line finds the error in the same file. Input
    with no edge line raises at once. The raw input dies on return,
    before the ids are compacted.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(os.fspath(source), "rb") as fh:
            data = fh.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")  # the str dies here
    refused = b"\r" in data and _lone_cr(data, 0, len(data))
    with _in_memory_file(data) as fh:
        data = None  # fh holds the only copy
        pairs = refused or _loadtxt_pairs(fh)
        if isinstance(pairs, str):
            raise _first_bad_line(fh)
    if not pairs.shape[0]:
        raise EdgeListError("edge list contains no edges")
    return pairs


def _lone_cr(data: bytes, lo: int, hi: int) -> str | None:
    """Why data[lo:hi] is refused if a '\\r' in it does not start a
    '\\r\\n', else None."""
    return ("'\\r' not followed by '\\n'"
            if data.count(b"\r", lo, hi) != data.count(b"\r\n", lo, hi)
            else None)


def _in_memory_file(data):
    """A binary file that holds data (bytes-like), for np.loadtxt to read in C.

    loadtxt reads in C only a file that it opens itself from a str path,
    and iterates a file object such as io.BytesIO line by line in Python.
    So data goes into an anonymous in-memory file (memfd, in shared
    memory outside the process's RSS), whose /proc/self/fd path gives
    loadtxt exactly these bytes. Where os.memfd_create is missing (not
    Linux), or it, the write or an open of that path raises OSError, the
    file is io.BytesIO(data).
    """
    try:
        fd = os.memfd_create("edges", os.MFD_CLOEXEC)
    except (AttributeError, OSError):  # not Linux, or no memfd to be had
        return io.BytesIO(data)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        return open(f"/proc/self/fd/{fd}", "rb")  # a second fd on the file
    except OSError:
        return io.BytesIO(data)
    finally:
        os.close(fd)


def _loadtxt_pairs(fh) -> np.ndarray | str:
    """np.loadtxt's (m, 2) pairs of an _in_memory_file, or why it refused.

    Input with no data line gives (0, 2) pairs. Otherwise the pairs are
    kept when loadtxt parsed them and they have two columns and no
    negative id; the reason returned instead refuses the input.
    """
    fname = (fh if isinstance(fh, io.BytesIO)
             else f"/proc/self/fd/{fh.fileno()}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the no-data warning
        try:
            pairs = np.loadtxt(fname, dtype=np.int64, comments="#", ndmin=2,
                               encoding="ascii")
        except UnicodeDecodeError:
            return "non-ASCII byte"
        except ValueError:  # loadtxt's message cannot tell these apart
            return "non-integer node id or node id above 2^63 - 1"
        except Warning:
            return np.empty((0, 2), dtype=np.int64)
    if pairs.shape[1] != 2:
        return "expected two node ids"
    return "negative node id" if pairs.min() < 0 else pairs


def _parse(data: bytes, lo: int, hi: int) -> np.ndarray | str:
    """The pairs of the lines data[lo:hi], or why they are refused."""
    with _in_memory_file(memoryview(data)[lo:hi]) as fh:
        return _lone_cr(data, lo, hi) or _loadtxt_pairs(fh)


def _first_bad_line(fh) -> EdgeListError:
    """The EdgeListError of refused input, naming its first bad line.

    Reads fh back. A line is bad when it is refused on its own (_parse),
    and loadtxt judges every line by itself, so a run of lines is refused
    exactly when it holds a bad line. The run that holds the first one is
    cut in two at a line end near its middle, and the search goes on
    in the first half if that is refused, else in the second, until one
    line is left. The halves parsed add up to about one more parse of the
    input, in about log2(lines) loadtxt calls.
    """
    fh.seek(0)
    data = fh.read()
    lo, hi = 0, len(data)
    # cut after the first '\n' from the middle on, else after the last one
    # before it; there is none to cut after when data[lo:hi] is one line
    while cut := (data.find(b"\n", (lo + hi) // 2, hi - 1) + 1
                  or data.rfind(b"\n", lo, (lo + hi) // 2) + 1):
        if isinstance(_parse(data, lo, cut), str):
            hi = cut
        else:
            lo = cut
    lineno = data.count(b"\n", 0, lo) + 1
    return EdgeListError(
        f"line {lineno}: {_parse(data, lo, hi)} in {data[lo:hi]!r}", lineno)


def _compact_ids(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the ids of (m, 2) int64 pairs to 0..N-1 in ascending id order.

    Returns (ids, compact): ids is the sorted array of distinct ids, and
    compact the compact ids of the flat, interleaved pairs (a0 b0 a1 b1 ...),
    int32 when 2m <= 2^31, so ids[compact] == pairs.reshape(-1). `pairs` is
    overwritten and used as the sort buffer, and freed before compact is
    made; the caller must hold no other reference to it.

    One sort does the work. When the id range leaves room for the p bits
    of a position, it is an in-place np.sort of the keys
    ((id - min) << p) | position, several times faster than an argsort;
    wider ranges (e.g. Snowflake-sized ids) take the argsort.
    """
    flat = pairs.reshape(-1)
    del pairs
    size = flat.size
    itype = np.int32 if size <= 1 << 31 else np.int64
    p = (size - 1).bit_length()
    lowest = flat.min()
    if (int(flat.max()) - int(lowest)).bit_length() <= 63 - p:
        flat -= lowest
        flat <<= p
        flat |= np.arange(size, dtype=itype)
        flat.sort()
        order = flat.astype(itype)  # the low p bits survive the cast
        order &= (1 << p) - 1
        flat >>= p
        flat += lowest
    else:
        order = np.argsort(flat)
        flat = flat[order]
    first = _run_starts(flat)
    ids = flat[first]
    del flat
    ranks = np.cumsum(first, dtype=itype)
    ranks -= 1
    compact = np.empty(size, dtype=itype)
    compact[order] = ranks
    return ids, compact


def _int_ids(values, user_count: int) -> np.ndarray:
    """values as an integer array: as it is when int64 holds its dtype.

    Raises EdgeListError unless values are 1-D and every value is an
    integer in [0, user_count); NaN fails the range test.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise EdgeListError(f"node ids must be 1-D, got shape {values.shape}")
    if values.size and not (values.min() >= 0 and values.max() < user_count):
        raise EdgeListError(f"node ids must lie in [0, {user_count})")
    if np.can_cast(values.dtype, np.int64):
        return values
    ids = values.astype(np.int64)
    if not np.array_equal(ids, values):
        raise EdgeListError("node ids must be integers")
    return ids


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    first = np.empty(sorted_values.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def write_edge_list(net: FollowNetwork, dest) -> None:
    """Write the network as edge-list text ("i j" means i follows j).

    `dest` is a path or an open stream. Rows are formatted _WRITE_ROWS at
    a time, by one %-format of a tuple of Python ints, so beyond the
    network the write holds one chunk of rows.
    """
    orig, indptr = net.original_ids, net.leader_indptr
    with (contextlib.nullcontext(dest) if hasattr(dest, "write")
          else open(os.fspath(dest), "w", encoding="ascii")) as fh:
        for start in range(0, net.edge_count, _WRITE_ROWS):
            leaders = net.leader_ids[start:start + _WRITE_ROWS]
            # the follower of edge e: the last user whose row starts at or
            # before e
            followers = np.searchsorted(
                indptr, np.arange(start, start + leaders.size), "right") - 1
            rows = np.column_stack((orig[followers], orig[leaders]))
            fh.write("%d %d\n" * leaders.size % tuple(rows.ravel().tolist()))


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
    row blocks of at most _RANDOM_BLOCK_DRAWS draws (results depend only on
    seed). A given edge_prob must be in [0, 1] for either kind; star does
    not read it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (edge_prob is None or 0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must be in [0, 1]")
    if kind == "star":
        followers = np.arange(1, n, dtype=np.int64)
        leaders = np.zeros(max(n - 1, 0), dtype=np.int64)
    elif kind == "uniform-random":
        if edge_prob is None:
            raise ValueError("edge_prob must be in [0, 1]")
        rng = np.random.default_rng(seed)
        # PCG64's random() fills a block in C order, one 64-bit output per
        # float64 draw, so the block shape cannot change the draws or the
        # graph; it only bounds the memory of a block
        block_rows = max(1, _RANDOM_BLOCK_DRAWS // n)
        rows, cols = [], []
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            block = rng.random((stop - start, n)) < edge_prob
            r, c = np.nonzero(block)
            rows.append(r + start)
            cols.append(c)
        followers = np.concatenate(rows)
        leaders = np.concatenate(cols)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    return FollowNetwork.from_edges(followers, leaders, n)
