import dataclasses
import errno
import io
import json
import os
import pathlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from hashsim import (EdgeListError, FollowNetwork, generate_synthetic,
                     load_edge_list, network_stats, write_edge_list)
from hashsim import network
from hashsim.network import DIRECTION_FOLLOWED_BY, DIRECTION_FOLLOWS
from reference import edge_followers, parse_edge_list

SAMPLE_EDGES = pathlib.Path(__file__).parent / "data" / "sample_edges.txt"


def test_load_tiny_edge_list(tiny_net):
    assert tiny_net.user_count == 3
    assert tiny_net.follower_count.tolist() == [0, 2, 0]
    assert tiny_net.leader_count.tolist() == [1, 0, 1]
    assert tiny_net.f_max == 2
    assert tiny_net.l_max == 1
    assert tiny_net.influence.tolist() == [2.0, 0.0, 2.0]


def test_duplicate_edges_and_self_loops_dropped():
    net = load_edge_list(io.StringIO("0 1\n0 1\n0 0\n"))
    assert net.edge_count == 1
    assert net.follower_count.tolist() == [0, 1]


def test_comments_and_blank_lines_skipped():
    net = load_edge_list(io.StringIO("# header\n\n0 1\n# tail\n2 1\n"))
    assert net.edge_count == 2


def test_sparse_ids_compacted_with_mapping():
    net = load_edge_list(io.StringIO("10 99\n500 99\n"))
    assert net.user_count == 3
    assert net.original_ids.tolist() == [10, 99, 500]
    assert net.follower_count.tolist() == [0, 2, 0]


def test_malformed_line_reports_line_number():
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(io.StringIO("0 1\nfoo 2\n"))
    assert exc.value.line_number == 2


def test_id_above_int64_reports_line_number():
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(io.StringIO("0 1\n# note\n9223372036854775808 1\n"))
    assert exc.value.line_number == 3


def test_first_bad_line_is_reported_when_an_id_is_out_of_range():
    text = "0 1\n9223372036854775808 1\n0 1 2\nx 1\n"
    with pytest.raises(EdgeListError, match="above") as exc:
        load_edge_list(io.StringIO(text))
    assert exc.value.line_number == 2


def test_largest_int64_id_is_accepted():
    net = load_edge_list(io.StringIO("9223372036854775807 1\n"))
    assert net.original_ids.tolist() == [1, 9223372036854775807]


def test_wrong_token_count_is_an_error():
    with pytest.raises(EdgeListError):
        load_edge_list(io.StringIO("0 1 2\n"))


def test_empty_edge_list_is_an_error():
    with pytest.raises(EdgeListError):
        load_edge_list(io.StringIO("# only comments\n"))


@pytest.mark.parametrize("text", ["", "# only comments\n", "\n  \n"])
def test_empty_edge_list_raises_without_a_warning(text, monkeypatch):
    # and without a search for a bad line: it has none
    monkeypatch.setattr(network, "_first_bad_line", _no_scan)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EdgeListError, match="no edges"):
            load_edge_list(io.BytesIO(text.encode("ascii")))
    assert caught == []


def test_direction_flag_swaps_degree_multisets():
    lines = "0 1\n2 1\n3 1\n3 0\n"
    fwd = load_edge_list(io.StringIO(lines))
    rev = load_edge_list(io.StringIO(lines), direction=DIRECTION_FOLLOWED_BY)
    assert sorted(fwd.follower_count) == sorted(rev.leader_count)
    assert sorted(fwd.leader_count) == sorted(rev.follower_count)


def test_unknown_direction_rejected():
    with pytest.raises(ValueError, match="unknown direction"):
        load_edge_list(io.StringIO("0 1\n"), direction="sideways")


def test_reload_is_identical(tiny_net):
    again = load_edge_list(io.StringIO("0 1\n2 1\n"))
    s1 = json.dumps(network_stats(tiny_net))
    s2 = json.dumps(network_stats(again))
    assert s1 == s2
    assert np.array_equal(tiny_net.leader_ids, again.leader_ids)
    assert np.array_equal(tiny_net.leader_indptr, again.leader_indptr)


def test_stats_tiny(tiny_net):
    stats = network_stats(tiny_net)
    assert list(stats) == ["nodes", "edges", "f_max", "l_max",
                           "mean_out_degree"]
    assert stats["nodes"] == 3
    assert stats["edges"] == 2
    assert stats["f_max"] == 2
    assert stats["l_max"] == 1
    assert stats["mean_out_degree"] == pytest.approx(2 / 3)


def test_stats_single_node_no_edges():
    net = generate_synthetic("star", 1)
    stats = network_stats(net)
    assert (stats["nodes"], stats["edges"], stats["f_max"],
            stats["l_max"]) == (1, 0, 0, 0)


def test_stats_star():
    k = 17
    stats = network_stats(generate_synthetic("star", k + 1))
    assert (stats["edges"], stats["f_max"], stats["l_max"]) == (k, k, 1)


def test_star_construction(star11):
    assert star11.follower_count[0] == 10
    assert star11.leader_count[0] == 0
    assert np.all(star11.follower_count[1:] == 0)
    assert np.all(star11.leader_count[1:] == 1)
    assert np.all(star11.influence[1:] == 10.0)
    assert star11.influence[0] == 0.0


def test_random_zero_prob_has_no_edges():
    net = generate_synthetic("uniform-random", 20, edge_prob=0.0, seed=1)
    assert net.edge_count == 0


def test_random_edge_count_in_binomial_band():
    net = generate_synthetic("uniform-random", 100, edge_prob=0.05, seed=11)
    trials = 100 * 99
    mean = trials * 0.05
    sigma = np.sqrt(trials * 0.05 * 0.95)
    assert abs(net.edge_count - mean) < 5 * sigma


def test_random_is_deterministic_per_seed():
    a = generate_synthetic("uniform-random", 60, edge_prob=0.1, seed=5)
    b = generate_synthetic("uniform-random", 60, edge_prob=0.1, seed=5)
    assert np.array_equal(a.leader_ids, b.leader_ids)
    assert np.array_equal(edge_followers(a), edge_followers(b))


def _random_in_2048_row_blocks(n, edge_prob, seed):
    """Reference uniform-random draw, one 2048 x n block at a time."""
    rng = np.random.default_rng(seed)
    followers, leaders = [], []
    for start in range(0, n, 2048):
        block = rng.random((min(2048, n - start), n)) < edge_prob
        r, c = np.nonzero(block)
        followers.append(r + start)
        leaders.append(c)
    return FollowNetwork.from_edges(np.concatenate(followers),
                                    np.concatenate(leaders), n)


@pytest.mark.parametrize("n,edge_prob", [
    *((n, p) for n in (1, 2, 2047, 2049, 5000) for p in (0.0, 0.01)),
    (1, 1.0), (2, 1.0), (40, 1.0)])
@pytest.mark.parametrize("seed", [0, 3])
def test_random_edges_do_not_depend_on_the_block_shape(n, edge_prob, seed):
    _assert_same_network(
        generate_synthetic("uniform-random", n, edge_prob=edge_prob,
                           seed=seed),
        _random_in_2048_row_blocks(n, edge_prob, seed))


def test_random_generation_memory_is_bounded():
    """One block holds at most 2^21 draws (16 MiB), whatever edge_prob is."""
    tracemalloc.start()
    try:
        net = generate_synthetic("uniform-random", 6000, edge_prob=0.002,
                                 seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.edge_count > 60_000
    assert peak < 40 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_synthetic_argument_errors():
    with pytest.raises(ValueError):
        generate_synthetic("ring", 10)
    with pytest.raises(ValueError):
        generate_synthetic("uniform-random", 10, edge_prob=1.5)
    with pytest.raises(ValueError):
        generate_synthetic("star", 0)


def test_degree_sums_equal_edge_count(er200):
    assert er200.follower_count.sum() == er200.edge_count
    assert er200.leader_count.sum() == er200.edge_count


def test_influence_matches_brute_force(er200):
    for user in range(er200.user_count):
        lo, hi = er200.leader_indptr[user], er200.leader_indptr[user + 1]
        leaders = er200.leader_ids[lo:hi]
        expected = (er200.follower_count[leaders].sum() / len(leaders)
                    if len(leaders) else 0.0)
        assert er200.influence[user] == expected


def test_no_self_loops_or_duplicates(er200):
    followers = edge_followers(er200)
    assert np.all(followers != er200.leader_ids)
    keys = followers * er200.user_count + er200.leader_ids
    assert len(np.unique(keys)) == len(keys)


def test_write_read_round_trip(er200):
    buf = io.StringIO()
    write_edge_list(er200, buf)
    again = load_edge_list(io.StringIO(buf.getvalue()))
    assert np.array_equal(er200.follower_count, again.follower_count)
    assert np.array_equal(er200.leader_ids, again.leader_ids)


def test_write_peak_memory_per_edge(tmp_path):
    """Beyond the network, a write holds one chunk of rows (10.6 bytes
    per edge here). Formatting every line at once held 94."""
    net = generate_synthetic("uniform-random", 5000, edge_prob=0.002, seed=0)
    tracemalloc.start()
    try:
        write_edge_list(net, tmp_path / "edges.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.edge_count > 45_000
    assert peak <= 16 * net.edge_count, (
        f"{peak / net.edge_count:.1f} bytes per edge")


def test_from_edges_rejects_empty_node_set():
    with pytest.raises(EdgeListError):
        FollowNetwork.from_edges([], [], 0)


def test_from_edges_reads_float_ids_as_int64():
    followers = np.array([1, 2, 2, 3, 0, 1])
    leaders = np.array([0, 0, 1, 3, 2, 0])
    want = FollowNetwork.from_edges(followers, leaders, 4)
    got = FollowNetwork.from_edges(followers.astype(np.float64),
                                   leaders.astype(np.float64), 4)
    _assert_same_network(got, want)


@pytest.mark.parametrize("followers, leaders, original_ids, user_count", [
    pytest.param([0, 5], [1, 2], None, 3, id="id-above-range"),
    pytest.param([0, 1], [-1, 2], None, 3, id="negative-id"),
    pytest.param(np.array([0, 3], dtype=np.uint64), [1, 2], None, 3,
                 id="unsigned-id-above-range"),
    pytest.param([0.5, 1.0], [1.0, 2.0], None, 3, id="fractional-float"),
    pytest.param([0.0, np.nan], [1.0, 2.0], None, 3, id="nan"),
    pytest.param([0.0, 1.0], [np.inf, 2.0], None, 3, id="inf"),
    pytest.param([0, 1, 2], [1, 2], None, 3, id="unequal-lengths"),
    pytest.param([0, 1], [1, 2], [10, 11], 3, id="too-few-original-ids"),
    pytest.param([0, 1], [1, 2], [10, 11, 12, 13], 3,
                 id="too-many-original-ids"),
    pytest.param([0, 1], [1, 0], None, 2.5, id="fractional-user-count"),
    pytest.param([0, 1], [1, 0], None, 2.0, id="float-user-count"),
    pytest.param([0, 1], [1, 0], None, True, id="bool-user-count"),
    pytest.param([0, 1], [1, 0], None, np.True_, id="numpy-bool-user-count"),
    pytest.param([[0, 1], [1, 2]], [[1, 2], [2, 0]], None, 3,
                 id="2-d-ids"),
    pytest.param(0, 1, None, 3, id="0-d-ids"),
])
def test_from_edges_refuses_bad_ids(followers, leaders, original_ids,
                                    user_count):
    with pytest.raises(EdgeListError):
        FollowNetwork.from_edges(followers, leaders, user_count,
                                 original_ids=original_ids)


def test_from_edges_takes_a_numpy_integer_user_count():
    got = FollowNetwork.from_edges([0, 1], [1, 0], np.int64(2))
    _assert_same_network(got, FollowNetwork.from_edges([0, 1], [1, 0], 2))
    assert type(got.user_count) is int


def test_follower_csr_is_the_transpose(er200):
    indptr, ids = er200.follower_csr(1)
    assert ids.size == er200.edge_count
    for leader in range(er200.user_count):
        followers = ids[indptr[leader]:indptr[leader + 1]]
        assert followers.size == er200.follower_count[leader]
        assert np.all(np.diff(followers) > 0)
        for f in followers:
            lo, hi = er200.leader_indptr[f], er200.leader_indptr[f + 1]
            assert leader in er200.leader_ids[lo:hi]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), edge_prob=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16), min_leaders=st.integers(-1, 45))
def test_follower_csr_keeps_the_followers_with_min_leaders(n, edge_prob, seed,
                                                           min_leaders):
    net = generate_synthetic("uniform-random", n, edge_prob=edge_prob,
                             seed=seed)
    indptr, ids = net.follower_csr(min_leaders)
    capable = net.leader_count >= min_leaders
    assert indptr.shape == (n + 1,) and indptr[0] == 0
    assert ids.size == indptr[-1] == net.leader_count[capable].sum()
    followers = edge_followers(net)
    for leader in range(n):
        got = ids[indptr[leader]:indptr[leader + 1]]
        want = followers[(net.leader_ids == leader) & capable[followers]]
        assert np.array_equal(got, np.sort(want))


def test_follower_csr_is_kept_for_the_latest_min_leaders(monkeypatch):
    net = generate_synthetic("uniform-random", 200, edge_prob=0.05, seed=7)
    builds = []
    build = FollowNetwork._build_follower_csr

    def counted(net, min_leaders):
        builds.append(min_leaders)
        return build(net, min_leaders)
    monkeypatch.setattr(FollowNetwork, "_build_follower_csr", counted)
    first = net.follower_csr(3)
    assert all(a is b for a, b in zip(net.follower_csr(3), first))
    assert builds == [3]
    net.follower_csr(4)
    net.follower_csr(3)
    # every value above l_max keeps no follower, and is one build
    net.follower_csr(net.l_max + 1)
    net.follower_csr(10**6)
    assert builds == [3, 4, 3, net.l_max + 1]
    # a CSR holds at most 8 bytes per edge and 8 per user
    assert sum(a.nbytes for a in first) <= 8 * (net.edge_count
                                                 + net.user_count + 1)


def test_follower_csr_under_threads_is_the_csr_asked_for(er200):
    # threads that ask at different min_leaders replace each other's cache
    # entry; each still gets the CSR of its own min_leaders
    want = {k: FollowNetwork._build_follower_csr(er200, k)
            for k in range(1, 9)}
    wrong = []

    def ask(k):
        for _ in range(30):
            got = er200.follower_csr(k)
            if not all(map(np.array_equal, got, want[k])):
                wrong.append(k)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(k,))
                   for k in range(1, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def _reference_load(text, direction):
    """Reference loader: the strict per-line parse of the UTF-8 bytes,
    then np.unique compaction."""
    a, b = parse_edge_list(text.encode("utf-8", "surrogatepass")).T
    ids = np.unique(np.concatenate((a, b)))
    a, b = np.searchsorted(ids, a), np.searchsorted(ids, b)
    if direction == DIRECTION_FOLLOWED_BY:
        a, b = b, a
    return FollowNetwork.from_edges(a, b, len(ids), original_ids=ids)


def _outcome(load):
    try:
        return load()
    except EdgeListError as exc:
        return ("EdgeListError", exc.line_number)


def _assert_same_network(got, want):
    for field in dataclasses.fields(FollowNetwork):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape, field.name
            assert np.array_equal(g, w), field.name
        else:
            assert g == w, field.name


_ID = st.one_of(*[st.integers(0, 40)] * 6,
                st.integers(2**63 - 2, 2**63 + 1)).map(str)
_BLANK = st.sampled_from(["", " ", "\t"])
_EDGE_LINE = st.builds(
    lambda lead, ids, sep, tail: lead + sep.join(ids) + tail,
    _BLANK, st.sampled_from([2] * 12 + [1, 3]).flatmap(
        lambda k: st.lists(_ID, min_size=k, max_size=k)),
    st.sampled_from([" ", "\t", "  "]), _BLANK)
_LINE = st.one_of(
    _EDGE_LINE, _EDGE_LINE, _EDGE_LINE,
    st.builds(lambda lead, body: lead + "#" + body, _BLANK,
              st.text(" 0123456789#", max_size=6)),
    _BLANK)
# characters at the edges of the grammar: '\r' alone or before '\r\n',
# loadtxt's odd blanks (\x0b \x0c \x1c, line breaks to str.splitlines,
# and \x1f), non-ASCII line breaks, digits and blanks, inline '#', signs,
# '_' and a control character that is no blank
_ODD = st.sampled_from(["#", " # c", "#x", "\r", "\r\n", "\n", "\x0b",
                        "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "\xa0",
                        "\u0661", "\xe9", "+", "-", "_", "\x01", " ", "\t",
                        " 7", "0"])


@st.composite
def _edge_text(draw):
    """Mostly well-formed edge lists, with up to three odd insertions."""
    breaks = st.sampled_from(["\n", "\n", "\n", "\r\n"])
    lines = draw(st.lists(_LINE, min_size=1, max_size=8))
    text = "".join(line + draw(breaks) for line in lines)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(_ODD) + text[pos:]
    return text


_EDGE_TEXT = st.one_of(
    _edge_text(),
    st.text("0123456789 \t\r\n#+-_\x0b\x1c\x0c\x1f\x85\xa0\u0661",
            max_size=30))


# (text, direction, as_bytes) inputs that each loader test runs
_LOADER_EXAMPLES = [
    ("1 2\n", DIRECTION_FOLLOWS, False),
    ("", DIRECTION_FOLLOWS, False),
    ("# c\n\n", DIRECTION_FOLLOWS, True),
    ("1 2 # c\n", DIRECTION_FOLLOWS, False),
    ("1 2#x\n", DIRECTION_FOLLOWS, False),
    ("# see #5\n  # c #d\n1 2\n", DIRECTION_FOLLOWS, False),
    ("1 2\n\t# c\r\n3 4\n", DIRECTION_FOLLOWS, True),
    ("-1 2\n", DIRECTION_FOLLOWS, False),
    ("1 2 3\n", DIRECTION_FOLLOWS, False),
    ("1\n", DIRECTION_FOLLOWS, False),
    ("1 2\x1c3 4\n", DIRECTION_FOLLOWS, False),
    ("1\x1c2\n", DIRECTION_FOLLOWS, False),
    ("1\x0c2\n", DIRECTION_FOLLOWS, True),
    ("1 2\r3 4\n", DIRECTION_FOLLOWS, True),
    ("1 2\r3 4\n", DIRECTION_FOLLOWS, False),
    ("0 0\r", DIRECTION_FOLLOWS, True),
    ("0 0\r\r\n", DIRECTION_FOLLOWS, False),
    ("#\r0 1\n", DIRECTION_FOLLOWS, True),
    ("\r#\n0 1\n", DIRECTION_FOLLOWS, False),
    ("# caf\xe9\n1 2\n", DIRECTION_FOLLOWS, True),
    ("# caf\xe9\n1 2\n", DIRECTION_FOLLOWS, False),
    ("1 2\n# \udc80\n", DIRECTION_FOLLOWS, False),  # a str's lone surrogate
    ("1\x0c2\n", DIRECTION_FOLLOWS, False),
    ("1 2 # note\n", DIRECTION_FOLLOWED_BY, True),
    ("# a\r5 6\n3 4\n", DIRECTION_FOLLOWS, False),
    ("1_000 2\n", DIRECTION_FOLLOWS, False),
    ("\u0661 2\n", DIRECTION_FOLLOWS, False),
    ("1 2\xa0\n", DIRECTION_FOLLOWS, True),
    ("# c\x851 2\n3 4\n", DIRECTION_FOLLOWS, True),
    ("+5 -0\n", DIRECTION_FOLLOWS, False),
    ("9223372036854775808 1\n", DIRECTION_FOLLOWS, False),
    # id ranges around the widest that packed sort keys hold (2 ids: 62
    # bits, 4 ids: 61 bits), and a narrow range near 2^62
    ("0 4611686018427387903\n", DIRECTION_FOLLOWS, False),
    ("0 4611686018427387904\n", DIRECTION_FOLLOWS, False),
    ("0 4611686018427387904\n4611686018427387905 0\n",
     DIRECTION_FOLLOWED_BY, True),
    ("4611686018427387907 4611686018427387904\n"
     "4611686018427387904 4611686018427387905\n",
     DIRECTION_FOLLOWS, True),
]


def _loader_examples(*tails):
    """Add each of _LOADER_EXAMPLES, followed by each of tails, to a test
    as a Hypothesis example."""
    def decorate(test):
        for args in reversed(_LOADER_EXAMPLES):
            for tail in tails:
                test = example(*args, *tail)(test)
        return test
    return decorate


def _no_scan(fh):
    raise AssertionError("accepted input reached the line scan")


class TestLoaderMatchesLineLoop:
    """load_edge_list accepts, rejects and builds exactly as the strict
    per-line reference parser, with the in-memory file and without it."""

    @settings(max_examples=400, deadline=None)
    @given(_EDGE_TEXT, st.sampled_from([DIRECTION_FOLLOWS,
                                        DIRECTION_FOLLOWED_BY]),
           st.booleans(), st.booleans())
    @_loader_examples((True,), (False,))
    def test_differential(self, text, direction, as_bytes, memfd):
        want = _outcome(lambda: _reference_load(text, direction))
        source = (io.BytesIO(text.encode("utf-8")) if as_bytes
                  else io.StringIO(text))
        with pytest.MonkeyPatch.context() as mp:
            if not memfd:
                _no_memfd(mp)
            if isinstance(want, FollowNetwork):
                mp.setattr(network, "_first_bad_line", _no_scan)
            calls = _spy_loadtxt(mp)
            got = _outcome(lambda: load_edge_list(source,
                                                  direction=direction))
        if isinstance(want, FollowNetwork):
            assert isinstance(got, FollowNetwork), got
            _assert_same_network(got, want)
            assert len(calls) == 1
        else:
            assert got == want

    @pytest.mark.parametrize("text", ["1 2\n3 4\n",
                                      "# header\n  # indented\n1 2\n",
                                      "1\t2\r\n# c\r\n3 4\r\n",
                                      "# see #5\n  # c #d\n1 2\n",
                                      " +5  0 \n\n"])
    def test_canonical_input_takes_the_fast_path(self, text, monkeypatch):
        """Accepted input takes one np.loadtxt call and no line scan."""
        want = parse_edge_list(text.encode("ascii"))
        monkeypatch.setattr(network, "_first_bad_line", _no_scan)
        calls = _spy_loadtxt(monkeypatch)
        for source in (io.StringIO(text), io.BytesIO(text.encode("ascii"))):
            calls.clear()
            pairs = network._read_pairs(source)
            assert np.array_equal(pairs, want) and len(calls) == 1


def _spy_loadtxt(mp):
    """The list of first arguments that np.loadtxt is called with."""
    calls, real = [], np.loadtxt

    def loadtxt(fname, *args, **kwargs):
        calls.append(fname)
        return real(fname, *args, **kwargs)

    mp.setattr(network.np, "loadtxt", loadtxt)
    return calls


def _no_memfd(mp):
    mp.delattr(os, "memfd_create", raising=False)


def _memfd_fails(mp):
    def memfd_create(*args):
        raise OSError(errno.EMFILE, "too many open files")
    mp.setattr(os, "memfd_create", memfd_create)


def _write_fails(mp):
    def write(*args):
        raise OSError(errno.ENOSPC, "no space left on device")
    mp.setattr(os, "write", write)


def _open_fails(mp):
    def open_(file, *args, **kwargs):
        if str(file).startswith("/proc/self/fd/"):
            raise OSError(errno.ENOENT, "no such file or directory")
        return open(file, *args, **kwargs)
    mp.setattr(network, "open", open_, raising=False)


def _assert_same_without_memfd(load):
    """load gives the same outcome when the in-memory file is missing or
    fails. Without one np.loadtxt is never given a path (a failing write
    fails only when there are bytes to write)."""
    want = _outcome(load)
    for setup in (_no_memfd, _memfd_fails, _write_fails, _open_fails):
        with pytest.MonkeyPatch.context() as mp:
            setup(mp)
            calls = _spy_loadtxt(mp)
            got = _outcome(load)
        if setup is not _write_fails:
            assert not any(isinstance(c, str) for c in calls), setup.__name__
        if isinstance(want, FollowNetwork):
            assert isinstance(got, FollowNetwork), (setup.__name__, got)
            _assert_same_network(got, want)
        else:
            assert got == want, setup.__name__


@settings(max_examples=100, deadline=None)
@given(_EDGE_TEXT, st.sampled_from([DIRECTION_FOLLOWS,
                                    DIRECTION_FOLLOWED_BY]),
       st.booleans())
@_loader_examples(())
def test_load_is_the_same_without_the_in_memory_file(text, direction,
                                                     as_bytes):
    def load():
        source = (io.BytesIO(text.encode("utf-8")) if as_bytes
                  else io.StringIO(text))
        return load_edge_list(source, direction=direction)

    _assert_same_without_memfd(load)


def test_sample_file_is_the_same_without_the_in_memory_file():
    _assert_same_without_memfd(lambda: load_edge_list(SAMPLE_EDGES))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="os.memfd_create is Linux-only")
def test_canonical_file_reaches_loadtxt_as_a_path(monkeypatch):
    """A silent fall back to io.BytesIO would only show in the benchmark."""
    calls = _spy_loadtxt(monkeypatch)
    monkeypatch.setattr(network, "_first_bad_line", _no_scan)
    net = load_edge_list(SAMPLE_EDGES)
    assert net.edge_count == 7
    assert len(calls) == 1 and isinstance(calls[0], str), calls


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd to list")
def test_in_memory_file_is_written_in_full_and_closed(monkeypatch):
    text = SAMPLE_EDGES.read_text(encoding="ascii")
    want = _reference_load(text, DIRECTION_FOLLOWS)
    sizes, real_write = [], os.write

    def write(fd, data):
        sizes.append(real_write(fd, data[:5]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", write)
    _assert_same_network(load_edge_list(io.StringIO(text)), want)
    assert sum(sizes) == len(text) and len(sizes) > 1
    monkeypatch.setattr(os, "write", real_write)
    # accepted; refused by np.loadtxt, or by the lone '\r' check, before
    # it; accepted with a failing write or open of the in-memory file
    for text, loads, setup in ((text, True, None), ("1_000 2\n", False, None),
                               ("0 1\r2 3\n", False, None),
                               ("1 2 3\n", False, None),
                               (text, True, _write_fails),
                               (text, True, _open_fails)):
        with pytest.MonkeyPatch.context() as mp:
            if setup is not None:
                setup(mp)
            before = sorted(os.listdir("/proc/self/fd"))
            got = _outcome(lambda: load_edge_list(io.StringIO(text)))
            after = sorted(os.listdir("/proc/self/fd"))
        assert after == before, (text, setup)
        assert isinstance(got, FollowNetwork) == loads, got


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.lists(
    st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120))
def test_from_edges_dedup_matches_np_unique(n, pairs):
    followers = np.array([f % n for f, _ in pairs], dtype=np.int64)
    leaders = np.array([l % n for _, l in pairs], dtype=np.int64)
    net = FollowNetwork.from_edges(followers, leaders, n)
    keep = followers != leaders
    key = np.unique(followers[keep] * n + leaders[keep])
    edge_follower = edge_followers(net)
    assert np.array_equal(edge_follower, key // n)
    assert np.array_equal(net.leader_ids, key % n)
    assert edge_follower.dtype == net.leader_ids.dtype == np.int64
    assert np.array_equal(net.leader_count,
                          np.bincount(key // n, minlength=n))


# ids within 40 of 0 or of a high offset: all low or all high is a narrow
# range (the packed-key sort), a mix of both is a range of at least 2^62
# (the argsort)
_HIGH = st.sampled_from([2**62, 2**63 - 41])


@st.composite
def _id_pairs(draw):
    high = draw(_HIGH)
    one_id = st.one_of(st.integers(0, 40),
                       st.integers(0, 40).map(lambda v: v + high))
    return draw(st.lists(st.tuples(one_id, one_id), min_size=1,
                         max_size=60))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_id_pairs(), st.sampled_from([DIRECTION_FOLLOWS,
                                     DIRECTION_FOLLOWED_BY]),
       st.sampled_from(["path", "bytes", "text"]))
@example([(3, 1), (1, 1), (3, 1)], DIRECTION_FOLLOWS, "path")
@example([(2**62 + 5, 2**62)], DIRECTION_FOLLOWED_BY, "bytes")
@example([(0, 2**63 - 1), (2**63 - 2, 7)], DIRECTION_FOLLOWS, "text")
def test_compaction_matches_np_unique(tmp_path, pairs, direction, kind):
    flat = np.array(pairs, dtype=np.int64).reshape(-1)
    want_ids, inverse = np.unique(flat, return_inverse=True)

    ids, compact = network._compact_ids(flat.reshape(-1, 2).copy())
    assert np.array_equal(ids, want_ids) and ids.dtype == np.int64
    assert np.array_equal(compact, inverse) and compact.dtype == np.int32

    a, b = inverse[0::2], inverse[1::2]
    if direction == DIRECTION_FOLLOWED_BY:
        a, b = b, a
    want = FollowNetwork.from_edges(a, b, want_ids.size,
                                    original_ids=want_ids)
    text = "".join(f"{x} {y}\n" for x, y in pairs)
    if kind == "path":
        source = tmp_path / "edges.txt"
        source.write_text(text, encoding="ascii")
    elif kind == "bytes":
        source = io.BytesIO(text.encode("ascii"))
    else:
        source = io.StringIO(text)
    _assert_same_network(load_edge_list(source, direction=direction), want)


def test_load_peak_memory_per_line(tmp_path):
    """The load's traced peak stays within 64 bytes per parsed line.

    At its peak the load holds either the raw bytes and the (m, 2) int64
    pairs, or the int32 compact ids and the int64 edge keys of from_edges.
    """
    net = generate_synthetic("uniform-random", 5000, edge_prob=0.002, seed=0)
    path = tmp_path / "edges.txt"
    write_edge_list(net, path)
    lines = net.edge_count
    del net
    tracemalloc.start()
    try:
        load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines > 45_000
    assert peak <= 64 * lines, f"{peak / lines:.1f} bytes per line"


def test_bad_last_line_is_named_in_bounded_memory(tmp_path):
    """A file refused at its last line is searched by halves.

    The error names that line, and the traced peak stays that of a load
    that succeeds: the search holds the file's bytes and one half's pairs.
    """
    net = generate_synthetic("uniform-random", 5000, edge_prob=0.002, seed=0)
    path = tmp_path / "edges.txt"
    write_edge_list(net, path)
    lines = net.edge_count + 1
    del net
    with open(path, "a", encoding="ascii") as fh:
        fh.write("1_000 2\n")
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListError, match="non-integer") as exc:
            load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines > 45_000 and exc.value.line_number == lines
    assert peak <= 64 * lines, f"{peak / lines:.1f} bytes per line"


def test_bad_last_line_costs_about_one_more_parse(tmp_path, monkeypatch):
    """After the refused whole-file parse, np.loadtxt is given halves that
    add up to about the file's size, in about log2(lines) calls."""
    net = generate_synthetic("uniform-random", 5000, edge_prob=0.002, seed=0)
    path = tmp_path / "edges.txt"
    write_edge_list(net, path)
    with open(path, "a", encoding="ascii") as fh:
        fh.write("1_000 2\n")
    lines = net.edge_count + 1
    sizes, real = [], np.loadtxt

    def loadtxt(fname, *args, **kwargs):
        sizes.append(os.stat(fname).st_size if isinstance(fname, str)
                     else fname.getbuffer().nbytes)
        return real(fname, *args, **kwargs)

    monkeypatch.setattr(network.np, "loadtxt", loadtxt)
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(path)
    size = path.stat().st_size
    assert exc.value.line_number == lines and sizes[0] == size
    assert sum(sizes[1:]) <= 1.01 * size
    assert len(sizes) - 1 <= 2 * np.log2(lines) + 2, len(sizes)
