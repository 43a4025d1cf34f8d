import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hashsim import (EdgeListError, FollowNetwork, generate_synthetic,
                     load_edge_list, network_stats, write_edge_list)
from hashsim import network
from hashsim.network import DIRECTION_FOLLOWED_BY, DIRECTION_FOLLOWS


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
def test_empty_edge_list_raises_without_a_warning(text):
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


def test_reload_is_identical(tiny_net):
    again = load_edge_list(io.StringIO("0 1\n2 1\n"))
    s1 = json.dumps(network_stats(tiny_net).as_dict())
    s2 = json.dumps(network_stats(again).as_dict())
    assert s1 == s2
    assert np.array_equal(tiny_net.leader_ids, again.leader_ids)
    assert np.array_equal(tiny_net.leader_indptr, again.leader_indptr)


def test_stats_tiny(tiny_net):
    stats = network_stats(tiny_net)
    assert stats.nodes == 3
    assert stats.edges == 2
    assert stats.f_max == 2
    assert stats.l_max == 1
    assert stats.mean_out_degree == pytest.approx(2 / 3)


def test_stats_single_node_no_edges():
    net = generate_synthetic("star", 1)
    stats = network_stats(net)
    assert (stats.nodes, stats.edges, stats.f_max, stats.l_max) == (1, 0, 0, 0)


def test_stats_star():
    k = 17
    stats = network_stats(generate_synthetic("star", k + 1))
    assert (stats.edges, stats.f_max, stats.l_max) == (k, k, 1)


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
    assert np.array_equal(a.edge_follower, b.edge_follower)


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
        leaders = er200.leaders_of(user)
        expected = (er200.follower_count[leaders].sum() / len(leaders)
                    if len(leaders) else 0.0)
        assert er200.influence[user] == expected


def test_no_self_loops_or_duplicates(er200):
    assert np.all(er200.edge_follower != er200.leader_ids)
    keys = er200.edge_follower * er200.user_count + er200.leader_ids
    assert len(np.unique(keys)) == len(keys)


def test_write_read_round_trip(er200):
    buf = io.StringIO()
    write_edge_list(er200, buf)
    again = load_edge_list(io.StringIO(buf.getvalue()))
    assert np.array_equal(er200.follower_count, again.follower_count)
    assert np.array_equal(er200.leader_ids, again.leader_ids)


def test_from_edges_rejects_empty_node_set():
    with pytest.raises(EdgeListError):
        FollowNetwork.from_edges([], [], 0)


def test_follower_csr_is_the_transpose(er200):
    indptr, ids = er200.follower_csr
    assert ids.size == er200.edge_count
    for leader in range(er200.user_count):
        followers = ids[indptr[leader]:indptr[leader + 1]]
        assert followers.size == er200.follower_count[leader]
        assert np.all(np.diff(followers) > 0)
        for f in followers:
            assert leader in er200.leaders_of(f)


def _loop_load(text, direction):
    """Reference loader: the per-line parse, then np.unique compaction."""
    a, b = network._parse_lines(text)
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
# every character or line break that the line loop and np.loadtxt could
# read differently: extra line breaks (also non-ASCII ones, whose UTF-8
# bytes np.loadtxt would not see as one), inline '#', signs, '_',
# non-ASCII digits and blanks
_ODD = st.sampled_from(["#", " # c", "#x", "\r", "\r\n", "\n", "\x1c",
                        "\x0c", "\x85", "\u2028", "\xa0", "\u0661", "+",
                        "-", "_", " ", "\t", " 7", "0"])


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
    st.text("0123456789 \t\r\n#+-_\x1c\x0c\x85\xa0\u0661", max_size=30))


class TestLoaderMatchesLineLoop:
    """load_edge_list accepts, rejects and builds exactly as the line loop."""

    @settings(max_examples=400, deadline=None)
    @given(_EDGE_TEXT, st.sampled_from([DIRECTION_FOLLOWS,
                                        DIRECTION_FOLLOWED_BY]),
           st.booleans())
    @example("1 2\n", DIRECTION_FOLLOWS, False)
    @example("", DIRECTION_FOLLOWS, False)
    @example("# c\n\n", DIRECTION_FOLLOWS, True)
    @example("1 2 # c\n", DIRECTION_FOLLOWS, False)
    @example("1 2#x\n", DIRECTION_FOLLOWS, False)
    @example("-1 2\n", DIRECTION_FOLLOWS, False)
    @example("1 2 3\n", DIRECTION_FOLLOWS, False)
    @example("1\n", DIRECTION_FOLLOWS, False)
    @example("1 2\x1c3 4\n", DIRECTION_FOLLOWS, False)
    @example("1\x1c2\n", DIRECTION_FOLLOWS, False)
    @example("1\x0c2\n", DIRECTION_FOLLOWS, True)
    @example("1 2\r3 4\n", DIRECTION_FOLLOWS, True)
    @example("# a\r5 6\n3 4\n", DIRECTION_FOLLOWS, False)
    @example("1_000 2\n", DIRECTION_FOLLOWS, False)
    @example("\u0661 2\n", DIRECTION_FOLLOWS, False)
    @example("1 2\xa0\n", DIRECTION_FOLLOWS, True)
    @example("# c\x851 2\n3 4\n", DIRECTION_FOLLOWS, True)
    @example("+5 -0\n", DIRECTION_FOLLOWS, False)
    @example("9223372036854775808 1\n", DIRECTION_FOLLOWS, False)
    def test_differential(self, text, direction, as_bytes):
        want = _outcome(lambda: _loop_load(text, direction))
        source = (io.BytesIO(text.encode("utf-8")) if as_bytes
                  else io.StringIO(text))
        got = _outcome(lambda: load_edge_list(source, direction=direction))
        if isinstance(want, FollowNetwork):
            assert isinstance(got, FollowNetwork), got
            _assert_same_network(got, want)
        else:
            assert got == want

    @pytest.mark.parametrize("text", ["1 2\n3 4\n",
                                      "# header\n  # indented\n1 2\n",
                                      "1\t2\r\n# c\r\n3 4\r\n",
                                      " +5  0 \n\n"])
    def test_canonical_input_takes_the_fast_path(self, text):
        for raw in (text, text.encode("ascii")):
            a, b = network._parse_canonical(raw)
            want_a, want_b = network._parse_lines(text)
            assert np.array_equal(a, want_a) and np.array_equal(b, want_b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.lists(
    st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120))
def test_from_edges_dedup_matches_np_unique(n, pairs):
    followers = np.array([f % n for f, _ in pairs], dtype=np.int64)
    leaders = np.array([l % n for _, l in pairs], dtype=np.int64)
    net = FollowNetwork.from_edges(followers, leaders, n)
    keep = followers != leaders
    key = np.unique(followers[keep] * n + leaders[keep])
    assert np.array_equal(net.edge_follower, key // n)
    assert np.array_equal(net.leader_ids, key % n)
    assert net.edge_follower.dtype == net.leader_ids.dtype == np.int64
    assert np.array_equal(net.leader_count,
                          np.bincount(key // n, minlength=n))
