"""Slow per-user reference simulator used as an oracle for the engine.

Walks users one at a time in any given order, applying the scalar behavior
functions directly. Because draws are addressed by (seed, user, day, slot),
this must reproduce the vectorized engine bit for bit, for any user order.

Also a strict per-line edge-list parser, the oracle for load_edge_list.
"""

import re

import numpy as np

from hashsim import EdgeListError, rng
from hashsim.behavior import (activeness, hesitancy, interest,
                              per_retweet_probability)
from hashsim.engine import ActivityProfile

_NEVER = -100

# an edge-list line without its end: two ids, then an optional comment
_BLANKS = "[ \t\x0b\x0c\x1c-\x1f]"
_ID = "([+-]?[0-9]+)"
_EDGE_LINE = re.compile(f"{_BLANKS}*{_ID}{_BLANKS}+{_ID}{_BLANKS}*(#.*)?")
_BLANK_LINE = re.compile(f"{_BLANKS}*(#.*)?")


def edge_followers(net):
    """The follower of each entry of net.leader_ids: its leader-CSR row."""
    return np.repeat(np.arange(net.user_count), net.leader_count)


def parse_edge_list(data: bytes) -> np.ndarray:
    """The (m, 2) int64 id pairs of edge-list bytes, read line by line.

    A line ends at '\\n' or '\\r\\n'. It must be ASCII and hold no
    other '\\r'. Before an optional '#' comment, it is blank or holds two
    ids in [0, 2^63 - 1]. Raises EdgeListError with the number of the
    first line that is not, or with none when no line holds an edge.
    """
    lines = data.split(b"\n")
    ends = [b"\n"] * (len(lines) - 1) + [b""]
    pairs = []
    for lineno, (line, end) in enumerate(zip(lines, ends), start=1):
        if end and line.endswith(b"\r"):
            line = line[:-1]
        text = line.decode("latin-1")
        if not text.isascii() or "\r" in text:
            raise EdgeListError("bad byte", lineno)
        if _BLANK_LINE.fullmatch(text):
            continue
        match = _EDGE_LINE.fullmatch(text)
        if match is None:
            raise EdgeListError("not two ids", lineno)
        pair = [int(match[1]), int(match[2])]
        if not all(0 <= v < 2**63 for v in pair):
            raise EdgeListError("id out of range", lineno)
        pairs.append(pair)
    if not pairs:
        raise EdgeListError("no edges")
    return np.array(pairs, dtype=np.int64)


def binomial_cdf(n, p):
    """CDF(0), ..., CDF(n) of Binomial(n, p), 0 < p < 1, one k at a time.

    Python floats round like float64 arrays for + - * /, and (1 - p) ** n
    is taken on 1-element arrays, the engine's power, so each value must
    equal the engine's bit for bit.
    """
    ratio = p / (1.0 - p)
    pmf = float(((1.0 - np.array([p])) ** np.array([n]))[0])
    cdf = pmf
    yield cdf
    for k in range(n):
        pmf = pmf * (n - k) / (k + 1) * ratio
        cdf += pmf
        yield cdf


def binomial_reference(u, n, p):
    """Inverse-CDF Binomial(n, p) draw: the smallest k with CDF(k) >= u."""
    if p >= 1.0:
        return n
    if not p > 0.0:
        return 0
    for k, cdf in enumerate(binomial_cdf(n, p)):
        if not u > cdf:
            return k
    return n


def retweet_count_reference(eta, y, eta_star, influence):
    """nu of one user that passed the gate, on Python numbers.

    floor(sqrt((eta/eta_star) * (y/(eta_star*influence)))), bumped to 1,
    and 1 where influence is 0.
    """
    if influence == 0:
        return 1
    return max(int(np.floor(np.sqrt(
        (eta / eta_star) * (y / (eta_star * influence))))), 1)


def simulate_reference(net, params, seed, user_order=None):
    n = net.user_count
    order = range(n) if user_order is None else user_order
    streams = rng.stream_matrix([seed], n)[0]
    f_arr, l_arr = net.follower_count, net.leader_count
    infl = net.influence

    a_vals = np.zeros(n)
    h_vals = np.zeros(n)
    for i in range(n):
        h_vals[i] = hesitancy(int(l_arr[i]), int(f_arr[i]))
        if net.f_max > 0:
            a_vals[i] = activeness(int(f_arr[i]), int(l_arr[i]),
                                   net.f_max, net.l_max)

    last = np.full(n, _NEVER, dtype=np.int64)
    acts = np.zeros(15)
    dist = np.zeros(15)
    for day_index, d in enumerate(range(-7, 8)):
        if d < -params.delta_t:
            continue
        tau = interest(float(d), params.lam)
        chi = params.chi(float(d))
        new_last = last.copy()
        day_acts = 0
        day_users = 0
        for i in order:
            t_i = min(max(params.sigma * tau - h_vals[i], 0.0), 1.0)
            u_exp = rng.uniforms(streams[i], day_index, 0)
            u_twt = rng.uniforms(streams[i], day_index, 1)
            tweeted = bool(u_exp < a_vals[i] * chi) and bool(u_twt < t_i)

            y = 0.0
            eta = 0
            lo, hi = net.leader_indptr[i], net.leader_indptr[i + 1]
            for j in net.leader_ids[lo:hi]:
                if last[j] > last[i]:
                    eta += 1
                    y += float(f_arr[j])
            retweets = 0
            if y > 0 and y >= params.eta_star * infl[i]:
                nu = retweet_count_reference(eta, y, params.eta_star, infl[i])
                # 1-element arrays: numpy's scalar power can differ from
                # its array power, which the engine uses, in the last bit
                r_each = per_retweet_probability(np.array([t_i]),
                                                 np.array([nu]))[0]
                u_rt = rng.uniforms(streams[i], day_index, 2)
                retweets = binomial_reference(float(u_rt), nu, float(r_each))

            if tweeted or retweets:
                new_last[i] = d
                day_users += 1
                day_acts += int(tweeted) + retweets
        last = new_last
        acts[day_index] = day_acts
        dist[day_index] = day_users
    return ActivityProfile(acts, dist)
