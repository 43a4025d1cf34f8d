"""Seeded input generators for the hashsim benchmark.

Every workload's edge list is written here from the workload seed alone, so
the same seed gives the same file bytes. The program under test only loads
the written file. Lines are "a b", meaning a follows b, the default edge
semantics of `hashsim.network.load_edge_list`.

Usage:
    python3 benchmarks/gen.py edges --workload NAME --seed N --out PATH
    python3 benchmarks/gen.py target --network PATH --out PATH

`edges` needs numpy only. `target` regenerates the committed fitting target
`benchmarks/data/target_er1000.csv` and needs hashsim on the path; the
benchmark never calls it, because the target is input data, not output of the
commit under test.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

# (kind, nodes, lines, out_exp, in_exp). For Chung-Lu graphs node i gets
# weight (i + 1) ** -exp before a random relabelling, separately for out-
# (leaders followed) and in- (followers) weights; in_exp sets the hub size.
NETWORKS = {
    "scan_er1000": ("er", 1_000, None, None, None),
    "ensemble_dense_pa20k": ("chung_lu", 20_000, 296_000, 0.5, 0.78),
    "snap_scale": ("chung_lu", 81_306, 1_768_149, 0.5, 0.78),
}
ER_MEAN_OUT_DEGREE = 20.0

# Separate streams per purpose so adding one draw never shifts another.
_STREAM_EDGES, _STREAM_IDS = 1, 2


def erdos_renyi(rng: np.random.Generator, n: int, mean_out_degree: float):
    """Directed G(n, p) with p = mean_out_degree / (n - 1), no self-loops."""
    p = mean_out_degree / (n - 1)
    adj = rng.random((n, n)) < p
    np.fill_diagonal(adj, False)
    return np.nonzero(adj)


def chung_lu(rng: np.random.Generator, n: int, lines: int, out_exp: float,
             in_exp: float):
    """Directed Chung-Lu multigraph with power-law out- and in-weights.

    The first n lines give every node one out-edge, so all n ids occur in the
    file; the rest draw both ends by weight. Self-loops are redirected to the
    next node. Duplicate lines are kept, as in raw crawled edge lists; the
    loader collapses them.
    """
    ranks = np.arange(1, n + 1, dtype=float)
    w_out = rng.permutation(ranks ** -out_exp)
    w_in = rng.permutation(ranks ** -in_exp)
    extra = lines - n
    src = np.concatenate((rng.permutation(n),
                          _weighted_draw(rng, w_out, extra)))
    dst = _weighted_draw(rng, w_in, lines)
    dst = np.where(dst == src, (dst + 1) % n, dst)
    return src, dst


def _weighted_draw(rng, weights, size):
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"),
                      weights.size - 1)


def edge_list(workload: str, seed: int):
    """Return (a, b) id arrays for a workload: line k is "a[k] b[k]"."""
    kind, n, lines, out_exp, in_exp = NETWORKS[workload]
    edges_rng = np.random.default_rng([seed, _STREAM_EDGES])
    if kind == "er":
        return erdos_renyi(edges_rng, n, ER_MEAN_OUT_DEGREE)
    src, dst = chung_lu(edges_rng, n, lines, out_exp, in_exp)
    # SNAP-like ids: distinct 9- and 10-digit integers, so the parse sees
    # realistic token lengths.
    ids_rng = np.random.default_rng([seed, _STREAM_IDS])
    ids = ids_rng.choice(np.int64(2**31 - 10**8), size=n, replace=False)
    ids += 10**8
    return ids[src], ids[dst]


def graph_stats(a, b) -> dict:
    """Nodes, edges after self-loop removal and dedup, f_max and l_max.

    Computed from the generated arrays alone, so generator drift shows even
    when the program's loader changes.
    """
    ids, inv = np.unique(np.concatenate((a, b)), return_inverse=True)
    n = ids.size
    f, l = inv[:a.size], inv[a.size:]
    keep = f != l
    key = np.unique(f[keep].astype(np.int64) * n + l[keep])
    follower_count = np.bincount(key % n, minlength=n)
    leader_count = np.bincount(key // n, minlength=n)
    return {"nodes": int(n), "lines": int(a.size), "edges": int(key.size),
            "f_max": int(follower_count.max()),
            "l_max": int(leader_count.max())}


def write_edges(a, b, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(map("{} {}".format, a.tolist(), b.tolist())))
        fh.write("\n")


def write_target(network_path: str, out_path: str) -> None:
    """50-run ensemble at the planted triplet, as a hashtag CSV."""
    from hashsim import ModelParams, load_edge_list, run_ensemble

    net = load_edge_list(network_path)
    profile = run_ensemble(net, ModelParams(lam=0.5, eta_star=10.0,
                                            delta_t=2), 0, 50)
    profile.to_csv(out_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gen.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("edges")
    p.add_argument("--workload", choices=sorted(NETWORKS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("target")
    p.add_argument("--network", required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.cmd == "target":
        write_target(args.network, args.out)
        return 0
    a, b = edge_list(args.workload, args.seed)
    write_edges(a, b, args.out)
    print(json.dumps(graph_stats(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
