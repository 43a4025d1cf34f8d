"""Fixed-seed outputs pinned by sha256, so that a numpy build (or CI leg)
that changes any output byte shows it here.

The digests are the bytes of numpy 2.4.6 on x86-64, with its AVX-512
kernels dispatched. numpy's `**` and `exp` can round differently at
another SIMD level or in another build. A draw, and so an output byte,
changes only where its uniform falls between two such neighbours, which
none of these outputs hit on the machine that measured them.
"""

import hashlib

import numpy as np
import pytest

from hashsim import (GridSpec, ModelParams, grid_scan, normalize,
                     run_ensemble, write_edge_list)
from hashsim.cli import main

_PARAMS = ModelParams(lam=0.5, eta_star=3.0, delta_t=1)
# 3 x 3 x 3 = 27 triplets, the grid of the fit below
_GRID = "lambda=0:1:0.5,eta=1:5:2,dt=0:2"
_DIGESTS = {
    "ensemble":
        "39ee5ae378a39d41328c761556218b4b4da674a559a198baa0aa01380c9bf4f0",
    "scan":
        "a08b6577e618af76133a6383eaeb843ed49a8f4adbfeae65abb832eb00aa74d5",
    "fit":
        "6e5199e24b1d048b089f81ad3f78e3193bf23eb64e31a4094ac96697bf93d173",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def ensemble(er1000):
    return run_ensemble(er1000, _PARAMS, 17, 20)


def test_ensemble_bytes(ensemble):
    data = ensemble.activities.tobytes() + ensemble.distinct_users.tobytes()
    assert _sha256(data) == _DIGESTS["ensemble"]


def test_scan_row_bytes(er1000, ensemble):
    grid = GridSpec(lambda_axis=[0.0, 0.5, 1.0], eta_axis=[1.0, 3.0, 5.0],
                    dt_axis=[0, 1, 2], runs=5)
    result = grid_scan(er1000, normalize(ensemble.activities),
                       normalize(ensemble.distinct_users), grid,
                       base_seed=8)
    rows = np.array(result.scan, dtype=np.float64)
    assert rows.shape == (27, 5)
    assert _sha256(rows.tobytes()) == _DIGESTS["scan"]


def test_fit_json_bytes(er1000, ensemble, tmp_path, capsys):
    """The whole CLI path: write, load, simulate, scan and report."""
    net, target = tmp_path / "er1000.txt", tmp_path / "target.csv"
    report = tmp_path / "fit.json"
    write_edge_list(er1000, net)
    ensemble.to_csv(target)
    assert main(["fit", "--network", str(net), "--hashtag", str(target),
                 "--name", "pinned", "--grid", _GRID, "--runs", "5",
                 "--seed", "8", "--out", str(report)]) == 0
    capsys.readouterr()
    assert _sha256(report.read_bytes()) == _DIGESTS["fit"]


@pytest.mark.parametrize("n, edge_prob, seed, digest", [
    (1, 0.5, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2049, 0.01, 3,
     "3d6d805a51e90d628b9b450bc9434e34ee36b4509fbf54089aca5f8d2b78e859"),
    (20000, 0.0005, 3,
     "ef6b876ba2721c09b133f3e6f66e6f262bf6bd3d25241372c8f637f6b0df56a1"),
])
def test_synth_bytes(tmp_path, n, edge_prob, seed, digest):
    """`hashsim synth` output, also that of an edgeless graph (empty)."""
    out = tmp_path / "net.txt"
    assert main(["synth", "--kind", "uniform-random", "--n", str(n),
                 "--edge-prob", str(edge_prob), "--seed", str(seed),
                 "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == digest
