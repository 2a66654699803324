"""Every CSV and plot-data file of one small ``lacspec run`` config per
experiment kind, at a fixed seed, against its recorded sha256.

A refactor must leave these bytes alone.  A change that means to move an
output updates its pin here and says why in CHANGES.md.
"""

import csv
import hashlib
import json
import sys

import pytest

from lacspec import cli

GEOMETRIC = {"builder": "geometric", "start": 4, "ratio": 4, "count": 3}
COMB = {"pattern": "comb", "gamma": 0.5, "delta": 1.0}

CONFIGS = {
    "nazarov_sweep": {
        "sequence": {"builder": "geometric", "start": 1, "ratio": 2, "count": 8},
        "set": {"pattern": "prefix", "measures": [0.25, 0.5, 0.75]},
    },
    "greedy_growth": {"params": {"count": 40, "schedule": [[1, 1], [8, 2]]}},
    "ls_gamma_sweep": {
        "grid": {"period": 8.0, "samples": 1024},
        "set": {"pattern": "comb", "gammas": [0.25, 0.5], "delta": 1.0},
        "params": {"profile": {"sequence": {"builder": "geometric", "start": 2, "ratio": 3,
                                            "count": 3}}},
    },
    "lemma_margins": {
        "sequence": GEOMETRIC,
        "grid": {"period": 16.0, "samples": 4096},
        "set": COMB,
        "ensemble": {"trials": 8, "seed": 7},
        "params": {"L": 4, "c2_candidates": [0.5, 1.0]},
    },
    "theorem_split": {
        "sequence": {**GEOMETRIC, "count": 4},
        "grid": {"period": 8.0, "samples": 131072},
        "set": COMB,
        "ensemble": {"trials": 6, "seed": 7},
        "params": {"L": 1, "schedule": [[1, 2]]},
    },
    "carleman_denjoy": {"params": {"N": 30, "T_max": 1000.0}},
}

PINS = {
    "nazarov_sweep": {
        "lambda_min_vs_measure.dat": "96d3f1f9d86ac40b879d6df0ebe1a1bcb118aa558e994c11cecb69aaf730c4c3",
        "nazarov_sweep.csv": "5425ca1763589e828f148a72bc4b77cbac40d00baa5ee7b473da0dac2847753e",
    },
    "greedy_growth": {
        "greedy_growth.csv": "518bb567b02861e32cc66a22feb32ea048aac83c74997aecc3659c4fcb096043",
        "greedy_growth_vs_bound.dat": "f0049dbf59d09bdbb22f3c3c762d4acc961c54769cc200f2a96790354cc19c1c",
    },
    "ls_gamma_sweep": {
        "constant_vs_gamma.dat": "e969bd8443804c04b76102fa52aa9571e9b2bfbbf2fa173ce63b2fc4c37136de",
        "ls_gamma_sweep.csv": "2399a818448a5dd12b93a1771eb6fd75ede6939af4acafc6ea4fa9447db5baf5",
    },
    "lemma_margins": {
        "lemma_margin_summary.csv": "34cbd36407fb2db9aa9f3e77d9b1cb950a9f5dbdb856d0d7c33d231080c303bf",
        "lemma_margins.csv": "6000c5a3f5aa33e7f5d58f167b9d7a2a1f3ef56a4987ab6ec21bc903b196f4c9",
        "min_margin_vs_c2.dat": "a37a42287475b8b406e49c463d58d8768153758cfc3c3823758e39801e832d01",
    },
    "theorem_split": {
        "ratio_per_trial.dat": "dbc3db0711b89645f942cca52f5a773a94da17daffcae18680b3bac61d0109fa",
        "theorem_split.csv": "75721ecd20f79c2c20c40296b3669c3c7093c5eeac4e0889c4be69574387c4a3",
    },
    "carleman_denjoy": {
        "carleman_denjoy.csv": "3ffb61efb3594606f3f1bb23772b2b937c533bc2c7daea310dd832e41624f0e2",
        "carleman_proxy.csv": "21d82a81427b020897c9b2c2d0b9c5850c4c35efe971d3e4e77b1f40e51aa567",
        "partial_sums.dat": "00640893ebf5150c4151dad4e222c10fb4085287c4f22d368e875a70000df0d0",
    },
}


def run_outputs(kind, base_dir) -> dict:
    """sha256 of every file but the manifest that ``lacspec run`` writes for
    the config of ``kind``."""
    config = {"version": 1, "kind": kind, "output_dir": "out", **CONFIGS[kind]}
    path = base_dir / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path), "--base-dir", str(base_dir)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((base_dir / "out").iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_run_outputs_are_the_pinned_bytes(kind, tmp_path):
    assert run_outputs(kind, tmp_path) == PINS[kind]


def test_nazarov_sweep_lambda_min_is_the_exact_eigenvalue(tmp_path):
    """The pinned lambda_min of each measure m lies within 8 eps ||G|| of
    the least eigenvalue of the exact Gram matrix of 1, 2, ..., 128 on
    [0, m], an mpmath Hermitian eigensolve at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    run_outputs("nazarov_sweep", tmp_path)
    with open(tmp_path / "out" / "nazarov_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    freqs = [2**k for k in range(8)]
    assert [float(r[0]) for r in rows] == [0.25, 0.5, 0.75]
    with mpmath.workdps(50):
        for measure, lambda_min, *_ in rows:
            m = mpmath.mpf(measure)
            G = mpmath.matrix([[m if f == g else (mpmath.expjpi(2 * (f - g) * m) - 1)
                                / (2j * mpmath.pi * (f - g)) for g in freqs] for f in freqs])
            eigenvalues = mpmath.eighe(G, eigvals_only=True)
            norm = float(max(eigenvalues))
            assert abs(float(lambda_min) - min(eigenvalues)) <= 8 * sys.float_info.epsilon * norm


def test_ls_sweep_lambda_min_is_the_exact_eigenvalue(tmp_path):
    """The pinned lambda_min of each gamma lies within 8 eps ||G|| of the
    least eigenvalue of the exact compression to the profile bins over the
    comb of 8 blocks [j, j + gamma] of [0, 8], solved class by class (bins
    mod 8) by an mpmath Hermitian eigensolve at 50 digits.  Measured at
    gamma = 0.25 and 0.5: the pinned values, solved by class, are off by
    0.57 and 0.96 eps ||G||; the dense n x n form of the same set is closer,
    at 0.008 and 0.22 eps ||G||."""
    mpmath = pytest.importorskip("mpmath")
    run_outputs("ls_gamma_sweep", tmp_path)
    with open(tmp_path / "out" / "ls_gamma_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # the unit bands [2, 3], [6, 7] and [18, 19] at T = 8
    bins = [k for lam in (2, 6, 18) for k in range(8 * lam, 8 * lam + 9)]
    classes = [[k for k in bins if k % 8 == r] for r in range(8)]
    assert [float(r[0]) for r in rows] == [0.25, 0.5]
    with mpmath.workdps(50):
        for gamma, lambda_min, *_ in rows:
            g = mpmath.mpf(gamma)
            eigenvalues = []
            for members in classes:
                # entry (k, m): the integral of e^{2 pi i j u} over [0, gamma], j = (k - m)/8
                G = mpmath.matrix([[g if k == m else (mpmath.expjpi(2 * g * ((k - m) // 8)) - 1)
                                    / (2j * mpmath.pi * ((k - m) // 8)) for m in members]
                                   for k in members])
                eigenvalues.extend(mpmath.eighe(G, eigvals_only=True))
            norm = float(max(eigenvalues))
            assert abs(float(lambda_min) - min(eigenvalues)) <= 8 * sys.float_info.epsilon * norm
