"""Every CSV and plot-data file of one small ``lacspec run`` config per
experiment kind, at a fixed seed, against its recorded sha256.

A refactor must leave these bytes alone.  A change that means to move an
output updates its pin here and says why in CHANGES.md.
"""

import csv
import hashlib
import json
import sys

import numpy as np
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
        "lambda_min_vs_measure.dat": "51580c5ca2ce90df006fdc1c423ede8f001f17901275134e709af6818de5660f",
        "nazarov_sweep.csv": "47a5436bf0687b47b066aa537e1128b4594bcf90e0b52e34aad110688a02c49b",
    },
    "greedy_growth": {
        "greedy_growth.csv": "518bb567b02861e32cc66a22feb32ea048aac83c74997aecc3659c4fcb096043",
        "greedy_growth_vs_bound.dat": "f0049dbf59d09bdbb22f3c3c762d4acc961c54769cc200f2a96790354cc19c1c",
    },
    "ls_gamma_sweep": {
        "constant_vs_gamma.dat": "3871daa2cf0ce28c0a9bd62137c7d06a4603e2435ace85a264a609c84ae08180",
        "ls_gamma_sweep.csv": "ccc45ca4b9ea8072301f4aee09a1307173b98576fbca70b39de0f8d92d0ac9b9",
    },
    "lemma_margins": {
        "lemma_margin_summary.csv": "3ce8fde4561d9bdf9d0b7a407796f7cd00e6582e12ed54d3913004bc52018f8f",
        "lemma_margins.csv": "9206b097a7273b36776f757b756e2f3b1e61865f515831255008b127bfe81f36",
        "min_margin_vs_c2.dat": "8f0762ff4285945624a164bee5d7a34ef8d1112ec62d9a4b6d5ff08a6d1416a0",
    },
    "theorem_split": {
        "ratio_per_trial.dat": "4e41701372f0eb0cfd718ce7e54b65e21981dbf633c28f4c56acd16e960ac1f3",
        "theorem_split.csv": "ed230065de78faa5bbb49a23fe4cefff00d2d52bc16a807e48e02d4dfadfa824",
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
    0.49 and 0.96 eps ||G||; the dense n x n form of the same set is closer,
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


def mp_quadratic_form(mpmath, coeffs, freqs, intervals):
    """sum_{p,q} c_p conj(c_q) times the integral of e^{2 pi i (f_p - f_q) x}
    over the intervals, each integral in closed form at the working
    precision: (e^{2 pi i d b} - e^{2 pi i d a}) / (2 pi i d), or b - a at d = 0."""
    cache = {}

    def integral(d):
        if d not in cache:
            cache[d] = sum(b - a if d == 0 else (mpmath.expjpi(2 * d * b) - mpmath.expjpi(2 * d * a))
                           / (2j * mpmath.pi * d) for a, b in intervals)
        return cache[d]

    c = [mpmath.mpc(z) for z in coeffs]
    return mpmath.re(sum(cp * mpmath.conj(cq) * integral(fp - fq)
                         for cp, fp in zip(c, freqs) for cq, fq in zip(c, freqs)))


def pinned_rows(kind, tmp_path):
    run_outputs(kind, tmp_path)
    with open(tmp_path / "out" / f"{kind}.csv", newline="") as fh:
        return [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]


def trial_normals(seed, trial, widths):
    rng = np.random.Generator(np.random.Philox(key=[seed, trial]))
    return [rng.standard_normal(w) + 1j * rng.standard_normal(w) for w in widths]


def test_lemma_margins_terms_are_the_exact_integrals(tmp_path):
    """Each pinned trial's three terms are within 4e-15 (relative) of the
    integrals over I = [0, 1/4], inside the first block of the comb [0, 1/2]
    of the set, of the trial's functions at 50 digits: f_n on the 17 bins
    k/16 of [0, 1], modulated by lambda_n = 4, 16, 64.  Measured: 4.0e-16 at
    most."""
    mpmath = pytest.importorskip("mpmath")
    rows = pinned_rows("lemma_margins", tmp_path)
    with mpmath.workdps(50):
        I = [(mpmath.mpf(0), mpmath.mpf(1) / 4)]
        nus = [mpmath.mpf(k) / 16 for k in range(17)]
        for trial, lhs, density, sobolev, *_ in rows:
            coeffs = trial_normals(7, int(trial), [17] * 3)
            exact_lhs = mp_quadratic_form(
                mpmath, np.concatenate(coeffs), [lam + nu for lam in (4, 16, 64) for nu in nus], I)
            exact_density = sum(mp_quadratic_form(mpmath, c, nus, I) for c in coeffs)
            exact_sobolev = exact_density + sum(mp_quadratic_form(
                mpmath, c * (2j * np.pi * np.arange(17) / 16), nus, I) for c in coeffs)
            for got, want in ((lhs, exact_lhs), (density, exact_density),
                              (sobolev, exact_sobolev)):
                assert abs(got - float(want)) <= 4e-15 * float(want)


def test_theorem_split_ratios_are_the_exact_integrals(tmp_path):
    """Each pinned trial's ratio^2 is within 4e-15 (relative) of the integral
    of |F|^2 over the comb of 8 blocks [j, j + 1/2] of [0, 8] over its
    squared norm, at 50 digits: F on the 9 bins of each of [4, 5], [16, 17],
    [64, 65] and [256, 257] at T = 8.  Measured: 3.3e-16 at most."""
    mpmath = pytest.importorskip("mpmath")
    rows = pinned_rows("theorem_split", tmp_path)
    with mpmath.workdps(50):
        E = [(mpmath.mpf(j), mpmath.mpf(j) + mpmath.mpf(1) / 2) for j in range(8)]
        freqs = [lam + mpmath.mpf(k) / 8 for lam in (4, 16, 64, 256) for k in range(9)]
        for trial, ratio, *_ in rows:
            c = np.concatenate(trial_normals(7, int(trial), [9] * 4))
            norm = 8 * sum(abs(mpmath.mpc(z)) ** 2 for z in c.tolist())
            exact = mp_quadratic_form(mpmath, c, freqs, E) / norm
            assert abs(mpmath.mpf(ratio) ** 2 - exact) <= 4e-15 * exact
