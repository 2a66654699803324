"""Every CSV and plot-data file of one small ``lacspec run`` config per
experiment kind, at a fixed seed, against its recorded sha256.

A refactor must leave these bytes alone.  A change that means to move an
output updates its pin here and says why in CHANGES.md.
"""

import hashlib
import json

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
        "lambda_min_vs_measure.dat": "ae40cfa831d9721bd1f813847e7314a872224d31c15c56448c1474fb3d3b50e2",
        "nazarov_sweep.csv": "5cb9815938f391af2a168231b991afb6807855021f4266f3dae4a1434d962f9b",
    },
    "greedy_growth": {
        "greedy_growth.csv": "518bb567b02861e32cc66a22feb32ea048aac83c74997aecc3659c4fcb096043",
        "greedy_growth_vs_bound.dat": "f0049dbf59d09bdbb22f3c3c762d4acc961c54769cc200f2a96790354cc19c1c",
    },
    "ls_gamma_sweep": {
        "constant_vs_gamma.dat": "d1420b0f09829ed9d0ec6c4acf6d08f246e3887355df7dbd7f8adec4d01ce4e3",
        "ls_gamma_sweep.csv": "88a3c956f1c743962f5c9074458e36dc69c692e0fe80ba44e8d0b0606c0297f1",
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
