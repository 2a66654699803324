import argparse
import copy
import gc
import json
import math
import re
import shutil
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import lacspec
from lacspec import cli, concentration, experiments, sets, uniqueness
from lacspec.errors import ConfigError, NumericalError
from lacspec.experiments import (
    ExperimentConfig,
    emit_plot_data,
    run,
)


def nazarov_config(outdir="out"):
    return {
        "version": 1,
        "kind": "nazarov_sweep",
        "output_dir": outdir,
        "sequence": {"builder": "geometric", "start": 1, "ratio": 2, "count": 6},
        "set": {"pattern": "prefix", "measures": [0.25, 0.5, 0.75]},
    }


def theorem_config(outdir="out"):
    return {
        "version": 1,
        "kind": "theorem_split",
        "output_dir": outdir,
        "sequence": {"builder": "geometric", "start": 4, "ratio": 4, "count": 3},
        "grid": {"period": 8.0, "samples": 2048},
        "set": {"pattern": "comb", "gamma": 0.5, "delta": 1.0},
        "ensemble": {"trials": 3, "seed": 7},
        "params": {"L": 1, "schedule": [[1, 2]]},
    }


def small_configs():
    """One small valid config per kind (two for ls_gamma_sweep's profiles)."""
    geo = {"builder": "geometric", "start": 4, "ratio": 4, "count": 2}
    grid = {"period": 2.0, "samples": 128}
    comb = {"pattern": "comb", "gamma": 0.5, "delta": 1.0}
    ensemble = {"trials": 2, "seed": 3}
    ls = {
        "version": 1, "kind": "ls_gamma_sweep", "output_dir": "o",
        "grid": {"period": 2.0, "samples": 32},
        "set": {"pattern": "comb", "gammas": [0.5], "delta": 1.0},
        "params": {"profile": {"band": [0, 1]}},
    }
    ls_sequence = copy.deepcopy(ls)
    ls_sequence["params"]["profile"] = {
        "sequence": {"builder": "geometric", "start": 2, "ratio": 3, "count": 2}
    }
    return {
        "nazarov_sweep": nazarov_config("o"),
        "greedy_growth": {
            "version": 1, "kind": "greedy_growth", "output_dir": "o",
            "params": {"count": 5, "schedule": [[1, 1], [2, 3]]},
        },
        "ls_gamma_sweep": ls,
        "ls_gamma_sweep_sequence": ls_sequence,
        "lemma_margins": {
            "version": 1, "kind": "lemma_margins", "output_dir": "o",
            "sequence": geo, "grid": grid, "set": comb, "ensemble": ensemble,
            "params": {"L": 2, "c2_candidates": [1.0]},
        },
        "theorem_split": {
            "version": 1, "kind": "theorem_split", "output_dir": "o",
            "sequence": geo, "grid": grid, "set": comb, "ensemble": ensemble,
            "params": {"L": 1, "schedule": [[1, 2]]},
        },
        "carleman_denjoy": {
            "version": 1, "kind": "carleman_denjoy", "output_dir": "o",
            "params": {"N": 5, "T_max": 10.0},
        },
    }


def paths(value, prefix=()):
    """Every key path into nested objects and lists."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def substituted(config, path, value):
    out = copy.deepcopy(config)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def run_cli(config, base_dir):
    cfg_path = Path(base_dir, "cfg.json")
    cfg_path.write_text(json.dumps(config))
    return cli.main(["run", str(cfg_path), "--base-dir", str(base_dir)])


class TestConfigValidation:
    def test_collects_all_violations(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(
                {"version": 2, "kind": "bogus", "output_dir": "", "mystery": 1}
            )
        text = "\n".join(exc.value.violations)
        assert "version" in text
        assert "kind" in text
        assert "output_dir" in text
        assert "mystery" in text

    def test_unknown_nested_key_rejected(self):
        cfg = nazarov_config()
        cfg["sequence"]["surprise"] = True
        with pytest.raises(ConfigError, match="surprise"):
            ExperimentConfig.from_dict(cfg)

    def test_missing_required_section(self):
        cfg = nazarov_config()
        del cfg["set"]
        with pytest.raises(ConfigError, match="requires section 'set'"):
            ExperimentConfig.from_dict(cfg)

    def test_unused_section_rejected(self):
        cfg = nazarov_config()
        cfg["grid"] = {"period": 8.0, "samples": 64}
        with pytest.raises(ConfigError, match="not used"):
            ExperimentConfig.from_dict(cfg)

    def test_non_object_section_and_unhashable_kind_rejected(self):
        cfg = nazarov_config()
        cfg["set"] = "x"
        with pytest.raises(ConfigError, match="section 'set' must be a JSON object"):
            ExperimentConfig.from_dict(cfg)
        cfg = nazarov_config()
        cfg["kind"] = []
        with pytest.raises(ConfigError, match="kind must be one of"):
            ExperimentConfig.from_dict(cfg)

    def test_bad_measures_rejected(self):
        cfg = nazarov_config()
        cfg["set"]["measures"] = [0.5, 1.5]
        with pytest.raises(ConfigError, match="1.5"):
            ExperimentConfig.from_dict(cfg)

    @pytest.mark.parametrize(
        "kind, path, value, message",
        [
            ("theorem_split", ("set", "gamma"), None, "set: gamma must be a number"),
            ("theorem_split", ("params", "schedule"), True, "params: schedule must be a list"),
            ("greedy_growth", ("params", "count"), True, "params: count must be an integer"),
            ("ls_gamma_sweep_sequence", ("params", "profile", "sequence"), 5,
             "params.profile: section 'sequence' must be a JSON object"),
            ("theorem_split", ("ensemble", "trials"), True, "ensemble: trials must be an integer"),
            ("theorem_split", ("params", "L"), True, "params: L must be an integer"),
            ("ls_gamma_sweep", ("params", "profile", "band"), "x",
             "params.profile: band must be a list [number, number]"),
            ("lemma_margins", ("params", "c2_candidates"), ["x"],
             "params: c2_candidates[0] must be a number"),
        ],
    )
    def test_mistyped_value_exits_two_naming_section_and_key(
        self, tmp_path, capsys, kind, path, value, message
    ):
        config = substituted(small_configs()[kind], path, value)
        assert run_cli(config, tmp_path) == 2
        assert message in capsys.readouterr().err

    def test_all_violations_reported_at_once_in_nested_sections(self):
        cfg = small_configs()["theorem_split"]
        cfg["sequence"] = {"builder": "arithmetic", "start": 1, "ratio": 2, "count": 0}
        cfg["ensemble"]["seed"] = -1
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(cfg)
        assert exc.value.violations == [
            "sequence: key 'ratio' is not used with builder 'arithmetic'",
            "sequence: builder 'arithmetic' requires key 'step'",
            "sequence: count must lie in [1, inf), got 0",
            "ensemble: seed must lie in [0, 18446744073709551616), got -1",
        ]

    def test_set_pattern_must_suit_the_kind(self):
        cfg = small_configs()["theorem_split"]
        cfg["set"] = {"pattern": "full"}
        with pytest.raises(ConfigError, match=r"set: pattern must be one of \['comb'\]"):
            ExperimentConfig.from_dict(cfg)


SUBSTITUTES = ["x", [], {}, None, True, 0, -1, 5, 1.5]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestConfigFuzz:
    """Whatever the config, `lacspec run` exits 0, 2 or 3 and never raises."""

    @pytest.mark.parametrize("kind", sorted(small_configs()))
    def test_every_key_takes_every_substitute(self, tmp_path, capsys, kind):
        config = small_configs()[kind]
        assert run_cli(config, tmp_path) == 0
        for path in paths(config):
            for value in SUBSTITUTES:
                rc = run_cli(substituted(config, path, value), tmp_path)
                assert rc in (0, 2, 3), (path, value)
        capsys.readouterr()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=json_values)
    def test_any_json_value_as_the_whole_config(self, tmp_path, config):
        assert run_cli(config, tmp_path) in (0, 2, 3)


class TestRun:
    def test_deterministic_checksums(self, tmp_path):
        cfg = theorem_config("a")
        m1 = run(ExperimentConfig.from_dict(cfg), tmp_path)
        cfg2 = theorem_config("b")
        m2 = run(ExperimentConfig.from_dict(cfg2), tmp_path)
        assert m1.outputs["theorem_split.csv"] == m2.outputs["theorem_split.csv"]
        assert m1.outputs["ratio_per_trial.dat"] == m2.outputs["ratio_per_trial.dat"]

    def test_seed_changes_outputs(self, tmp_path):
        cfg = theorem_config("a")
        m1 = run(ExperimentConfig.from_dict(cfg), tmp_path)
        cfg2 = theorem_config("b")
        cfg2["ensemble"]["seed"] = 8
        m2 = run(ExperimentConfig.from_dict(cfg2), tmp_path)
        assert m1.outputs["theorem_split.csv"] != m2.outputs["theorem_split.csv"]

    def test_manifest_lists_every_output_with_checksum(self, tmp_path):
        manifest = run(ExperimentConfig.from_dict(nazarov_config()), tmp_path)
        outdir = tmp_path / "out"
        files = {p.name for p in outdir.iterdir()} - {"manifest.json"}
        assert files == set(manifest.outputs)
        import hashlib

        for name, digest in manifest.outputs.items():
            assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest
        on_disk = json.loads((outdir / "manifest.json").read_text())
        assert on_disk["outputs"] == manifest.outputs
        assert on_disk["generator"] == "philox4x64"

    def test_nyquist_violation_writes_nothing(self, tmp_path):
        cfg = theorem_config("nyq")
        cfg["grid"] = {"period": 8.0, "samples": 16}
        with pytest.raises(ConfigError, match="Nyquist"):
            run(ExperimentConfig.from_dict(cfg), tmp_path)
        assert not (tmp_path / "nyq").exists()

    @pytest.mark.parametrize("band, message", [
        ([0, 8], r"^grid: Nyquist violation: bin 16 needs 2\|k\| < S = 32"),
        ([0.1, 0.2], "^grid: band holds no grid frequencies$"),
    ])
    def test_ls_sweep_band_the_grid_does_not_resolve_writes_nothing(self, tmp_path, band,
                                                                      message):
        cfg = small_configs()["ls_gamma_sweep"]  # T = 2, S = 32
        cfg["params"]["profile"]["band"] = band
        with pytest.raises(ConfigError, match=message):
            run(ExperimentConfig.from_dict(cfg), tmp_path)
        assert not (tmp_path / "o").exists()

    def test_csv_headers_name_units(self, tmp_path):
        run(ExperimentConfig.from_dict(nazarov_config()), tmp_path)
        header = (tmp_path / "out" / "nazarov_sweep.csv").read_text().splitlines()[0]
        assert "[" in header and "eigenvalue" in header

    def test_greedy_growth_table(self, tmp_path):
        cfg = {
            "version": 1,
            "kind": "greedy_growth",
            "output_dir": "g",
            "params": {"count": 12},
        }
        run(ExperimentConfig.from_dict(cfg), tmp_path)
        rows = (tmp_path / "g" / "greedy_growth.csv").read_text().splitlines()
        assert len(rows) == 13
        first = rows[1].split(",")
        assert first[0] == "1" and first[1] == "1"

    def test_carleman_denjoy_outputs(self, tmp_path):
        cfg = {
            "version": 1,
            "kind": "carleman_denjoy",
            "output_dir": "cd",
            "params": {"N": 20, "T_max": 100.0},
        }
        manifest = run(ExperimentConfig.from_dict(cfg), tmp_path)
        assert {"carleman_denjoy.csv", "carleman_proxy.csv", "partial_sums.dat"} <= set(
            manifest.outputs
        )


class TestEmitPlotData:
    def test_two_column_sorted(self, tmp_path):
        rows = [{"gamma": 0.8, "C": 1.5}, {"gamma": 0.2, "C": 9.0}]
        path = emit_plot_data(rows, ("gamma", "C"), tmp_path / "p.dat")
        lines = path.read_text().splitlines()
        assert lines[0] == "# gamma C"
        assert lines[1].startswith("0.2") and lines[2].startswith("0.8")

    def test_three_column(self, tmp_path):
        rows = [{"n": 1, "v": 2.0, "b": 4.0}]
        path = emit_plot_data(rows, ("n", "v", "b"), tmp_path / "p.dat")
        assert path.read_text().splitlines()[1] == "1 2.0 4.0"

    def test_missing_column(self, tmp_path):
        with pytest.raises(ValueError, match="missing column"):
            emit_plot_data([{"x": 1}], ("x", "y"), tmp_path / "p.dat")

    def test_empty_table(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            emit_plot_data([], ("x", "y"), tmp_path / "p.dat")


class TestCliMain:
    def test_seq_build_greedy(self, capsys):
        assert cli.main(["seq", "build", "--builder", "greedy", "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert out.split() == ["1", "3", "7", "15"]

    def test_seq_check_zygmund(self, capsys):
        rc = cli.main(
            ["seq", "check", "--builder", "counterexample", "--K", "3",
             "--kind", "zygmund", "--L", "1"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["constant"] == 3

    def test_seq_check_strong(self, capsys):
        rc = cli.main(
            ["seq", "check", "--builder", "geometric", "--start", "4",
             "--ratio", "4", "--count", "8", "--kind", "strong",
             "--L-values", "1,2,4"]
        )
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["constant"] for r in reports] == [1, 1, 1]

    @pytest.mark.parametrize("argv, constant", [
        (["--kind", "zygmund", "--builder", "arithmetic",
          "--start", str(2**63), "--count", "4"], 6),
        (["--kind", "strong", "--builder", "counterexample", "--K", "40",
          "--schedule", "1:79"], [1, 1, 1]),
    ])
    def test_seq_check_values_past_int64(self, capsys, argv, constant):
        assert cli.main(["seq", "check", *argv]) == 0
        out = json.loads(capsys.readouterr().out)
        got = [r["constant"] for r in out] if isinstance(out, list) else out["constant"]
        assert got == constant

    def test_set_gamma(self, capsys):
        rc = cli.main(
            ["set", "gamma", "--pattern", "comb", "--gamma", "0.5",
             "--delta", "1", "--window", "0,4"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma"] == pytest.approx(0.5)
        assert out["gamma_2delta"] == pytest.approx(0.5)

    def test_set_partition(self, capsys):
        rc = cli.main(
            ["set", "partition", "--pattern", "comb", "--gamma", "0.5",
             "--delta", "1", "--window", "0,4", "--L", "4"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert all(g == [0, 1] for g in out["good_indices"])

    def test_synth_check(self, capsys):
        rc = cli.main(
            ["synth", "check", "--builder", "geometric", "--start", "4",
             "--ratio", "4", "--count", "3", "--period", "16",
             "--samples", "4096", "--seed", "5"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["support_within_declared"] is True
        assert out["leakage"] <= 1e-8

    def test_conc_nazarov(self, capsys):
        rc = cli.main(
            ["conc", "nazarov", "--builder", "arithmetic", "--start", "0",
             "--step", "1", "--count", "2", "--pattern", "intervals",
             "--intervals", "0,0.5", "--window", "0,1"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lambda_min"] == pytest.approx(0.5 - 1 / 3.141592653589793)

    def test_conc_gram_writes_matrix(self, tmp_path, capsys):
        target = tmp_path / "gram.txt"
        rc = cli.main(
            ["conc", "gram", "--builder", "arithmetic", "--start", "0",
             "--step", "1", "--count", "3", "--pattern", "full",
             "--window", "0,1", "-o", str(target)]
        )
        assert rc == 0
        assert target.read_text().splitlines()[0] == "3"

    def test_conc_ls(self, capsys):
        rc = cli.main(
            ["conc", "ls", "--period", "8", "--samples", "256",
             "--band", "0,1", "--pattern", "comb", "--gamma", "0.5",
             "--delta", "1"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["lambda_min"] > 0

    def test_uniq_condition(self, capsys):
        rc = cli.main(
            ["uniq", "condition", "--builder", "geometric", "--start", "4",
             "--ratio", "4", "--count", "10"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["first_failure"] is None

    def test_uniq_cd_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "cd.csv"
        rc = cli.main(["uniq", "cd", "--N", "200", "--T-max", "1e4",
                       "-o", str(target)])
        assert rc == 0
        cfg = {"version": 1, "kind": "carleman_denjoy", "output_dir": "cd",
               "params": {"N": 200, "T_max": 1e4}}
        run(ExperimentConfig.from_dict(cfg), tmp_path)
        assert target.read_bytes() == (tmp_path / "cd" / "carleman_denjoy.csv").read_bytes()

    def test_uniq_cd_refuses_an_untrusted_proxy_integral(self, capsys, monkeypatch):
        def distrusted_past_1e23(edges):
            pieces, check = quad(edges)
            check[np.exp(edges[1:]) > 2e23] *= 1 + 1e-9  # the rules disagree there
            return pieces, check

        quad = uniqueness.quad
        monkeypatch.setattr(uniqueness, "quad", distrusted_past_1e23)
        assert cli.main(["uniq", "cd", "--N", "5", "--T-max", "1e40"]) == 3
        err = capsys.readouterr().err
        assert ("numerical failure: T_max 1e+40: the proxy integral over [1e+23, 1e+24] "
                "is unreliable: the 20- and 10-point Gauss-Legendre rules differ by 1.0e-09 "
                "relative") in err

    @pytest.mark.parametrize("T_max", [1e24, 1e40, 1e300, 1.7e308])
    def test_uniq_cd_integrates_the_proxy_past_1e24(self, capsys, T_max):
        from scipy.integrate import quad

        # one scipy quad call over [1, T_max] gives up from 1e24 on; the
        # integral is finite, and with u = log t it is that of the smooth
        # 1 / log(e + e^u) over [0, log T_max], which one quad call integrates
        # at once; in u nothing overflows, up to the largest floats
        assert cli.main(["uniq", "cd", "--N", "5", "--T-max", repr(T_max)]) == 0
        t, value = json.loads(capsys.readouterr().out)["integral_proxy"][-1]
        want, _ = quad(lambda u: 1 / math.log(math.e + math.exp(u)), 0.0, math.log(T_max),
                       epsabs=0.0, epsrel=1e-13, limit=200)
        assert t == T_max
        assert value == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("argv, value", [
        (["--count", "0", "--T", "inf"], "inf"),
        (["--count", "3", "--T", "2"], "-inf"),
    ])
    def test_uniq_omega_prints_valid_json(self, capsys, argv, value):
        rc = cli.main(["uniq", "omega", "--builder", "geometric", "--start", "16",
                       "--ratio", "8"] + argv)
        assert rc == 0
        out = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert out["domination_constant"] == value

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(nazarov_config()))
        rc = cli.main(["run", str(cfg_path), "--base-dir", str(tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "nazarov_sweep.csv" in out["outputs"]

    def test_validation_failure_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        bad = nazarov_config()
        bad["version"] = 99
        cfg_path.write_text(json.dumps(bad))
        rc = cli.main(["run", str(cfg_path), "--base-dir", str(tmp_path)])
        assert rc == 2
        assert "version" in capsys.readouterr().err

    def test_non_object_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps([nazarov_config()]))
        rc = cli.main(["run", str(cfg_path), "--base-dir", str(tmp_path)])
        assert rc == 2
        assert "top level must be a JSON object" in capsys.readouterr().err

    def test_mistyped_ratio_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        bad = nazarov_config()
        bad["sequence"]["ratio"] = "x"
        cfg_path.write_text(json.dumps(bad))
        rc = cli.main(["run", str(cfg_path), "--base-dir", str(tmp_path)])
        assert rc == 2
        assert "ratio must be a number, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["conc", "theorem", "--schedule", "1"],
             "--schedule must have the form L:M,L:M,..."),
            (["seq", "check", "--kind", "strong", "--schedule", "1:x"],
             "--schedule must have the form L:M,L:M,..."),
            (["conc", "nazarov", "--pattern", "intervals", "--intervals", "0,0.5;0.7"],
             "--intervals must have the form a,b;c,d;..."),
            (["set", "gamma", "--window", "0"], "--window must have the form a,b"),
            (["conc", "ls", "--band", "0"], "--band must have the form a,b"),
            (["conc", "lemma", "--seed", "-1"], "--seed must be an integer in [0, 2**64)"),
            (["conc", "lemma", "--builder", "geometric", "--start", "4", "--L", "0"],
             "error: L must be a positive integer"),
            (["seq", "check", "--builder", "geometric", "--start", "4", "--ratio", "4",
              "--count", "3", "--kind", "hadamard", "--q", "nan"],
             "error: ratio threshold q must be finite and exceed 1, got nan"),
            (["seq", "check", "--builder", "geometric", "--start", "4", "--ratio", "4",
              "--count", "3", "--kind", "hadamard", "--q", "inf"],
             "error: ratio threshold q must be finite and exceed 1, got inf"),
            (["seq", "check", "--kind", "strong", "--L-values", "a"],
             "--L-values must have the form L,L,... with integers L >= 1"),
        ],
    )
    def test_malformed_flag_exits_two_naming_it(self, capsys, argv, message):
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["conc", "ls", "--period", "nan"], "error: period must be positive and finite"),
        (["conc", "theorem", "--period", "inf"], "error: period must be positive and finite"),
        (["uniq", "omega", "--builder", "geometric", "--start", "16", "--ratio", "8",
          "--count", "4", "--T", "nan"], "error: T must exceed 1"),
        (["uniq", "cd", "--N", "5", "--T-max", "nan"], "error: T_max must be finite and exceed 1"),
        (["uniq", "cd", "--N", "5", "--T-max", "inf"], "error: T_max must be finite and exceed 1"),
        (["set", "gamma", "--pattern", "intervals", "--intervals", "0,0.5;nan,1"],
         "error: interval (nan, 1.0) has a non-finite end"),
        (["set", "gamma", "--window", "nan,1"], "error: window (nan, 1.0) has a non-finite end"),
    ])
    def test_non_finite_input_exits_two_naming_it(self, capsys, argv, message):
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("record, message", [
        ({}, "missing key 'intervals'"),
        ({"intervals": 5, "window": [0, 1]},
         "intervals must be a list [[number, number], ...], got 5"),
        ({"intervals": [[0, "1/2"]], "window": [0, 1]},
         "intervals[0][1] must be a number, got '1/2'"),
        ([[0, 0.5]], "top level must be a JSON object, got [[0, 0.5]]"),
        ({"intervals": [[0, 0.5]], "window": [0, 1], "periodic": "no"},
         "periodic must be one of [true, false], got 'no'"),
        ({"intervals": [[0, 0.5]], "window": [0, 1], "period": 1}, "unknown key 'period'"),
    ])
    def test_malformed_set_file_exits_two_naming_the_key(self, tmp_path, capsys, record, message):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(record))
        assert cli.main(["set", "gamma", "--set-file", str(path)]) == 2
        assert f"error: --set-file {path}: {message}" in capsys.readouterr().err

    def test_set_file_reads_a_written_set(self, tmp_path, capsys):
        E = sets.ThickSet(((0.0, 0.25), (0.5, 0.75)), (0.0, 1.0), periodic=True)
        path = tmp_path / "set.json"
        path.write_text(json.dumps(E.to_dict()))
        assert cli.main(["set", "gamma", "--set-file", str(path), "--delta", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["gamma"] == 0.5

    @pytest.mark.parametrize("argv, dimension", [
        (["conc", "nazarov", "--builder", "arithmetic", "--count", "2500", "--pattern", "full"],
         2500),
        (["conc", "ls", "--period", "8", "--samples", "8192", "--band", "0,300"], 2401),
        # the cubes have distinct differences, so their Gram takes the endpoint form
        (["conc", "nazarov", "--input", "CUBES", "--pattern", "full"], 2500),
        (["conc", "gram", "--builder", "arithmetic", "--count", "2500", "--pattern", "full"],
         2500),
    ])
    def test_form_over_the_dense_cap_exits_two_unassembled(
        self, tmp_path, capsys, deadline, monkeypatch, argv, dimension
    ):
        def refuse(*args, **kwargs):
            pytest.fail("the form was assembled")

        for name in ("_gram_entries", "_closed_form", "_end_numerators"):
            monkeypatch.setattr(concentration, name, refuse)
        (tmp_path / "cubes.txt").write_text("".join(f"{k**3}\n" for k in range(2500)))
        argv = [str(tmp_path / "cubes.txt") if a == "CUBES" else a for a in argv]
        with deadline(1.0):
            assert cli.main(argv) == 2
        assert (f"error: dimension {dimension} exceeds the dense solver cap 2000"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["nazarov", "gram"])
    def test_a_difference_past_the_float_range_names_the_sequence(self, tmp_path, capsys,
                                                                  command):
        # each term is within the float range, their difference is not: both
        # printed "error: int too large to convert to float"
        big = int(1.7e308)
        (tmp_path / "seq.txt").write_text(f"{-big}\n{big}\n")
        assert cli.main(["conc", command, "--input", str(tmp_path / "seq.txt")]) == 2
        assert capsys.readouterr().err == (
            "error: sequence: a frequency or a difference of two is past the largest float "
            "1.7976931348623157e+308\n")

    @pytest.mark.parametrize("terms", [(-int(1.7e308), int(1.7e308)), (2**1100, 2**1100 + 1)])
    def test_a_sweep_past_the_float_range_names_the_sequence(self, tmp_path, capsys, terms):
        # both printed "error: int too large to convert to float", the first
        # at the difference, the second at the terms
        (tmp_path / "seq.txt").write_text("".join(f"{t}\n" for t in terms))
        cfg = {**nazarov_config("o"), "sequence": {"file": "seq.txt"}}
        assert run_cli(cfg, tmp_path) == 2
        assert capsys.readouterr().err == (
            "error: sequence: a frequency or a difference of two is past the largest float "
            "1.7976931348623157e+308\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["lemma", "theorem"])
    def test_ensemble_refusals_name_the_input_at_fault(self, capsys, command):
        # theorem printed "error: grid: threshold L must be >= 1", and both
        # ensembles "error: grid: set must have positive measure"
        assert cli.main(["conc", command, "--L", "0"]) == 2
        assert capsys.readouterr().err == "error: L must be a positive integer\n"
        null_set = ["--pattern", "intervals", "--intervals", "0,0"]
        assert cli.main(["conc", "ls"] + null_set) == 2
        message = capsys.readouterr().err
        assert message == "error: set must have positive measure\n"
        assert cli.main(["conc", command] + null_set) == 2
        assert capsys.readouterr().err == message

    def test_lemma_window_longer_than_the_period_exits_two(self, tmp_path, capsys):
        # I = [0, 1/L] = [0, 1] does not fit in [0, T] = [0, 0.5]
        message = ("error: grid: interval I = [0.0, 1.0] is not inside the grid window "
                   "[0, T] = [0.0, 0.5]")
        rc = cli.main(["conc", "lemma", "--builder", "geometric", "--start", "4",
                       "--ratio", "4", "--count", "3", "--period", "0.5", "--samples", "1024",
                       "--delta", "0.25", "--L", "1"])
        assert rc == 2
        assert message in capsys.readouterr().err
        cfg = {
            "version": 1, "kind": "lemma_margins", "output_dir": "m",
            "sequence": {"builder": "geometric", "start": 4, "ratio": 4, "count": 3},
            "grid": {"period": 0.5, "samples": 1024},
            "set": {"pattern": "comb", "gamma": 0.5, "delta": 0.25},
            "ensemble": {"trials": 2, "seed": 0},
            "params": {"L": 1, "c2_candidates": [1.0]},
        }
        assert run_cli(cfg, tmp_path) == 2
        assert message in capsys.readouterr().err

    def test_lemma_profile_is_checked_like_the_runner(self, capsys):
        rc = cli.main(["conc", "lemma", "--start", "1", "--ratio", "2", "--count", "2",
                       "--period", "16", "--samples", "540"])
        assert rc == 2
        assert "profile intervals overlap" in capsys.readouterr().err

    def test_cli_nyquist_violation_reported_like_the_runner(self, capsys):
        rc = cli.main(
            ["conc", "theorem", "--builder", "geometric", "--start", "4",
             "--ratio", "4", "--count", "3", "--samples", "16"]
        )
        assert rc == 2
        assert "error: grid: Nyquist violation" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 11])
    def test_conc_theorem_prints_trial_zero_of_the_runner(self, tmp_path, capsys, seed):
        cfg = theorem_config("t")
        cfg["ensemble"]["seed"] = seed
        run(ExperimentConfig.from_dict(cfg), tmp_path)
        row = (tmp_path / "t" / "theorem_split.csv").read_text().splitlines()[1]
        rc = cli.main(
            ["conc", "theorem", "--builder", "geometric", "--start", "4",
             "--ratio", "4", "--count", "3", "--period", "8", "--samples", "2048",
             "--pattern", "comb", "--gamma", "0.5", "--delta", "1",
             "--L", "1", "--schedule", "1:2", "--seed", str(seed)]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        printed = [repr(out[k]) for k in ("ratio", "ratio_head", "ratio_tail")]
        assert row.split(",") == ["0"] + printed

    @pytest.mark.parametrize("seed", [0, 11])
    def test_conc_lemma_prints_trial_zero_of_the_runner(self, tmp_path, capsys, seed):
        cfg = {
            "version": 1, "kind": "lemma_margins", "output_dir": "m",
            "sequence": {"builder": "geometric", "start": 4, "ratio": 4, "count": 3},
            "grid": {"period": 8.0, "samples": 2048},
            "set": {"pattern": "comb", "gamma": 0.5, "delta": 1.0},
            "ensemble": {"trials": 2, "seed": seed},
            "params": {"L": 4, "c2_candidates": [1.0]},
        }
        run(ExperimentConfig.from_dict(cfg), tmp_path)
        row = (tmp_path / "m" / "lemma_margins.csv").read_text().splitlines()[1]
        rc = cli.main(
            ["conc", "lemma", "--builder", "geometric", "--start", "4",
             "--ratio", "4", "--count", "3", "--period", "8", "--samples", "2048",
             "--pattern", "comb", "--gamma", "0.5", "--delta", "1",
             "--L", "4", "--seed", str(seed)]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        printed = [repr(out[k]) for k in ("lhs", "term_density", "term_sobolev")]
        assert row.split(",")[:4] == ["0"] + printed

    @pytest.mark.parametrize("argv", [["set", "gamma"], ["set", "partition", "--L", "4"]])
    def test_comb_over_the_block_cap_exits_two(self, capsys, deadline, argv):
        with deadline(2.0):
            rc = cli.main(argv + ["--pattern", "comb", "--delta", "1e-300", "--window", "0,4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: delta 1e-300 makes more than" in err and "comb blocks" in err

    def test_partition_over_the_cell_cap_exits_two(self, capsys, deadline):
        with deadline(2.0):
            rc = cli.main(["set", "partition", "--pattern", "full", "--window", "0,1e12",
                           "--delta", "1", "--L", "1", "--gamma", "1"])
        assert rc == 2
        assert "cells to classify" in capsys.readouterr().err

    @pytest.mark.parametrize("end, rc", [("0.4999999", 2), ("0.4999999999999", 2), ("0.5", 0)])
    def test_partition_claim_above_the_thickness_exits_two(self, capsys, end, rc):
        # the flags are exact decimals, so the claim gamma = 0.5 is compared
        # with the set's thickness exactly: 10^-13 short is refused
        assert cli.main(["set", "partition", "--pattern", "intervals", "--intervals",
                         f"0,{end}", "--periodic", "--window", "0,1", "--delta", "1",
                         "--L", "2", "--gamma", "0.5"]) == rc
        if rc:
            assert (f"error: precondition violated: set is only (1, {Fraction(end)})-thick, "
                    f"gamma = 0.5 was claimed") in capsys.readouterr().err

    def test_set_flags_are_exact_decimals(self, capsys):
        # seven blocks of 0.1 filled to 0.3: in floats the thickness read 0.29999999999999916
        assert cli.main(["set", "gamma", "--pattern", "comb", "--gamma", "0.3", "--delta", "0.1",
                         "--window", "0,0.7"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "delta": 0.1, "gamma": 0.3, "set_measure": 0.21, "gamma_2delta": 0.3}
        with pytest.raises(SystemExit) as exc:
            cli.main(["set", "gamma", "--gamma", "a"])
        assert exc.value.code == 2
        assert "error: argument --gamma: 'a' is not a number" in capsys.readouterr().err

    def test_grid_past_the_sample_cap_exits_two(self, capsys, tmp_path):
        # numpy refused it with "Python int too large to convert to C long"
        for command in (["synth", "check"], ["conc", "theorem"], ["conc", "lemma"]):
            assert cli.main(command + ["--start", "4", "--ratio", "4", "--count", "3",
                                       "--samples", str(10**25)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {10**25} samples are above 67108864, the most a grid")
            assert f"--samples {10**25})" in err
        cfg = theorem_config()
        cfg["grid"]["samples"] = 2**26 + 1
        assert run_cli(cfg, tmp_path) == 2
        assert "grid: samples must lie in [2, 67108864], got 67108865" in capsys.readouterr().err

    def test_moment_count_past_the_cap_exits_two(self, capsys, deadline, tmp_path):
        with deadline(1.0):
            assert cli.main(["uniq", "cd", "--N", str(10**25)]) == 2
        assert capsys.readouterr().err == (
            f"error: N = {10**25} is above 100000, the most moments computed\n")
        cfg = {"version": 1, "kind": "carleman_denjoy", "output_dir": "o",
               "params": {"N": 100001, "T_max": 10.0}}
        with deadline(1.0):
            assert run_cli(cfg, tmp_path) == 2
        assert "params: N must lie in [1, 100000], got 100001" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["set", "gamma", "--set-file", "bad.txt"],
         "error: --set-file bad.txt: Expecting value: line 1 column 1 (char 0)"),
        (["set", "gamma", "--set-file", "."], "error: --set-file .: [Errno 21] Is a directory"),
        (["seq", "check", "--kind", "hadamard", "--input", "bad.txt"],
         "error: --input bad.txt: could not convert string to float: 'a'"),
        (["conc", "ls", "--freq-sequence", "bad.txt"],
         "error: --freq-sequence bad.txt: could not convert string to float: 'a'"),
        (["run", "bad.txt"], "error: config bad.txt: Expecting value: line 1 column 1 (char 0)"),
        (["seq", "build", "-o", "."], "error: --output .: [Errno 21] Is a directory"),
        (["uniq", "cd", "--N", "3", "-o", "."], "error: --output .: [Errno 21] Is a directory"),
        (["conc", "gram", "--output", "."], "error: --output .: [Errno 21] Is a directory"),
    ])
    def test_unreadable_file_names_its_flag(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        Path("bad.txt").write_text("a\n")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_unreadable_sequence_file_of_a_config_names_its_key(self, tmp_path, capsys):
        (tmp_path / "seq.txt").write_text("4\n1/3\n")
        cfg = theorem_config()
        cfg["sequence"] = {"file": "seq.txt"}
        assert run_cli(cfg, tmp_path) == 2
        assert capsys.readouterr().err == (
            "error: sequence file 'seq.txt': could not convert string to float: '1/3'\n")

    @pytest.mark.parametrize("argv, message", [
        (["set", "partition", "--pattern", "full", "--delta", "nan"],
         "error: L*Delta = nan is not a positive integer"),
        (["set", "partition", "--pattern", "full", "--delta", "inf"],
         "error: L*Delta = inf is not a positive integer"),
        (["set", "gamma", "--pattern", "full", "--delta", "nan"],
         "error: window length Delta must be positive"),
    ])
    def test_non_finite_window_length_exits_two(self, capsys, argv, message):
        # nan ended in "cannot convert float NaN to integer", or in a thickness of NaN
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_exact_comb_at_the_block_cap_is_fast(self, capsys, deadline):
        # 10^6 blocks of 10^-6: with a Fraction operation per block end this took about 26 s
        with deadline(5.0):
            assert cli.main(["set", "gamma", "--pattern", "comb", "--delta", "0.000001",
                             "--window", "0,1"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "delta": 1e-06, "gamma": 0.5, "set_measure": 0.5, "gamma_2delta": 0.5}

    @pytest.mark.parametrize("argv", [["set", "gamma", "--window", "0,1e-99999999"],
                                      ["set", "partition", "--intervals", "0,0." + "0" * 1000 + "1"]])
    def test_exact_literal_past_the_digit_cap_exits_two(self, capsys, deadline, argv):
        with deadline(2.0):
            assert cli.main(argv + ["--pattern", "intervals"]) == 2
        assert "needs integers of more than 1000 digits to be held exactly" in (
            capsys.readouterr().err)

    def test_period_whose_spacing_underflows_exits_two(self, capsys):
        assert cli.main(["synth", "check", "--builder", "greedy", "--period", "5e-324"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: period 5e-324 over 2048 samples makes the spacing")
        assert "(--period 5e-324, --samples 2048)" in err

    def test_terms_past_the_integer_text_limit_exit_two(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert cli.main(["seq", "build", "--count", "20000"]) == 2
        assert (f"error: --count 20000 gives terms above {limit} decimal digits, "
                f"the most an integer may have to be written as text") in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["conc", "gram", "--count", "3000"],
                                      ["conc", "nazarov", "--count", "1100"],
                                      ["uniq", "condition", "--start", "4", "--count", "1100"],
                                      ["uniq", "omega", "--start", "4", "--count", "1100"]])
    def test_float_commands_refuse_terms_past_the_float_range(self, capsys, argv):
        # these compute with the terms 2**k as floats: "int too large to convert to float"
        assert cli.main(argv) == 2
        assert (f"error: --count {argv[-1]} gives terms above the largest float "
                "1.7976931348623157e+308") in capsys.readouterr().err

    def test_synth_check_support_is_judged_on_the_declared_bins(self, tmp_path, capsys):
        # 10*T is 1e-9 short of 80: the band [10, 11] holds bins 80..87, and
        # the block holds as many coefficients, all inside the declared bins
        path = tmp_path / "seq.txt"
        path.write_text("10\n")
        rc = cli.main(["synth", "check", "--input", str(path), "--period", "7.9999999999",
                       "--samples", "256"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["support_within_declared"] is True and out["active_bins"] == 8

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "1", "2"])
    def test_synth_check_tolerance_outside_the_unit_interval_exits_two(self, tol, capsys):
        # -1 counted all 2048 bins active, and nan, inf and 2 none, a vacuous inside
        assert cli.main(["synth", "check", f"--tol={tol}"]) == 2
        assert capsys.readouterr().err == f"error: --tol {float(tol)} is outside [0, 1)\n"

    def test_bands_sharing_a_filled_bin_exit_two(self, tmp_path, capsys):
        # bin 16 is in [1, 2] and in [2.0000000001, 3.0000000001] at T = 8; the
        # split read head^2 + tail^2 = 0.957 and synth check 17 active bins of 18
        path = tmp_path / "seq.txt"
        path.write_text("1\n2.0000000001\n")
        grid = ["--period", "8", "--samples", "1024"]
        message = ("bands [1, 1 + 1] and [2.0000000001, 2.0000000001 + 1] share bin 16 "
                   "at T = 8.0, and both blocks fill it\n")
        assert cli.main(["synth", "check", "--input", str(path)] + grid) == 2
        assert capsys.readouterr().err == "error: " + message
        # the runner's trial loops report it as a refusal of the grid
        argv = ["conc", "theorem", "--schedule", "1:2", "--input", str(path)]
        assert cli.main(argv + grid) == 2
        assert capsys.readouterr().err == "error: grid: " + message
        cfg = theorem_config()
        cfg["sequence"] = {"file": "seq.txt"}
        cfg["grid"] = {"period": 8.0, "samples": 1024}
        assert run_cli(cfg, tmp_path) == 2
        assert capsys.readouterr().err == "error: grid: " + message
        assert cli.main(["conc", "lemma", "--input", str(path)] + grid) == 0
        capsys.readouterr()

    def test_split_of_a_non_positive_frequency_names_the_sequence(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text("0\n4\n")
        message = "error: sequence: hypothesis violation: frequencies must be positive\n"
        assert cli.main(["conc", "theorem", "--input", str(path)]) == 2
        assert capsys.readouterr().err == message
        cfg = theorem_config()
        cfg["sequence"] = {"file": "seq.txt"}
        assert run_cli(cfg, tmp_path) == 2
        assert capsys.readouterr().err == message

    def test_empty_sequence_exits_two(self, tmp_path, capsys):
        (tmp_path / "empty.txt").write_text("")
        cfg = {
            "version": 1, "kind": "lemma_margins", "output_dir": "m",
            "sequence": {"file": "empty.txt"},
            "grid": {"period": 8.0, "samples": 2048},
            "set": {"pattern": "comb", "gamma": 0.5, "delta": 1.0},
            "ensemble": {"trials": 2, "seed": 0},
            "params": {"L": 4, "c2_candidates": [1.0]},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["run", str(tmp_path / "cfg.json"), "--base-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: sequence: need at least one frequency\n"
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("argv", [
        ["conc", "lemma", "--input"],
        ["conc", "theorem", "--input"],
        ["synth", "check", "--input"],
        ["conc", "ls", "--freq-sequence"],
    ])
    def test_an_empty_sequence_file_is_refused_naming_the_sequence(self, tmp_path, capsys, argv):
        # each printed "error: grid: profile holds no grid frequencies", conc ls without "grid: "
        (tmp_path / "empty.txt").write_text("")
        assert cli.main(argv + [str(tmp_path / "empty.txt")]) == 2
        assert capsys.readouterr().err == "error: sequence: need at least one frequency\n"

    @pytest.mark.parametrize("kind", ["lemma_margins", "theorem_split", "ls_gamma_sweep_sequence"])
    def test_a_run_on_an_empty_sequence_file_names_the_sequence(self, tmp_path, capsys, kind):
        (tmp_path / "empty.txt").write_text("")
        cfg = small_configs()[kind]
        if kind == "ls_gamma_sweep_sequence":
            cfg["params"]["profile"]["sequence"] = {"file": "empty.txt"}
        else:
            cfg["sequence"] = {"file": "empty.txt"}
        assert run_cli(cfg, tmp_path) == 2
        assert capsys.readouterr().err == "error: sequence: need at least one frequency\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["conc", "theorem", "--delta", "1e-9"],
        ["conc", "lemma", "--delta", "1e-300"],
        ["conc", "ls", "--delta", "1e-9"],
        ["run", "CONFIG"],
    ])
    def test_comb_finer_than_the_grid_exits_two_unbuilt(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            pytest.fail("the comb was built")

        monkeypatch.setattr(sets, "periodic_comb", refuse)
        monkeypatch.setattr(experiments, "periodic_comb", refuse)
        cfg = theorem_config()
        cfg["set"]["delta"] = 1e-9
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = [str(tmp_path / "cfg.json") if a == "CONFIG" else a for a in argv]
        assert cli.main(argv + (["--base-dir", str(tmp_path)] if argv[0] == "run" else [])) == 2
        err = capsys.readouterr().err
        assert "error: set: delta" in err and "more than the" in err

    def test_conc_ls_closes_the_sequence_file(self, tmp_path, capsys):
        path = tmp_path / "fs.txt"
        path.write_text("1\n4\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["conc", "ls", "--freq-sequence", str(path), "--period", "8",
                           "--samples", "256"])
            gc.collect()
        assert rc == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_version_is_the_manifest_tool_version(self, tmp_path):
        manifest = run(ExperimentConfig.from_dict(nazarov_config()), tmp_path)
        assert lacspec.__version__ == manifest.tool_version == "0.1.0"
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert 'version = {attr = "lacspec.__version__"}' in pyproject

    def test_unallocatable_greedy_run_exits_two(self, capsys, deadline):
        with deadline(1.0):
            rc = cli.main(["seq", "build", "--builder", "greedy", "--count", "10000000"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --count 10000000 is above 1500, the most terms a greedy run may have\n")

    @pytest.mark.parametrize("argv, message", [
        (["seq", "build", "--builder", "greedy", "--count", "1000000"],
         "--count 1000000 is above 1500, the most terms a greedy run may have"),
        (["seq", "build", "--builder", "greedy", "--count", "20000"],
         "--count 20000 is above 1500, the most terms a greedy run may have"),
        (["seq", "build", "--builder", "greedy", "--count", "5", "--schedule", "1:1,100000000:2"],
         "--count 5 needs a greedy search window of more than 33554432 slots with this "
         "schedule: term 3 at threshold 100000000"),
        (["seq", "build", "--builder", "arithmetic", "--count", "1000001"],
         "--count 1000001 is above 1000000, the most terms of the arithmetic builder"),
        (["seq", "check", "--count", "100000", "--kind", "hadamard"],
         "--count 100000 gives terms above 2**20000"),
    ])
    def test_builder_limits_exit_two_at_once_naming_count(self, capsys, deadline, argv, message):
        with deadline(1.0):
            assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["uniq", "omega", "--count", "100000"],
                                      ["uniq", "omega", "--count", "1000000"],
                                      ["seq", "build", "--count", "100000"]])
    def test_huge_geometric_count_is_refused_before_building(self, capsys, deadline, argv):
        # the terms 2**k took 22-24 s to build before the refusal (over 60 s
        # for a million)
        with deadline(1.0):
            assert cli.main(argv) == 2
        limit = sys.get_int_max_str_digits()
        what = (f"{limit} decimal digits, the most an integer may have to be written as text"
                if argv[0] == "seq" else "the largest float 1.7976931348623157e+308")
        assert capsys.readouterr().err == f"error: --count {argv[-1]} gives terms above {what}\n"

    @pytest.mark.parametrize("sequence, what", [
        ({"builder": "geometric", "start": 1, "ratio": 2, "count": 20002}, "2**20000"),
        ({"builder": "geometric", "start": 0.5, "ratio": 2.0, "count": 1025},
         "the largest float 1.7976931348623157e+308"),
    ])
    def test_geometric_config_past_the_term_bound_exits_two(self, tmp_path, capsys, deadline,
                                                           sequence, what):
        # the float run stopped in "(34, 'Numerical result out of range')" at 2.0**1024
        cfg = {**nazarov_config("g"), "sequence": sequence}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        with deadline(1.0):
            assert cli.main(["run", str(tmp_path / "cfg.json"), "--base-dir", str(tmp_path)]) == 2
        count = sequence["count"]
        assert capsys.readouterr().err == f"error: count {count} gives terms above {what}\n"

    @pytest.mark.parametrize("cfg", [
        {"version": 1, "kind": "greedy_growth", "output_dir": "g", "params": {"count": 1501}},
        {**nazarov_config("g"), "sequence": {"builder": "greedy", "count": 1501}},
    ])
    def test_greedy_count_past_the_cap_fails_validation(self, tmp_path, capsys, cfg):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["run", str(tmp_path / "cfg.json"), "--base-dir", str(tmp_path)]) == 2
        section = "params" if cfg["kind"] == "greedy_growth" else "sequence"
        assert capsys.readouterr().err == (
            f"error: {section}: count must lie in [1, 1500], got 1501\n")
        assert not (tmp_path / "g").exists()

    def test_domain_error_exits_two(self, capsys):
        rc = cli.main(
            ["seq", "check", "--builder", "arithmetic", "--start", "-3",
             "--step", "1", "--count", "3", "--kind", "hadamard", "--q", "2"]
        )
        assert rc == 2
        assert "positive" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, monkeypatch, capsys):
        def boom(args):
            raise NumericalError("solver residual out of contract")

        monkeypatch.setattr(cli, "_cmd_uniq_cd", boom)
        # re-wire the parser default to the patched function
        monkeypatch.setattr(
            cli, "_build_parser", _parser_with(boom), raising=True
        )
        rc = cli.main(["uniq", "cd", "--N", "5", "--T-max", "10"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


def _parser_with(func):
    import argparse

    def build():
        p = argparse.ArgumentParser(prog="lacspec")
        sub = p.add_subparsers(dest="group", required=True)
        u = sub.add_parser("uniq")
        us = u.add_subparsers(dest="command", required=True)
        cd = us.add_parser("cd")
        cd.add_argument("--N", type=int)
        cd.add_argument("--T-max", type=float, dest="T_max")
        cd.set_defaults(func=func)
        return p

    return build


def subcommands():
    """(argv prefix, parser) of every subcommand of the CLI, from the parser."""
    out = []

    def walk(parser, prefix):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            out.append((prefix, parser))
        for name, sub in (subs[0].choices.items() if subs else ()):
            walk(sub, prefix + [name])

    walk(cli._build_parser(), [])
    return out


# the hostile values of the exit contract, and a few plain ones to get past the parsers
HOSTILE = ["0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", str(10**25), "", "a", "1/3",
           "1,0", "0,1;0.5,2", "0:0", "1", "3", "0.5", "0,1", "1:2"]
FILE_FLAGS = {"input", "set_file", "freq_sequence", "config", "output", "base_dir"}
QUANTITIES = ("config", "grid", "set", "sequence", "profile", "band", "bin", "Nyquist",
              "frequenc", "term", "value", "interval", "window", "period", "spacing", "sample",
              "delta", "gamma", "block", "cell", "precondition", "thick", "dimension", "measure",
              "schedule", "moment", "positive")
INTERPRETER_LIMITS = ("Exceeds the limit", "set_int_max_str_digits", "int too large",
                      "recursion", "Maximum allowed dimension", "Unable to allocate",
                      "has no attribute", "unsupported operand", "not supported between",
                      "cannot unpack", "NoneType", "out of range", "math domain error",
                      "division by zero", "cannot convert float", "Traceback")


def schema_keys(node) -> set:
    """Every key and variant name of the config schema."""
    if isinstance(node, tuple) and len(node) == 3:  # a field: (required, type, bounds)
        return schema_keys(node[1])
    if not isinstance(node, experiments._Object):
        return set()
    keys = set(node.fields) | {node.tag} - {None} | set(node.variants or ())
    for child in [*node.fields.values(), *(node.variants or {}).values()]:
        keys |= schema_keys(child)
    return keys


def file_text(rnd, draw, dest):
    """Hostile contents for the file of a flag: lines of the pool, and for a
    JSON file JSON values or a record of its kind with hostile entries."""
    kind = rnd.choice(["lines", "json", "record"])
    if kind == "lines" or dest not in ("set_file", "config"):
        return "\n".join(rnd.choices(HOSTILE, k=rnd.randrange(5)))
    if kind == "json":
        return json.dumps(draw(json_values))
    if dest == "set_file":
        record = {"intervals": [[0, 0.5]], "window": [0, 1], "periodic": False}
    else:
        record = rnd.choice(list(small_configs().values()))
    hostile = SUBSTITUTES + [10**25, 1e308, 5e-324, -1, "1/3", [1, 0], [[0, 1], [0.5, 2]]]
    return json.dumps(substituted(record, rnd.choice(list(paths(record))), rnd.choice(hostile)))


@st.composite
def hostile_argv(draw, prefix, parser):
    """The subcommand with a random subset of its flags, each with a hostile
    value, and its positional arguments; files are written to the cwd."""
    rnd = draw(st.randoms(use_true_random=True))
    argv = list(prefix)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings and rnd.random() < 0.5:
            continue
        flag = max(action.option_strings, key=len) if action.option_strings else None
        if action.nargs == 0:
            argv.append(flag)
            continue
        if action.dest in FILE_FLAGS:
            value = rnd.choice(["given.txt", "missing.txt", "."])
            if value == "given.txt":
                Path(value).write_text(file_text(rnd, draw, action.dest))
        else:
            value = rnd.choice(HOSTILE + list(action.choices or []))
        argv += [flag, value] if flag else [value]
    return argv


class TestExitContract:
    """Whatever the flags, every subcommand exits 0, 2 or 3 within its
    deadline, and a refusal says what it refuses by a flag, a key or a
    quantity, never by an interpreter limit."""

    @pytest.mark.parametrize("prefix", [p for p, q in subcommands()
                                        if not any(a.required for a in q._actions)],
                             ids=" ".join)
    def test_every_subcommand_runs_on_its_defaults(self, prefix, tmp_path, monkeypatch, capsys):
        # synth check, conc lemma and conc theorem exited 2 on 1, 2, 4, ...
        # (overlapping unit bands), and uniq condition and omega on the term 1
        monkeypatch.chdir(tmp_path)
        assert cli.main(prefix) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("prefix", [p for p, _ in subcommands()], ids=" ".join)
    def test_every_subcommand_keeps_the_exit_contract(self, prefix, tmp_path, monkeypatch,
                                                     capsys, deadline):
        parser = dict((tuple(p), q) for p, q in subcommands())[tuple(prefix)]
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        names = {s.lstrip("-") for a in actions for s in a.option_strings}
        names |= {a.dest for a in actions} | schema_keys(experiments._CONFIG) | set(QUANTITIES)
        named = re.compile("|".join(rf"\b{re.escape(n)}" for n in sorted(names)))
        monkeypatch.chdir(tmp_path)

        @settings(max_examples=200, deadline=None, database=None,
                  phases=[Phase.generate, Phase.shrink], suppress_health_check=list(HealthCheck))
        @given(hostile_argv(prefix, parser))
        def contract(argv):
            missing = Path("missing.txt")  # a run's --base-dir may have made it a directory
            shutil.rmtree(missing) if missing.is_dir() else missing.unlink(missing_ok=True)
            capsys.readouterr()
            with deadline(3.0):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse's own refusal of a flag
                    rc = exc.code
            err = capsys.readouterr().err
            assert rc in (0, 2, 3), (argv, err)
            if rc:
                lines = [line for line in err.splitlines()
                         if "error: " in line or line.startswith("numerical failure: ")]
                assert lines, (argv, err)
                for line in lines:
                    assert named.search(line), (argv, line)
                    assert not any(limit in line for limit in INTERPRETER_LIMITS), (argv, line)

        contract()
