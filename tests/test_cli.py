import json
from pathlib import Path

import pytest

from lacspec import cli
from lacspec.errors import ConfigError, NumericalError
from lacspec.experiments import (
    ExperimentConfig,
    PlotSpec,
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
        path = emit_plot_data(rows, PlotSpec(("gamma", "C"), "gamma"), tmp_path / "p.dat")
        lines = path.read_text().splitlines()
        assert lines[0] == "# gamma C"
        assert lines[1].startswith("0.2") and lines[2].startswith("0.8")

    def test_three_column(self, tmp_path):
        rows = [{"n": 1, "v": 2.0, "b": 4.0}]
        path = emit_plot_data(rows, PlotSpec(("n", "v", "b")), tmp_path / "p.dat")
        assert path.read_text().splitlines()[1] == "1 2.0 4.0"

    def test_missing_column(self, tmp_path):
        with pytest.raises(ValueError, match="missing column"):
            emit_plot_data([{"x": 1}], PlotSpec(("x", "y")), tmp_path / "p.dat")

    def test_empty_table(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            emit_plot_data([], PlotSpec(("x", "y")), tmp_path / "p.dat")


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
             "--delta", "1", "--window", "0,8"]
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
        rc = cli.main(["uniq", "cd", "--N", "10", "--T-max", "100",
                       "-o", str(target)])
        assert rc == 0
        assert target.read_text().startswith("n,M,log_M")

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

    def test_unallocatable_greedy_run_exits_two(self, capsys):
        rc = cli.main(["seq", "build", "--builder", "greedy", "--count", "10000000"])
        assert rc == 2
        assert "allocate" in capsys.readouterr().err

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
