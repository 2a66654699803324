"""Config-driven batch experiments with reproducible, checksummed outputs.

A run parses a strict JSON config (unknown keys are errors), drives the
library over the requested parameter grid, and writes CSV tables plus
whitespace-separated plot-data files atomically; the manifest (config hash,
tool version, per-file checksums) is written last, so an interrupted run
leaves no manifest.  Random ensembles use the counter-based Philox
generator, which makes every derived number reproducible from the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concentration import (
    lemma_main_report,
    ls_constant,
    nazarov_constant,
    theorem_split_check,
)
from .errors import ConfigError
from .sequences import (
    Sequence,
    TailSchedule,
    build_counterexample,
    build_greedy,
    greedy_growth_table,
)
from .sets import ThickSet, periodic_comb
from .synthesis import Grid, SpectralProfile, random_band_function
from .uniqueness import carleman_denjoy_partial

__all__ = [
    "TOOL_VERSION",
    "GENERATOR_NAME",
    "ExperimentConfig",
    "RunManifest",
    "PlotSpec",
    "run",
    "emit_plot_data",
    "build_sequence",
    "schedule_from",
]

TOOL_VERSION = "0.1.0"
GENERATOR_NAME = "philox4x64"

_TOP_KEYS = {
    "version",
    "kind",
    "output_dir",
    "sequence",
    "set",
    "grid",
    "ensemble",
    "params",
}

_REQUIRED = {
    "nazarov_sweep": {"sequence", "set"},
    "greedy_growth": {"params"},
    "ls_gamma_sweep": {"grid", "set", "params"},
    "lemma_margins": {"sequence", "grid", "set", "params", "ensemble"},
    "theorem_split": {"sequence", "grid", "set", "params", "ensemble"},
    "carleman_denjoy": {"params"},
}

_PARAM_KEYS = {
    "nazarov_sweep": set(),
    "greedy_growth": {"count", "schedule"},
    "ls_gamma_sweep": {"profile"},
    "lemma_margins": {"L", "c2_candidates"},
    "theorem_split": {"L", "schedule"},
    "carleman_denjoy": {"N", "T_max"},
}

# CSV header annotations: what each column measures and in which units.
_COLUMN_LABELS = {
    "set_measure": "set_measure [fraction of the unit torus]",
    "lambda_min": "lambda_min [smallest eigenvalue of the set compression]",
    "constant_C": "constant_C [norm inequality constant, 1/lambda_min]",
    "residual": "residual [eigensolver residual norm]",
    "n": "n [term index]",
    "lambda_n": "lambda_n [frequency value]",
    "threshold": "threshold [avoidance radius L at this step]",
    "cubic_bound": "cubic_bound [(2L+1)n^3+1 growth certificate]",
    "gamma": "gamma [relative density of the thick set]",
    "trial": "trial [ensemble index]",
    "lhs": "lhs [restricted squared norm over I and the set]",
    "term_density": "term_density [squared norm of the layer stack over I]",
    "term_sobolev": "term_sobolev [layer stack plus derivatives over I]",
    "ratio": "ratio [restricted-to-full L2 norm ratio]",
    "ratio_head": "ratio_head [head fraction of the L2 norm]",
    "ratio_tail": "ratio_tail [tail fraction of the L2 norm]",
    "M": "M [moment sup xi^n / W(xi)]",
    "log_M": "log_M [natural log of the moment]",
    "mu": "mu [moment ratio M_{n-1}/M_n]",
    "partial_sum": "partial_sum [cumulative sum of mu]",
    "T": "T [upper endpoint of the proxy integral]",
    "proxy_integral": "proxy_integral [integral of log W(t)/t^2 over [1, T]]",
}


def _check_keys(name: str, d: dict, allowed: set, errors: list) -> None:
    for k in d:
        if k not in allowed:
            errors.append(f"{name}: unknown key '{k}'")


def _require(name: str, d: dict, keys: set, errors: list) -> None:
    for k in keys:
        if k not in d:
            errors.append(f"{name}: missing key '{k}'")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_number(
    name: str, d: dict, key: str, errors: list, ok=None, requirement: str = ""
) -> None:
    """Report ``d[key]``, when present, unless it is a number satisfying ``ok``."""
    if key not in d:
        return
    if not _is_number(d[key]):
        errors.append(f"{name}: {key} must be a number, got {d[key]!r}")
    elif ok is not None and not ok(d[key]):
        errors.append(f"{name}: {requirement}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    Strict schema: the version field is mandatory, unknown keys anywhere are
    errors, and the sections present must be exactly the ones the kind uses.
    """

    version: int
    kind: str
    output_dir: str
    sequence: dict | None = None
    set_spec: dict | None = None
    grid: dict | None = None
    ensemble: dict | None = None
    params: dict | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(
                [f"config: top level must be a JSON object, got {type(d).__name__}"]
            )
        errors: list[str] = []
        _check_keys("config", d, _TOP_KEYS, errors)
        if d.get("version") != 1:
            errors.append(f"config: version must be 1, got {d.get('version')!r}")
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in _REQUIRED:
            errors.append(
                f"config: kind must be one of {sorted(_REQUIRED)}, got {kind!r}"
            )
        if not isinstance(d.get("output_dir"), str) or not d.get("output_dir"):
            errors.append("config: output_dir must be a non-empty string")
        if isinstance(kind, str) and kind in _REQUIRED:
            present = {k for k in ("sequence", "set", "grid", "ensemble", "params") if k in d}
            for section in sorted(present):
                if not isinstance(d[section], dict):
                    errors.append(f"config: section '{section}' must be a JSON object")
            for missing in _REQUIRED[kind] - present:
                errors.append(f"config: kind '{kind}' requires section '{missing}'")
            for extra in present - _REQUIRED[kind]:
                errors.append(f"config: section '{extra}' is not used by kind '{kind}'")
            if "sequence" in d and isinstance(d["sequence"], dict):
                _validate_sequence_spec("sequence", d["sequence"], errors)
            if "set" in d and isinstance(d["set"], dict):
                _validate_set_spec("set", d["set"], kind, errors)
            if "grid" in d and isinstance(d["grid"], dict):
                _validate_grid_spec(d["grid"], errors)
            if "ensemble" in d and isinstance(d["ensemble"], dict):
                _validate_ensemble_spec(d["ensemble"], errors)
            if "params" in d and isinstance(d["params"], dict):
                _validate_params("params", d["params"], kind, errors)
        if errors:
            raise ConfigError(errors)
        return cls(
            version=1,
            kind=kind,
            output_dir=d["output_dir"],
            sequence=d.get("sequence"),
            set_spec=d.get("set"),
            grid=d.get("grid"),
            ensemble=d.get("ensemble"),
            params=d.get("params"),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def canonical_json(self) -> str:
        body = {
            "version": self.version,
            "kind": self.kind,
            "output_dir": self.output_dir,
        }
        for key, val in (
            ("sequence", self.sequence),
            ("set", self.set_spec),
            ("grid", self.grid),
            ("ensemble", self.ensemble),
            ("params", self.params),
        ):
            if val is not None:
                body[key] = val
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def seed(self) -> int | None:
        return None if self.ensemble is None else self.ensemble.get("seed")


def _validate_sequence_spec(name: str, spec: dict, errors: list) -> None:
    if "file" in spec:
        _check_keys(name, spec, {"file"}, errors)
        return
    builder = spec.get("builder")
    allowed = {
        "geometric": {"builder", "start", "ratio", "count"},
        "arithmetic": {"builder", "start", "step", "count"},
        "greedy": {"builder", "count", "schedule"},
        "counterexample": {"builder", "K"},
    }
    if not isinstance(builder, str) or builder not in allowed:
        errors.append(
            f"{name}: builder must be one of {sorted(allowed)}, got {builder!r}"
        )
        return
    _check_keys(name, spec, allowed[builder], errors)
    if builder == "geometric":
        _require(name, spec, {"start", "ratio", "count"}, errors)
        _check_number(name, spec, "ratio", errors, lambda r: r > 1,
                      "geometric ratio must exceed 1")
    elif builder == "arithmetic":
        _require(name, spec, {"start", "step", "count"}, errors)
        _check_number(name, spec, "step", errors, lambda h: h > 0,
                      "arithmetic step must be positive")
    elif builder == "greedy":
        _require(name, spec, {"count"}, errors)
    elif builder == "counterexample":
        _require(name, spec, {"K"}, errors)
    _check_number(name, spec, "start", errors)
    if "count" in spec and (not isinstance(spec["count"], int) or spec["count"] < 1):
        errors.append(f"{name}: count must be a positive integer")
    if "K" in spec and (not isinstance(spec["K"], int) or spec["K"] < 1):
        errors.append(f"{name}: K must be a positive integer")


def _validate_set_spec(name: str, spec: dict, kind: str, errors: list) -> None:
    if "file" in spec:
        _check_keys(name, spec, {"file"}, errors)
        return
    pattern = spec.get("pattern")
    if pattern == "prefix":
        _check_keys(name, spec, {"pattern", "measures"}, errors)
        measures = spec.get("measures")
        if not isinstance(measures, list) or not measures:
            errors.append(f"{name}: prefix pattern needs a non-empty 'measures' list")
        else:
            for m in measures:
                if not (_is_number(m) and 0 < m <= 1):
                    errors.append(f"{name}: prefix measure {m} must lie in (0, 1]")
    elif pattern == "comb":
        gamma_key = "gammas" if kind == "ls_gamma_sweep" else "gamma"
        _check_keys(name, spec, {"pattern", gamma_key, "delta"}, errors)
        _require(name, spec, {gamma_key, "delta"}, errors)
        gammas = spec.get(gamma_key)
        if gamma_key == "gamma":
            gammas = [gammas] if gammas is not None else []
        for g in gammas or []:
            if not (_is_number(g) and 0 < g <= 1):
                errors.append(f"{name}: comb gamma {g} must lie in (0, 1]")
        _check_number(name, spec, "delta", errors, lambda dl: dl > 0,
                      "comb delta must be positive")
    elif pattern == "full":
        _check_keys(name, spec, {"pattern"}, errors)
    else:
        errors.append(
            f"{name}: pattern must be one of ['comb', 'full', 'prefix'], "
            f"got {pattern!r}"
        )


def _validate_grid_spec(spec: dict, errors: list) -> None:
    _check_keys("grid", spec, {"period", "samples"}, errors)
    _require("grid", spec, {"period", "samples"}, errors)
    _check_number("grid", spec, "period", errors, lambda p: p > 0,
                  "period must be positive")
    if "samples" in spec and (
        not isinstance(spec["samples"], int) or spec["samples"] < 2
    ):
        errors.append("grid: samples must be an integer >= 2")


def _validate_ensemble_spec(spec: dict, errors: list) -> None:
    _check_keys("ensemble", spec, {"trials", "seed"}, errors)
    _require("ensemble", spec, {"trials", "seed"}, errors)
    if "trials" in spec and (not isinstance(spec["trials"], int) or spec["trials"] < 1):
        errors.append("ensemble: trials must be a positive integer")
    if "seed" in spec and not isinstance(spec["seed"], int):
        errors.append("ensemble: seed must be an integer")


def _validate_params(name: str, spec: dict, kind: str, errors: list) -> None:
    _check_keys(name, spec, _PARAM_KEYS[kind], errors)
    if kind == "greedy_growth":
        _require(name, spec, {"count"}, errors)
        if "count" in spec and (
            not isinstance(spec["count"], int) or spec["count"] < 1
        ):
            errors.append(f"{name}: count must be a positive integer")
    elif kind == "ls_gamma_sweep":
        _require(name, spec, {"profile"}, errors)
        profile = spec.get("profile")
        if isinstance(profile, dict):
            if "band" in profile:
                _check_keys(f"{name}.profile", profile, {"band"}, errors)
            elif "sequence" in profile:
                _check_keys(f"{name}.profile", profile, {"sequence"}, errors)
                _validate_sequence_spec(
                    f"{name}.profile.sequence", profile["sequence"], errors
                )
            else:
                errors.append(f"{name}: profile needs 'band' or 'sequence'")
        else:
            errors.append(f"{name}: profile must be an object")
    elif kind in ("lemma_margins", "theorem_split"):
        _require(name, spec, {"L"}, errors)
        if "L" in spec and (not isinstance(spec["L"], int) or spec["L"] < 1):
            errors.append(f"{name}: L must be a positive integer")
        if kind == "lemma_margins":
            _require(name, spec, {"c2_candidates"}, errors)
            if not isinstance(spec.get("c2_candidates"), list) or not spec.get(
                "c2_candidates"
            ):
                errors.append(f"{name}: c2_candidates must be a non-empty list")
    elif kind == "carleman_denjoy":
        _require(name, spec, {"N", "T_max"}, errors)
        if "N" in spec and (not isinstance(spec["N"], int) or spec["N"] < 1):
            errors.append(f"{name}: N must be a positive integer")
        _check_number(name, spec, "T_max", errors, lambda t: t > 1,
                      "T_max must exceed 1")


def schedule_from(spec) -> TailSchedule:
    """Schedule from a [[L, M], ...] breakpoint list (default: constant 1)."""
    if spec is None:
        return TailSchedule.constant(1)
    return TailSchedule(tuple((int(l), int(m)) for l, m in spec))


def build_sequence(spec: dict, base_dir=".") -> Sequence:
    if "file" in spec:
        text = Path(base_dir, spec["file"]).read_text(encoding="utf-8")
        return Sequence.from_text(text)
    builder = spec["builder"]
    if builder == "geometric":
        start, ratio, count = spec["start"], spec["ratio"], spec["count"]
        return Sequence(tuple(start * ratio**k for k in range(count)))
    if builder == "arithmetic":
        start, step, count = spec["start"], spec["step"], spec["count"]
        return Sequence(tuple(start + step * k for k in range(count)))
    if builder == "greedy":
        return build_greedy(spec["count"], schedule_from(spec.get("schedule")))
    if builder == "counterexample":
        return build_counterexample(spec["K"])
    raise ConfigError([f"sequence: unknown builder '{builder}'"])


def _build_comb(spec: dict, gamma, window) -> ThickSet:
    return periodic_comb(gamma, spec["delta"], window)


@dataclass(frozen=True)
class RunManifest:
    """Checksummed record of one completed run."""

    config_hash: str
    tool_version: str
    generator: str
    seed: int | None
    created_utc: str
    outputs: dict

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "generator": self.generator,
            "seed": self.seed,
            "created_utc": self.created_utc,
            "outputs": dict(self.outputs),
        }


@dataclass(frozen=True)
class PlotSpec:
    """Columns (two or three) to extract into a plot-data file."""

    columns: tuple
    sort_by: str | None = None


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows: list[dict]) -> str:
    cols = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([_COLUMN_LABELS.get(c, c) for c in cols])
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in cols])
    return buf.getvalue()


def emit_plot_data(rows: list[dict], spec: PlotSpec, path) -> Path:
    """Write a two-or-three-column whitespace-separated data file."""
    if not rows:
        raise ValueError("empty result table")
    if len(spec.columns) not in (2, 3):
        raise ValueError("plot spec needs two or three columns")
    for col in spec.columns:
        if col not in rows[0]:
            raise ValueError(f"missing column '{col}'")
    ordered = rows
    if spec.sort_by is not None:
        if spec.sort_by not in rows[0]:
            raise ValueError(f"missing column '{spec.sort_by}'")
        ordered = sorted(rows, key=lambda r: r[spec.sort_by])
    lines = ["# " + " ".join(spec.columns)]
    for row in ordered:
        lines.append(" ".join(_fmt(row[c]) for c in spec.columns))
    path = Path(path)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-keyed generator: trial draws are order-independent, so the
    trials of an ensemble may run concurrently without changing outputs."""
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def _grid(config: ExperimentConfig) -> Grid:
    return Grid(float(config.grid["period"]), int(config.grid["samples"]))


def _run_nazarov_sweep(config, base_dir):
    seq = build_sequence(config.sequence, base_dir)
    rows = []
    for m in config.set_spec["measures"]:
        E = ThickSet(((0.0, float(m)),), (0.0, 1.0))
        est = nazarov_constant(E, seq)
        rows.append(
            {
                "set_measure": float(m),
                "lambda_min": est.lambda_min,
                "constant_C": est.constant_C,
                "residual": est.residual,
            }
        )
    return {"nazarov_sweep.csv": rows}, {
        "lambda_min_vs_measure.dat": (
            "nazarov_sweep.csv",
            PlotSpec(("set_measure", "lambda_min"), "set_measure"),
        )
    }


def _run_greedy_growth(config, base_dir):
    schedule = schedule_from(config.params.get("schedule"))
    table = greedy_growth_table(config.params["count"], schedule)
    rows = [
        {"n": n, "lambda_n": value, "threshold": L, "cubic_bound": bound}
        for n, value, L, bound in table
    ]
    return {"greedy_growth.csv": rows}, {
        "greedy_growth_vs_bound.dat": (
            "greedy_growth.csv",
            PlotSpec(("n", "lambda_n", "cubic_bound"), "n"),
        )
    }


def _profile_from(params: dict, base_dir):
    profile = params["profile"]
    if "band" in profile:
        lo, hi = profile["band"]
        return (float(lo), float(hi)), max(abs(float(lo)), abs(float(hi)))
    seq = build_sequence(profile["sequence"], base_dir)
    prof = SpectralProfile(seq, 1.0)
    return prof, prof.max_abs_frequency


def _run_ls_gamma_sweep(config, base_dir):
    grid = _grid(config)
    profile, max_freq = _profile_from(config.params, base_dir)
    if 2 * max_freq >= grid.samples / grid.period:
        raise ConfigError(
            [
                f"grid: Nyquist violation, S/T = {grid.samples / grid.period} "
                f"does not exceed twice the top profile frequency {max_freq}"
            ]
        )
    window = (0.0, grid.period)
    rows = []
    for gamma in config.set_spec["gammas"]:
        E = _build_comb(config.set_spec, gamma, window)
        est = ls_constant(E, profile, grid)
        rows.append(
            {
                "gamma": float(gamma),
                "lambda_min": est.lambda_min,
                "constant_C": est.constant_C,
                "residual": est.residual,
            }
        )
    return {"ls_gamma_sweep.csv": rows}, {
        "constant_vs_gamma.dat": (
            "ls_gamma_sweep.csv",
            PlotSpec(("gamma", "constant_C"), "gamma"),
        )
    }


def _run_lemma_margins(config, base_dir):
    grid = _grid(config)
    seq = build_sequence(config.sequence, base_dir)
    prof = SpectralProfile(seq, 1.0)
    if 2 * prof.max_abs_frequency >= grid.samples / grid.period:
        raise ConfigError(["grid: Nyquist violation for the sequence profile"])
    E = _build_comb(config.set_spec, config.set_spec["gamma"], (0.0, grid.period))
    L = config.params["L"]
    c2s = [float(c) for c in config.params["c2_candidates"]]
    interval = (0.0, 1.0 / L)
    rows = []
    for trial in range(config.ensemble["trials"]):
        rng = _trial_rng(config.seed, trial)
        f_list = [
            random_band_function(grid, rng) for _ in range(len(seq))
        ]
        rec = lemma_main_report(f_list, seq, E, interval, L)
        row = {
            "trial": trial,
            "lhs": rec.lhs,
            "term_density": rec.term_density,
            "term_sobolev": rec.term_sobolev,
        }
        for c2 in c2s:
            margin = (rec.lhs + c2 * rec.term_sobolev / math.sqrt(L)) / rec.term_density
            row[f"margin_c2_{c2}"] = margin
        rows.append(row)
    summary = [
        {
            "c2": c2,
            "min_margin": min(r[f"margin_c2_{c2}"] for r in rows),
        }
        for c2 in c2s
    ]
    return (
        {"lemma_margins.csv": rows, "lemma_margin_summary.csv": summary},
        {
            "min_margin_vs_c2.dat": (
                "lemma_margin_summary.csv",
                PlotSpec(("c2", "min_margin"), "c2"),
            )
        },
    )


def _run_theorem_split(config, base_dir):
    grid = _grid(config)
    seq = build_sequence(config.sequence, base_dir)
    prof = SpectralProfile(seq, 1.0)
    if 2 * prof.max_abs_frequency >= grid.samples / grid.period:
        raise ConfigError(["grid: Nyquist violation for the sequence profile"])
    E = _build_comb(config.set_spec, config.set_spec["gamma"], (0.0, grid.period))
    L = config.params["L"]
    schedule = schedule_from(config.params.get("schedule"))
    width = math.floor(grid.period + 1e-9) + 1
    rows = []
    for trial in range(config.ensemble["trials"]):
        rng = _trial_rng(config.seed, trial)
        blocks = [
            rng.standard_normal(width) + 1j * rng.standard_normal(width)
            for _ in range(len(seq))
        ]
        rec = theorem_split_check(blocks, seq, schedule, L, E, grid)
        rows.append(
            {
                "trial": trial,
                "ratio": rec.ratio,
                "ratio_head": rec.ratio_head,
                "ratio_tail": rec.ratio_tail,
            }
        )
    return {"theorem_split.csv": rows}, {
        "ratio_per_trial.dat": (
            "theorem_split.csv",
            PlotSpec(("trial", "ratio"), "trial"),
        )
    }


def _run_carleman_denjoy(config, base_dir):
    report = carleman_denjoy_partial(
        config.params["N"], float(config.params["T_max"])
    )
    rows = [
        {
            "n": n,
            "M": report.M_values[n],
            "log_M": report.log_M[n],
            "mu": report.mu_values[n - 1],
            "partial_sum": report.partial_sums[n - 1],
        }
        for n in range(1, len(report.log_M))
    ]
    proxy = [
        {"T": t, "proxy_integral": v} for t, v in report.integral_proxy
    ]
    return (
        {"carleman_denjoy.csv": rows, "carleman_proxy.csv": proxy},
        {
            "partial_sums.dat": (
                "carleman_denjoy.csv",
                PlotSpec(("n", "partial_sum"), "n"),
            )
        },
    )


_KINDS = {
    "nazarov_sweep": _run_nazarov_sweep,
    "greedy_growth": _run_greedy_growth,
    "ls_gamma_sweep": _run_ls_gamma_sweep,
    "lemma_margins": _run_lemma_margins,
    "theorem_split": _run_theorem_split,
    "carleman_denjoy": _run_carleman_denjoy,
}


def run(config: ExperimentConfig, base_dir=".") -> RunManifest:
    """Execute one experiment and return its manifest.

    All results are computed in memory first; files are then written
    atomically and the manifest last, so a failed run leaves no manifest.
    """
    tables, plots = _KINDS[config.kind](config, base_dir)
    outdir = Path(base_dir, config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for fname, rows in tables.items():
        path = outdir / fname
        _atomic_write(path, _csv_text(rows))
        outputs[fname] = hashlib.sha256(path.read_bytes()).hexdigest()
    for fname, (table_name, spec) in plots.items():
        path = emit_plot_data(tables[table_name], spec, outdir / fname)
        outputs[fname] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = RunManifest(
        config_hash=config.digest(),
        tool_version=TOOL_VERSION,
        generator=GENERATOR_NAME,
        seed=config.seed,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        outputs=outputs,
    )
    _atomic_write(
        outdir / "manifest.json", json.dumps(manifest.to_dict(), indent=2) + "\n"
    )
    return manifest
