"""Config-driven batch experiments with reproducible, checksummed outputs.

A run parses a strict JSON config (unknown keys are errors), drives the
library over the requested parameter grid, and writes CSV tables plus
whitespace-separated plot-data files atomically; the manifest (config hash,
tool version, per-file checksums) is written last, and a previous run's
manifest is removed before the first file, so an interrupted run leaves no
manifest.  Random ensembles use the counter-based Philox
generator, which makes every derived number reproducible from the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import reprlib
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .concentration import (
    _lemma_form,
    _lemma_window,
    _ls_constants,
    _require_measure,
    _split_form,
    # no runner calls ls_constant now; the name stays bound for bench/tracing.py,
    # which wraps it, and tests/test_bench_names.py (a traced run counts no sweep)
    ls_constant,
    nazarov_constant,
)
from .errors import ConfigError, LimitError
from .sequences import (
    GREEDY_MAX_COUNT,
    Sequence,
    TailSchedule,
    build_counterexample,
    build_greedy,
    greedy_growth_table,
)
from .sets import ThickSet, periodic_comb
from .synthesis import MAX_SAMPLES, Grid, SpectralProfile
from .uniqueness import MAX_MOMENT_ORDER, carleman_denjoy_partial

# bench/tracing.py wraps these three by their names here, until ROADMAP D5
from .concentration import lemma_main_report, theorem_split_check  # noqa: F401
from .synthesis import random_band_function  # noqa: F401

__all__ = [
    "TOOL_VERSION",
    "GENERATOR_NAME",
    "ExperimentConfig",
    "RunManifest",
    "run",
    "build_sequence",
    "geometric_log2",
    "MAX_BUILT_COUNT",
    "MAX_TERM_BITS",
    "schedule_from",
    "comb_on_grid",
    "moment_rows",
    "csv_text",
    "field_violations",
    "trial_blocks",
    "lemma_trials",
    "split_trials",
]

TOOL_VERSION = __version__
GENERATOR_NAME = "philox4x64"

# Resource guards of the geometric and arithmetic builders, checked before
# any term is built: a million terms take about 1.3 s and 150 MB to build
# and write, and 2**20000 is the scale of the largest paired-power term
# 4**10000.  Float terms stop at the float range.
MAX_BUILT_COUNT = 10**6
MAX_TERM_BITS = 20_000

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


# The config schema.  A field is (required, type, bounds).  A type is int,
# float (any finite number), str (non-empty), a tuple of allowed literal
# values, a list pattern ([t]: a non-empty list of t; [t, u]: the pair t, u)
# or an _Object.  Bounds are an interval such as "(0, 1]" that every number
# in the value must lie in.  A bool is neither an integer nor a number.


@dataclass(frozen=True)
class _Object:
    """A JSON object: ``fields`` plus the fields of one of the ``variants``.

    With ``tag`` set, the value of that key names the variant; without it,
    the first variant name that is a key of the object does.
    """

    fields: dict
    tag: str | None = None
    variants: dict | None = None


_SCALARS = {
    int: ("an integer", lambda v: isinstance(v, int)),
    float: ("a number", lambda v: isinstance(v, int) or isinstance(v, float)
            and math.isfinite(v)),
    str: ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
}

_NUMBER = (True, float, None)
_POSITIVE_INT = (True, int, "[1, inf)")
_GREEDY_COUNT = (True, int, f"[1, {GREEDY_MAX_COUNT}]")
SCHEDULE = (False, [[int, int]], "[1, inf)")
SEED = (True, int, "[0, 18446744073709551616)")  # a Philox key word: below 2**64
SET_RECORD = (True, _Object({  # ThickSet.to_dict, read back by --set-file
    "intervals": (True, [[float, float]], None),
    "window": (True, [float, float], None),
    "periodic": (False, (True, False), None),
}), None)

_SEQUENCE = _Object({}, None, {
    "file": _Object({"file": (True, str, None)}),
    "builder": _Object({}, "builder", {
        "geometric": _Object(
            {"start": _NUMBER, "ratio": (True, float, "(1, inf)"), "count": _POSITIVE_INT}),
        "arithmetic": _Object(
            {"start": _NUMBER, "step": (True, float, "(0, inf)"), "count": _POSITIVE_INT}),
        "greedy": _Object({"count": _GREEDY_COUNT, "schedule": SCHEDULE}),
        "counterexample": _Object({"K": _POSITIVE_INT}),
    }),
})


def _section(fields: dict, tag=None, variants=None) -> tuple:
    return (True, _Object(fields, tag, variants), None)


def _comb(gamma_key: str, gamma_type) -> tuple:
    return _section({}, "pattern", {"comb": _Object(
        {gamma_key: (True, gamma_type, "(0, 1]"), "delta": (True, float, "(0, inf)")})})


_GRID = _section({"period": (True, float, "(0, inf)"),
                  "samples": (True, int, f"[2, {MAX_SAMPLES}]")})
_ENSEMBLE = _section({"trials": _POSITIVE_INT, "seed": SEED})
_PROFILE = _section({}, None, {
    "band": _Object({"band": (True, [float, float], None)}),
    "sequence": _Object({"sequence": (True, _SEQUENCE, None)}),
})

_PREFIX = _section({}, "pattern", {
    "prefix": _Object({"measures": (True, [float], "(0, 1]")}),
})

_COMMON = {"version": (True, (1,), None), "output_dir": (True, str, None)}
_CONFIG = _Object(_COMMON, "kind", {
    "nazarov_sweep": _Object({"sequence": (True, _SEQUENCE, None), "set": _PREFIX}),
    "greedy_growth": _Object({
        "params": _section({"count": _GREEDY_COUNT, "schedule": SCHEDULE}),
    }),
    "ls_gamma_sweep": _Object({
        "grid": _GRID,
        "set": _comb("gammas", [float]),
        "params": _section({"profile": _PROFILE}),
    }),
    "lemma_margins": _Object({
        "sequence": (True, _SEQUENCE, None),
        "grid": _GRID,
        "set": _comb("gamma", float),
        "ensemble": _ENSEMBLE,
        "params": _section({"L": _POSITIVE_INT, "c2_candidates": (True, [float], None)}),
    }),
    "theorem_split": _Object({
        "sequence": (True, _SEQUENCE, None),
        "grid": _GRID,
        "set": _comb("gamma", float),
        "ensemble": _ENSEMBLE,
        "params": _section({"L": _POSITIVE_INT, "schedule": SCHEDULE}),
    }),
    "carleman_denjoy": _Object({
        "params": _section({"N": (True, int, f"[1, {MAX_MOMENT_ORDER}]"),
                            "T_max": (True, float, "(1, inf)")}),
    }),
})


def _keys(obj: _Object) -> set:
    """Every key that some variant of ``obj`` accepts."""
    keys = set(obj.fields) | {obj.tag}
    for variant in (obj.variants or {}).values():
        keys |= _keys(variant)
    return keys


def _shape(type_) -> str:
    if isinstance(type_, list):
        return "[" + ", ".join(map(_shape, type_)) + (", ...]" if len(type_) == 1 else "]")
    return {int: "integer", float: "number", str: "string"}[type_]


def _within(value, bounds: str) -> bool:
    lo, hi = (float(x) for x in bounds[1:-1].split(","))
    return (lo < value if bounds[0] == "(" else lo <= value) and (
        value < hi if bounds[-1] == ")" else value <= hi
    )


def _check(value, type_, bounds, where: str, key, errors: list) -> None:
    """Append to ``errors`` every way in which ``value`` breaks the schema.

    ``where`` names the enclosing object and ``key`` the value within it
    (None for the whole config).
    """

    def fail(requirement: str, label=key) -> None:
        errors.append(f"{where}: {label} must {requirement}, got {reprlib.repr(value)}")

    if isinstance(type_, _Object):
        if not isinstance(value, dict):
            fail("be a JSON object", "top level" if key is None else f"section '{key}'")
            return
        name = where if key is None else key if where == "config" else f"{where}.{key}"
        # key -> (the variant that brought it in, required, type, bounds)
        fields = {k: (None, *f) for k, f in type_.fields.items()}
        node, chosen, tags = type_, None, {type_.tag}
        while node.variants:
            tag, variants = node.tag, node.variants
            present = (k for k in variants if k in value)
            pick = value.get(tag) if tag else next(present, None)
            if not (isinstance(pick, str) and pick in variants):
                wanted = (f"{tag} must be one of {sorted(variants)}, "
                          f"got {reprlib.repr(pick)}" if tag
                          else f"needs one of the keys {list(variants)}")
                errors.append(f"{name}: {wanted}")
                break
            chosen = f"{tag} '{pick}'" if tag else f"key '{pick}'"
            node = variants[pick]
            fields.update({k: (chosen, *f) for k, f in node.fields.items()})
            tags.add(node.tag)
        for k in value:
            if k in fields or k in tags:
                continue
            if k not in _keys(type_):
                errors.append(f"{name}: unknown key '{k}'")
            elif not node.variants:
                errors.append(f"{name}: key '{k}' is not used with {chosen}")
        for k, (owner, required, sub_type, sub_bounds) in fields.items():
            if k in value:
                _check(value[k], sub_type, sub_bounds, name, k, errors)
            elif required:
                noun = "section" if isinstance(sub_type, _Object) else "key"
                errors.append(f"{name}: {owner} requires {noun} '{k}'" if owner
                              else f"{name}: missing {noun} '{k}'")
    elif isinstance(type_, list):
        if not isinstance(value, list) or not (
            len(value) == len(type_) if len(type_) > 1 else value
        ):
            fail(f"be a list {_shape(type_)}")
            return
        for i, item in enumerate(value):
            item_type = type_[min(i, len(type_) - 1)]
            _check(item, item_type, bounds, where, f"{key}[{i}]", errors)
    elif isinstance(type_, tuple):
        if not any(type(value) is type(v) and value == v for v in type_):
            fail(f"be one of {json.dumps(list(type_))}")
    elif isinstance(value, bool) or not _SCALARS[type_][1](value):
        fail(f"be {_SCALARS[type_][0]}")
    elif bounds is not None and not _within(value, bounds):
        fail(f"lie in {bounds}")


def field_violations(value, field: tuple, where: str = "value") -> list[str]:
    """What keeps ``value`` from satisfying one schema field, such as SCHEDULE.

    The messages start with ``where``; those about an object name its keys.
    """
    errors: list[str] = []
    key = None if isinstance(field[1], _Object) else where
    _check(value, field[1], field[2], where, key, errors)
    return errors


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
        errors: list[str] = []
        _check(d, _CONFIG, None, "config", None, errors)
        if errors:
            raise ConfigError(errors)
        sections = ("sequence", "set", "grid", "ensemble", "params")
        return cls(1, d["kind"], d["output_dir"], *(d.get(k) for k in sections))

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


def schedule_from(spec) -> TailSchedule:
    """Schedule from a [[L, M], ...] breakpoint list (default: constant 1)."""
    if spec is None:
        return TailSchedule.constant(1)
    return TailSchedule(tuple(map(tuple, spec)))


def geometric_log2(spec: dict) -> float:
    """log2 of the largest term magnitude of a geometric builder spec,
    |start| max(1, |ratio|)^(count - 1), from the spec alone."""
    start, ratio, count = spec["start"], spec["ratio"], spec["count"]
    head = math.log2(abs(start)) if start else -math.inf
    return head + (count - 1) * max(0.0, math.log2(abs(ratio)) if ratio else 0.0)


def build_sequence(spec: dict, base_dir=".") -> Sequence:
    """The sequence of a config's sequence spec.

    A geometric or arithmetic spec of more than MAX_BUILT_COUNT terms, or a
    geometric one whose terms pass 2**MAX_TERM_BITS (the float range for
    float terms), is refused with a LimitError naming ``count`` before any
    term is built.
    """
    if "file" in spec:
        try:
            return Sequence.from_text(Path(base_dir, spec["file"]).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError([f"sequence file {spec['file']!r}: {exc}"]) from None
    builder = spec["builder"]
    if builder in ("geometric", "arithmetic") and spec["count"] > MAX_BUILT_COUNT:
        raise LimitError("count", f"{spec['count']} is above {MAX_BUILT_COUNT}, the most "
                         f"terms of the {builder} builder")
    if builder == "geometric":
        start, ratio, count = spec["start"], spec["ratio"], spec["count"]
        if isinstance(start, int) and isinstance(ratio, int):
            if geometric_log2(spec) > MAX_TERM_BITS:
                raise LimitError("count", f"{count} gives terms above 2**{MAX_TERM_BITS}")
        # float terms stop at the float range, and so does the power ratio**k
        elif max(geometric_log2(spec), geometric_log2({**spec, "start": 1})) >= 1024:
            raise LimitError("count", f"{count} gives terms above the largest float "
                             f"{sys.float_info.max!r}")
        return Sequence(tuple(start * ratio**k for k in range(count)))
    if builder == "arithmetic":
        start, step, count = spec["start"], spec["step"], spec["count"]
        return Sequence(tuple(start + step * k for k in range(count)))
    if builder == "greedy":
        return build_greedy(spec["count"], schedule_from(spec.get("schedule")))
    return build_counterexample(spec["K"])


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
        return asdict(self)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


def _atomic_write(path: Path, text: str) -> str:
    """Write ``text`` as UTF-8 through a temporary file renamed onto
    ``path``, and return the sha256 of the bytes written."""
    data = text.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


def _cells(rows: list[dict]) -> dict:
    """Each column of ``rows`` as the text of its cells (``_fmt``), in row
    order: the strings that a table's CSV and its plots are built from."""
    return {c: [_fmt(row[c]) for row in rows] for c in rows[0]}


def _csv_of(cells: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([_COLUMN_LABELS.get(c, c) for c in cells])
    writer.writerows(zip(*cells.values()))
    return buf.getvalue()


def csv_text(rows: list[dict]) -> str:
    """The runner's CSV table: a header of labelled columns, then one line per row."""
    return _csv_of(_cells(rows))


def _plot_text(rows: list[dict], columns: tuple, cells: dict) -> str:
    """Two or three columns of ``rows``, sorted by the first, as the text of
    a whitespace-separated data file, from the cell texts ``cells`` of the
    rows (``_cells``)."""
    if not rows:
        raise ValueError("empty result table")
    if len(columns) not in (2, 3):
        raise ValueError("a plot needs two or three columns")
    for col in columns:
        if col not in rows[0]:
            raise ValueError(f"missing column '{col}'")
    order = sorted(range(len(rows)), key=lambda i: rows[i][columns[0]])
    lines = ["# " + " ".join(columns)]
    lines += map(" ".join, zip(*([cells[c][i] for i in order] for c in columns)))
    return "\n".join(lines) + "\n"


@contextmanager
def _grid_refusals():
    """Report a ValueError of the block as the ConfigError ``grid: ...``: the
    refusals of a validated config's bands and trials that its grid brings
    about (Nyquist, off-grid frequencies, shared bins, the window)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError([f"grid: {exc}"]) from None


def comb_on_grid(gamma, delta, grid: Grid) -> ThickSet:
    """``periodic_comb(gamma, delta, (0, T))`` on the grid window [0, T].

    A comb with more blocks than the grid has samples is refused with a
    ConfigError before any block is built: the grid cannot resolve it, and
    its block list alone can exhaust memory.
    """
    T = grid.period
    if delta > 0 and T / delta > grid.samples:
        raise ConfigError([
            f"set: delta {delta!r} makes {T / delta:.6g} comb blocks over "
            f"[0.0, {T}], more than the {grid.samples} grid samples"
        ])
    return periodic_comb(gamma, delta, (0.0, T))


def _gaussian_rows(seed: int, trials: int, widths) -> np.ndarray:
    """Standard complex Gaussian coefficients of trials 0..trials-1, one row
    per trial: row t draws from ``Philox(key=[seed, t])`` one block per
    width, real parts then imaginary parts, and holds the blocks end to end.
    The generator is keyed by the trial, so no row depends on another; one is
    reset to each key and draws a trial's normals in one call, dealt out.
    The key is built as uint64 words: a list would pass a seed >= 2**63
    through float64, which merges neighbouring seeds."""
    widths = np.asarray(widths, dtype=np.int64)
    real = np.repeat(np.cumsum(widths) - widths, widths) + np.arange(widths.sum())
    imag = real + np.repeat(widths, widths)
    normals = np.empty((trials, 2 * widths.sum()))
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng, state = np.random.Generator(bits), bits.state
    for trial, row in enumerate(normals):
        state["state"]["key"][1] = trial
        bits.state = state
        rng.standard_normal(out=row)
    rows = np.empty((trials, widths.sum()), dtype=complex)
    rows.real, rows.imag = normals[:, real], normals[:, imag]
    return rows


def _profile_of(seq: Sequence) -> SpectralProfile:
    """The SpectralProfile of seq; an empty seq is a ConfigError naming the
    sequence, where its profile would be refused as holding no grid
    frequencies."""
    if not len(seq):
        raise ConfigError(["sequence: need at least one frequency"])
    return SpectralProfile(seq)


def _band_widths(seq: Sequence, grid: Grid) -> list:
    """The bins of each band [lambda, lambda + 1], as many coefficients as
    ``synthesize`` takes per block; a ConfigError if the grid does not
    resolve them."""
    profile = _profile_of(seq)
    with _grid_refusals():
        grid.band_bins(profile)
        return [grid.band_bins((lam, lam + 1)).size for lam in seq.values]


def trial_blocks(seq: Sequence, grid: Grid, seed: int, trials: int) -> list:
    """Coefficient blocks of trials 0..trials-1, as ``split_trials`` draws
    them: trial t draws from ``Philox(key=[seed, t])`` one standard complex
    Gaussian block per frequency, one entry per bin of its band."""
    ends = np.cumsum([0, *_band_widths(seq, grid)])
    return [np.split(row, ends[1:-1]) for row in _gaussian_rows(seed, trials, np.diff(ends))]


def _ensemble_refusals(E: ThickSet, L: int) -> None:
    """What both ensembles refuse before their grid is consulted."""
    if L < 1:
        raise ValueError("L must be a positive integer")
    _require_measure(E)


def lemma_trials(seq, E, grid: Grid, L: int, seed: int, trials: int) -> list:
    """Local-lemma terms on [0, 1/L] of trials 0..trials-1: trial t draws the
    coefficients of ``random_band_function`` on the m bins of [0, 1], one
    (N, m) block, and all trials share the exact forms of ``lemma_main_report``.
    A grid whose window [0, T] does not hold [0, 1/L] or is not E's window,
    or that does not resolve the bins the trials fill, is a ConfigError."""
    _ensemble_refusals(E, L)
    _profile_of(seq)  # refuses an empty sequence and overlapping bands
    with _grid_refusals():
        window = _lemma_window(E, grid, (0.0, 1.0 / L))
        band = grid.band_bins((0.0, 1.0))  # nonnegative bins: FFT-order indices as they are
        terms = _lemma_form(seq.values, grid, window, [(band, band[[0, -1]])] * len(seq))
    return terms(_gaussian_rows(seed, trials, [band.size] * len(seq)))


def split_trials(seq, E, grid: Grid, L: int, schedule, seed: int, trials: int) -> list:
    """Head/tail split checks of trials 0..trials-1, the blocks of
    ``trial_blocks`` held end to end as one coefficient array, on one exact
    form G (see ``theorem_split_check``).  A sequence with a frequency <= 0
    is a ConfigError naming the sequence; a grid refused by
    ``theorem_split_check``, one naming the grid."""
    if not seq.positive:
        raise ConfigError(["sequence: hypothesis violation: frequencies must be positive"])
    _ensemble_refusals(E, L)
    widths = _band_widths(seq, grid)
    with _grid_refusals():
        checks = _split_form([(w,) for w in widths], seq, schedule, L, E, grid)
    return checks(_gaussian_rows(seed, trials, widths))


def _grid(config: ExperimentConfig) -> Grid:
    return Grid(float(config.grid["period"]), int(config.grid["samples"]))


def _ensemble_inputs(config: ExperimentConfig, base_dir) -> tuple:
    """Sequence, comb set and grid of a lemma_margins or theorem_split run."""
    grid = _grid(config)
    seq = build_sequence(config.sequence, base_dir)
    spec = config.set_spec
    return seq, comb_on_grid(spec["gamma"], spec["delta"], grid), grid


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
        "lambda_min_vs_measure.dat": ("nazarov_sweep.csv", ("set_measure", "lambda_min"))
    }


def _run_greedy_growth(config, base_dir):
    schedule = schedule_from(config.params.get("schedule"))
    table = greedy_growth_table(config.params["count"], schedule)
    rows = [
        {"n": n, "lambda_n": value, "threshold": L, "cubic_bound": bound}
        for n, value, L, bound in table
    ]
    return {"greedy_growth.csv": rows}, {
        "greedy_growth_vs_bound.dat": ("greedy_growth.csv", ("n", "lambda_n", "cubic_bound"))
    }


def _profile_from(params: dict, base_dir):
    profile = params["profile"]
    if "band" in profile:
        lo, hi = profile["band"]
        return (float(lo), float(hi))
    return _profile_of(build_sequence(profile["sequence"], base_dir))


def _run_ls_gamma_sweep(config, base_dir):
    grid = _grid(config)
    profile = _profile_from(config.params, base_dir)
    with _grid_refusals():
        bins = grid.band_bins(profile)
    gammas = config.set_spec["gammas"]
    combs = [comb_on_grid(gamma, config.set_spec["delta"], grid) for gamma in gammas]
    rows = []
    for gamma, est in zip(gammas, _ls_constants(combs, bins, grid)):
        rows.append(
            {
                "gamma": float(gamma),
                "lambda_min": est.lambda_min,
                "constant_C": est.constant_C,
                "residual": est.residual,
            }
        )
    return {"ls_gamma_sweep.csv": rows}, {
        "constant_vs_gamma.dat": ("ls_gamma_sweep.csv", ("gamma", "constant_C"))
    }


def _run_lemma_margins(config, base_dir):
    seq, E, grid = _ensemble_inputs(config, base_dir)
    L = config.params["L"]
    c2s = [float(c) for c in config.params["c2_candidates"]]
    records = lemma_trials(seq, E, grid, L, config.seed, config.ensemble["trials"])
    rows = []
    for trial, rec in enumerate(records):
        row = {"trial": trial, **rec.to_dict()}
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
        {"min_margin_vs_c2.dat": ("lemma_margin_summary.csv", ("c2", "min_margin"))},
    )


def _run_theorem_split(config, base_dir):
    seq, E, grid = _ensemble_inputs(config, base_dir)
    schedule = schedule_from(config.params.get("schedule"))
    records = split_trials(
        seq, E, grid, config.params["L"], schedule, config.seed, config.ensemble["trials"]
    )
    rows = [{"trial": trial, **rec.to_dict()} for trial, rec in enumerate(records)]
    return {"theorem_split.csv": rows}, {
        "ratio_per_trial.dat": ("theorem_split.csv", ("trial", "ratio"))
    }


def moment_rows(report) -> list[dict]:
    """The rows of carleman_denjoy.csv: M_n, log M_n, mu_n and the partial
    sums of a QuasiAnalyticityReport for n = 1..N."""
    return [
        {
            "n": n,
            "M": report.M_values[n],
            "log_M": report.log_M[n],
            "mu": report.mu_values[n - 1],
            "partial_sum": report.partial_sums[n - 1],
        }
        for n in range(1, len(report.log_M))
    ]


def _run_carleman_denjoy(config, base_dir):
    report = carleman_denjoy_partial(
        config.params["N"], float(config.params["T_max"])
    )
    proxy = [
        {"T": t, "proxy_integral": v} for t, v in report.integral_proxy
    ]
    return (
        {"carleman_denjoy.csv": moment_rows(report), "carleman_proxy.csv": proxy},
        {"partial_sums.dat": ("carleman_denjoy.csv", ("n", "partial_sum"))},
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
    A previous run's manifest in the output directory is removed before the
    first file is written, so a rerun that fails there leaves none either.
    """
    tables, plots = _KINDS[config.kind](config, base_dir)
    outdir = Path(base_dir, config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").unlink(missing_ok=True)
    outputs = {}
    cells = {fname: _cells(rows) for fname, rows in tables.items()}  # each cell formatted once
    for fname, table in cells.items():
        outputs[fname] = _atomic_write(outdir / fname, _csv_of(table))
    for fname, (table_name, columns) in plots.items():
        outputs[fname] = _atomic_write(
            outdir / fname, _plot_text(tables[table_name], columns, cells[table_name]))
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
