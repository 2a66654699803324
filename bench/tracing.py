"""Traced runs: spans at lacspec's layer boundaries and per-layer metrics.

Spans come from wrapping public functions at the names their callers look
them up by (``lacspec.experiments.ls_constant`` for the runner,
``lacspec.concentration.hermitian_eigensystem`` for the Gram estimators,
``lacspec.uniqueness.quad`` for the moment proxy); the library is not
modified and the wrappers are removed when the run ends.  Each span is
(name, start, end, parent index), kept in memory and written out at the
end.  A layer's self time is its span duration minus the part of it that
child spans cover.

Counts labelled computed are derived from call arguments (matrix entries,
interval evaluations, distinct frequency differences, collision pairs, FFT
samples), so they repeat exactly and describe the work the inputs ask for;
the other counts are measured by counting calls.
"""

from __future__ import annotations

import functools
import math
import statistics
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

from lacspec import concentration, experiments, sequences, sets, synthesis, uniqueness

# Per-layer metric -> unit, in the order they are reported.
LAYER_METRICS = {
    "concentration.assembly_s": "s",
    "concentration.eigensolve_s": "s",
    "concentration.quadrature_s": "s",
    "concentration.entries": "count",
    "concentration.interval_evals": "count",
    "concentration.distinct_diff_share": "share",
    "concentration.dim_max": "count",
    "synthesis.synthesize_s": "s",
    "synthesis.random_band_s": "s",
    "synthesis.samples_transformed": "count",
    "sequences.greedy_s": "s",
    "sequences.greedy_peak_alloc_mb": "MB",
    "sequences.collision_s": "s",
    "sequences.collision_pairs": "count",
    "sets.thickness_s": "s",
    "sets.partition_s": "s",
    "sets.measure_in_calls": "count",
    "uniqueness.moments_s": "s",
    "uniqueness.quad_s": "s",
    "uniqueness.quad_calls": "count",
    "init.import_s": "s",
    "init.scipy_import_s": "s",
    "init.first_eigh_s": "s",
    "experiments.validate_s": "s",
    "experiments.self_s": "s",
    "experiments.bytes_written": "count",
    "trace.overhead_share": "share",
}

# Time metric -> the spans whose self time it sums.
SELF_TIME = {
    "concentration.assembly_s": ("concentration.gram_matrix", "concentration.ls_constant",
                                 "concentration.nazarov_constant"),
    "concentration.eigensolve_s": ("concentration.hermitian_eigensystem",),
    "concentration.quadrature_s": ("concentration.lemma_main_report",
                                   "concentration.theorem_split_check"),
    "synthesis.synthesize_s": ("synthesis.synthesize",),
    "synthesis.random_band_s": ("synthesis.random_band_function",),
    "sequences.greedy_s": ("sequences.greedy_growth_table", "sequences.build_greedy"),
    "sequences.collision_s": ("sequences.zygmund_constant", "sequences.strong_zygmund_profile"),
    "sets.thickness_s": ("sets.thickness",),
    "sets.partition_s": ("sets.partition_good_bad",),
    "uniqueness.moments_s": ("uniqueness.carleman_denjoy_partial",),
    "uniqueness.quad_s": ("uniqueness.quad",),
    "experiments.validate_s": ("experiments.validate",),
    "experiments.self_s": ("experiments.run",),
}


# --- computed work counts, from call arguments ------------------------------


def _entries(n: int) -> int:
    return n * (n + 1) // 2  # one triangle, mirrored


def _distinct_differences(values) -> int:
    return len({values[i] - values[j] for i in range(len(values)) for j in range(i, len(values))})


def _count_matrix(counts, n, intervals, values):
    counts["concentration.entries"] += _entries(n)
    counts["concentration.interval_evals"] += _entries(n) * intervals
    counts["distinct_differences"] += _distinct_differences(values)


def _count_gram(counts, args, kwargs, result):
    E, seq = args
    _count_matrix(counts, len(seq), len(E.intervals), seq.values)


def _count_ls(counts, args, kwargs, result):
    E, profile, grid = args
    pieces = profile.intervals() if isinstance(profile, synthesis.SpectralProfile) else (profile,)
    bins = sorted({k for lo, hi in pieces
                   for k in range(math.ceil(lo * grid.period - 1e-9),
                                  math.floor(hi * grid.period + 1e-9) + 1)})
    _count_matrix(counts, len(bins), len(E.intervals), bins)


def _count_dim(counts, args, kwargs, result):
    counts["concentration.dim_max"] = max(counts["concentration.dim_max"], args[0].dimension)


def _count_fft(per_call):
    def count(counts, args, kwargs, result):
        counts["synthesis.samples_transformed"] += per_call(args)
    return count


def _count_pairs(counts, args, kwargs, result):
    n = len(args[0])
    counts["sequences.collision_pairs"] += n * (n - 1)


def _count_bytes(counts, args, kwargs, result):
    base = kwargs.get("base_dir", args[1] if len(args) > 1 else ".")
    outdir = Path(base, args[0].output_dir)
    for name in list(result.outputs) + ["manifest.json"]:
        counts["experiments.bytes_written"] += (outdir / name).stat().st_size


def _count_call(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _targets():
    """(owner, attribute, span name, counter or None, track allocations)."""
    C, E, Q, S, U = concentration, experiments, sequences, sets, uniqueness
    ls = ("concentration.ls_constant", _count_ls, False)
    nazarov = ("concentration.nazarov_constant", None, False)
    greedy = ("sequences.build_greedy", None, True)
    return [
        (E, "run", "experiments.run", _count_bytes, False),
        (E.ExperimentConfig, "from_dict", "experiments.validate", None, False),
        (E, "ls_constant", *ls),
        (C, "ls_constant", *ls),
        (E, "nazarov_constant", *nazarov),
        (C, "nazarov_constant", *nazarov),
        (C, "gram_matrix", "concentration.gram_matrix", _count_gram, False),
        (C, "hermitian_eigensystem", "concentration.hermitian_eigensystem", _count_dim, False),
        (E, "lemma_main_report", "concentration.lemma_main_report",
         _count_fft(lambda a: 2 * len(a[0]) * a[0][0].grid.samples), False),
        (E, "theorem_split_check", "concentration.theorem_split_check", None, False),
        (C, "synthesize", "synthesis.synthesize",
         _count_fft(lambda a: 2 * a[2].samples), False),
        (E, "random_band_function", "synthesis.random_band_function",
         _count_fft(lambda a: 2 * a[0].samples), False),
        (E, "greedy_growth_table", "sequences.greedy_growth_table", None, True),
        (E, "build_greedy", *greedy),
        (Q, "build_greedy", *greedy),
        (Q, "zygmund_constant", "sequences.zygmund_constant", _count_pairs, False),
        (Q, "strong_zygmund_profile", "sequences.strong_zygmund_profile", None, False),
        (S, "thickness", "sets.thickness", None, False),
        (S, "partition_good_bad", "sets.partition_good_bad", None, False),
        (E, "carleman_denjoy_partial", "uniqueness.carleman_denjoy_partial", None, False),
        (U, "quad", "uniqueness.quad", _count_call("uniqueness.quad_calls"), False),
    ]


class Recorder:
    """In-memory spans and counts of a traced run.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions.  Counts are taken only while
    ``counting`` is set, so they describe one pass.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.pass_starts: list[int] = []
        self.counts: Counter = Counter()
        self.counting = False
        self.peak_alloc = 0
        self._restore: list[tuple] = []

    def begin_pass(self, counting: bool) -> None:
        self.pass_starts.append(len(self.names))
        self.counting = counting

    def _wrap(self, fn, name, counter, track_alloc):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec.stack[-1] if rec.stack else -1)
            rec.starts.append(0.0)
            rec.ends.append(0.0)
            rec.stack.append(idx)
            if track_alloc:
                tracemalloc.start()
            rec.starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = perf_counter()
                rec.stack.pop()
                if track_alloc:
                    rec.peak_alloc = max(rec.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None and rec.counting:
                counter(rec.counts, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for owner, attr, name, counter, track_alloc in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, counter, track_alloc))
            else:
                new = self._wrap(raw, name, counter, track_alloc)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)
        measure_in = sets.ThickSet.measure_in
        rec = self

        @functools.wraps(measure_in)
        def counted(*args, **kwargs):
            if rec.counting:
                rec.counts["sets.measure_in_calls"] += 1
            return measure_in(*args, **kwargs)

        self._restore.append((sets.ThickSet, "measure_in", measure_in))
        sets.ThickSet.measure_in = counted
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        return False

    def spans(self) -> list:
        return [list(s) for s in zip(self.names, self.starts, self.ends, self.parents)]

    def self_times(self, lo: int, hi: int) -> Counter:
        """Self time per span name over spans lo..hi-1 (one pass)."""
        children: dict[int, list[int]] = {}
        for i in range(lo, hi):
            if self.parents[i] >= 0:
                children.setdefault(self.parents[i], []).append(i)
        totals: Counter = Counter()
        for i in range(lo, hi):
            covered, edge = 0.0, self.starts[i]
            for c in sorted(children.get(i, ()), key=self.starts.__getitem__):
                a, b = max(self.starts[c], edge), min(self.ends[c], self.ends[i])
                if b > a:
                    covered += b - a
                    edge = b
            totals[self.names[i]] += self.ends[i] - self.starts[i] - covered
        return totals

    def layer_metrics(self, init: dict, overhead_share: float) -> dict:
        """Median over traced passes of each layer time, plus one pass's counts."""
        bounds = self.pass_starts + [len(self.names)]
        per_pass = [self.self_times(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        values = {
            metric: statistics.median(sum(t[s] for s in names) for t in per_pass)
            for metric, names in SELF_TIME.items()
        }
        c = self.counts
        values.update({k: c[k] for k in LAYER_METRICS if k in c})
        values["concentration.distinct_diff_share"] = (
            c["distinct_differences"] / c["concentration.entries"] if c["concentration.entries"] else 0.0)
        values["sequences.greedy_peak_alloc_mb"] = self.peak_alloc / 2**20
        values.update(init)
        values["trace.overhead_share"] = overhead_share
        return {k: {"value": values.get(k, 0), "unit": u} for k, u in LAYER_METRICS.items()}
