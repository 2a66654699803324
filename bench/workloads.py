"""The benchmark's workloads: seeded pipelines from the paper, driven through
lacspec's public functions and `lacspec run` configs.

A builder turns a seed into inputs (config and sequence files in a work
directory, or sets and sequences handed to public functions) and returns the
operations of one pass.  The seed moves values, never sizes: every seed gives
the same dimensions, interval counts, trial counts and grid sizes, so the
work of a pass does not depend on it.  ``tiny`` shrinks every size for the
self-test.

Why each workload was chosen:
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from lacspec import concentration, experiments, sequences, sets
from lacspec.sequences import Sequence, TailSchedule
from lacspec.sets import ThickSet
from lacspec.synthesis import Grid

import oracles as O

WHY = {
    "thick_ls": "exact thickness and partition of combs and rational unions, then "
    "Logvinenko-Sereda sweeps (T = 32..128): Toeplitz Gram assembly over many "
    "intervals dominates, sets are the rest",
    "lacunary_torus": "greedy runs (n = 300, 400) with collision certificates, torus "
    "Gram constants on greedy and paired-power frequencies (K past 29), moments: "
    "sequences dominate time and memory",
    "split_ensemble": "Philox-keyed theorem_split and lemma_margins ensembles on 16k-32k "
    "grids: FFT synthesis and cell quadrature only, no Gram matrix, so a Gram-kernel "
    "change must predict no change",
}
__doc__ += "".join(f"\n{name}: {why}.\n" for name, why in WHY.items())

K_EXACT_LIMIT = 29
K_DEFECT = (
    "gram_matrix converts frequencies to float before differencing, so "
    "paired-power Gram matrices with K >= 29 lose exactness (ROADMAP known defect)"
)


def _identity(x):
    return x


@dataclass
class Op:
    """One lacspec operation of a pass and the oracle that judges it.

    ``call`` is timed.  ``check(view(result))`` raises OracleError on a wrong
    result.  Each corruption is (message keyword, function of the view
    returning a damaged copy) that the check must reject with that keyword.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    view: Callable[[object], object] = _identity
    corruptions: tuple = ()
    known_defect: str | None = None


def _flip_byte(view: O.RunView) -> O.RunView:
    name = sorted(view.files)[0]
    data = bytearray(view.files[name])
    data[-2] ^= 1
    return dataclasses.replace(view, files=dict(view.files, **{name: bytes(data)}))


def _edit_rows(view: O.RunView, table: str, edit) -> O.RunView:
    rows = view.table(table)
    edit(rows)
    return view.with_table(table, rows)


def experiment_op(name, workdir: Path, config: dict, files, check_tables, corruptions) -> Op:
    """Op that validates a generated config file and runs it with `lacspec run`."""
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    outdir = workdir / config["output_dir"]

    def call():
        return experiments.run(experiments.ExperimentConfig.from_file(path), base_dir=workdir)

    def check(view):
        O.check_checksums(view, files, name)
        check_tables(view)

    return Op(
        name,
        call,
        check,
        lambda manifest: O.RunView.read(manifest, outdir),
        (("checksum", _flip_byte),) + tuple(corruptions),
    )


def _sweep_checks(name, table, key, density):
    """lambda_min rows of a sweep over nested sets, sorted by ``key``."""

    def check(view):
        rows = view.table(table)
        O.check_monotone([r["lambda_min"] for r in sorted(rows, key=lambda r: r[key])], name)
        for r in rows:
            O.check_trace_bound(r["lambda_min"], r["constant_C"], density(r[key]), name)
            if r[key] == 1.0:
                O.check_identity(r["lambda_min"], name)

    def set_lambda(i, lam):
        def edit(rows):
            rows[i]["lambda_min"] = lam
            rows[i]["constant_C"] = 1.0 / lam
        return edit

    def above_bound(view):
        # the largest set below the full one: rows before it stay below it
        r = view.table(table)[-2]
        return _edit_rows(view, table, set_lambda(-2, density(r[key]) + 0.01))

    def decreasing(view):
        lam = view.table(table)[0]["lambda_min"]
        return _edit_rows(view, table, set_lambda(1, lam / 2))

    def not_identity(view):
        return _edit_rows(view, table, set_lambda(-1, 1.0 - 1e-6))

    return check, (
        ("outside [0, density", above_bound),
        ("decreases", decreasing),
        ("!= 1 on the full set", not_identity),
    )


def _rational_gammas(rng, count, lo=3, hi=14):
    """Distinct comb fill fractions k/16, sorted, all below 1."""
    return sorted(k / 16 for k in rng.sample(range(lo, hi), count))


def _ls_sweep_op(name, workdir, T, samples, delta, gammas, profile) -> Op:
    config = {
        "version": 1,
        "kind": "ls_gamma_sweep",
        "output_dir": f"out-{name}",
        "grid": {"period": float(T), "samples": samples},
        "set": {"pattern": "comb", "gammas": gammas, "delta": float(delta)},
        "params": {"profile": profile},
    }
    check, corr = _sweep_checks(name, "ls_gamma_sweep.csv", "gamma", lambda g: g)
    return experiment_op(
        name, workdir, config, {"ls_gamma_sweep.csv", "constant_vs_gamma.dat"}, check, corr
    )


def _set_ops(name, E: ThickSet, Delta, L) -> list[Op]:
    """Exact thickness and good/bad partition of one set."""
    shape = (E.intervals, E.window, E.periodic)
    gamma = O.exact_thickness(*shape, Delta)

    def worse_bound(report):
        return dataclasses.replace(report, lower_bound=report.lower_bound + 1)

    def moved_cell(report):
        good = list(report.good_indices)
        bad = list(report.bad_indices)
        good[0], bad[0] = good[0][1:], tuple(sorted(bad[0] + good[0][:1]))
        return dataclasses.replace(report, good_indices=tuple(good), bad_indices=tuple(bad))

    return [
        Op(
            f"thickness.{name}",
            lambda: sets.thickness(E, Delta),
            lambda v: O.check_thickness(v, *shape, Delta, name),
            corruptions=(("thickness", lambda v: v + Fraction(1, 97)),),
        ),
        Op(
            f"partition.{name}",
            lambda: sets.partition_good_bad(E, Delta, L, gamma),
            lambda r: O.check_partition(r, *shape, Delta, L, gamma, name),
            corruptions=(("certified bound", worse_bound), ("good cells", moved_cell)),
        ),
    ]


def _rational_union(rng, T) -> ThickSet:
    """One interval per length-2 block, offset and length in multiples of 1/8."""
    pieces = []
    for k in range(T // 2):
        a = 2 * k + Fraction(rng.randrange(0, 8), 8)
        pieces.append((a, a + Fraction(rng.randrange(3, 9), 8)))
    return ThickSet(tuple(pieces), (0, T))


def thick_ls(rng, workdir: Path, tiny: bool = False) -> list[Op]:
    """Thick-set pipeline: certify sets exactly, then Logvinenko-Sereda sweeps."""
    ops: list[Op] = []
    # (window T, comb block delta, subdivision L)
    windows = ((8, 1, 2), (16, 2, 2)) if tiny else ((32, 1, 4), (64, 2, 2), (128, 2, 2))
    unions = {}
    for T, delta, L in windows:
        comb = sets.periodic_comb(Fraction(rng.randrange(3, 14), 16), delta, (0, T))
        ops += _set_ops(f"comb_T{T}", comb, 2 * delta, L)
        unions[T] = _rational_union(rng, T)
        ops += _set_ops(f"union_T{T}", unions[T], 4, L)

    band = {"band": [0.0, 1.0]}
    lacunary = {"sequence": {"builder": "geometric", "start": rng.choice((1, 2)),
                             "ratio": 4, "count": 2 if tiny else 3}}
    if tiny:
        sweeps = (("ls.band_T16", 16, 64, 2, 1, band), ("ls.lacunary_T8", 8, 512, 1, 1, lacunary))
    else:
        sweeps = (
            ("ls.band_T64", 64, 256, 2, 3, band),
            ("ls.lacunary_T32", 32, 4096, 1, 2, lacunary),
            ("ls.band_T128", 128, 512, 8, 1, band),
        )
    for name, T, samples, delta, count, profile in sweeps:
        gammas = _rational_gammas(rng, count) + [1.0]
        ops.append(_ls_sweep_op(name, workdir, T, samples, delta, gammas, profile))

    for T in (8, 16) if tiny else (32, 64):
        E = unions[T]
        density = float(E.measure) / T
        ops.append(Op(
            f"ls.union_T{T}",
            lambda E=E, T=T: concentration.ls_constant(E, (0.0, 1.0), Grid(float(T), 4 * T)),
            lambda est, d=density, n=f"ls.union_T{T}": O.check_trace_bound(
                est.lambda_min, est.constant_C, d, n),
            corruptions=(("outside [0, density",
                          lambda est, d=density: dataclasses.replace(
                              est, lambda_min=d + 0.01, constant_C=1 / (d + 0.01))),),
        ))
    return ops


def _torus_intervals(rng, count):
    """``count`` disjoint intervals of [0, 1] with endpoints in (1/64)Z."""
    ends = sorted(rng.sample(range(1, 64), 2 * count))
    return tuple((ends[i] / 64, ends[i + 1] / 64) for i in range(0, 2 * count, 2))


def lacunary_torus(rng, workdir: Path, tiny: bool = False) -> list[Op]:
    """Lacunary-sequence pipeline: greedy runs, collision certificates, torus
    Gram constants, paired powers on the full torus, moments."""
    n_greedy, n_growth, n_gram, n_sweep = (40, 30, 20, 15) if tiny else (400, 300, 200, 150)
    ops: list[Op] = []

    def greedy_corruptions(terms_of, replace_last):
        def above_cubic(x):
            terms = terms_of(x)
            n = len(terms) - 1
            return replace_last(x, 5 * n**3 + 2)  # above the bound for L <= 2
        return (("cubic bound", above_cubic),
                ("a + b - c", lambda x: replace_last(x, terms_of(x)[-2] + terms_of(x)[-3] - 1)))

    ops.append(Op(
        "greedy.build",
        lambda: sequences.build_greedy(n_greedy),
        lambda s: O.check_greedy(s.values, [1] * len(s), "greedy.build"),
        corruptions=greedy_corruptions(
            lambda s: s.values, lambda s, v: Sequence(s.values[:-1] + (v,))),
    ))

    breakpoints = [[1, 1], [2, rng.randrange(n_growth // 5, n_growth // 2)]]

    def growth_check(view):
        rows = view.table("greedy_growth.csv")
        terms = [r["lambda_n"] for r in rows]
        thresholds = [None] + [O.schedule_threshold(breakpoints, r["n"] - 1) for r in rows[1:]]
        for r, L in zip(rows[1:], thresholds[1:]):
            O.require(r["threshold"] == L, f"greedy.growth: row {r['n']} threshold "
                      f"{r['threshold']} != schedule value {L}")
            O.require(r["cubic_bound"] == (2 * L + 1) * (r["n"] - 1) ** 3 + 1,
                      f"greedy.growth: row {r['n']} cubic bound column is wrong")
        O.check_greedy(terms, thresholds, "greedy.growth")

    def growth_last(view, value):
        def edit(rows):
            rows[-1]["lambda_n"] = value
        return _edit_rows(view, "greedy_growth.csv", edit)

    ops.append(experiment_op(
        "greedy.growth", workdir,
        {"version": 1, "kind": "greedy_growth", "output_dir": "out-greedy.growth",
         "params": {"count": n_growth, "schedule": breakpoints}},
        {"greedy_growth.csv", "greedy_growth_vs_bound.dat"},
        growth_check,
        greedy_corruptions(
            lambda v: [r["lambda_n"] for r in v.table("greedy_growth.csv")], growth_last),
    ))

    # Inputs of the certification and Gram operations, built once per run.
    greedy = sequences.build_greedy(n_greedy)
    schedule = TailSchedule(tuple(map(tuple, breakpoints)))
    scheduled = sequences.build_greedy(n_growth, schedule)
    L_values = (1, 2)

    def bump_constant(rep):
        return dataclasses.replace(rep, constant=rep.constant + 1)

    def zygmund_check(rep):
        O.require(rep.constant == 1, f"zygmund.greedy: collision constant {rep.constant} != 1")
        O.check_collisions(rep, greedy.values, 1, "zygmund.greedy")

    ops.append(Op(
        "zygmund.greedy",
        lambda: sequences.zygmund_constant(greedy, 1),
        zygmund_check,
        corruptions=(("collision constant", bump_constant),),
    ))

    def strong_check(reports):
        O.require(len(reports) == len(L_values), "strong_zygmund: one report per threshold")
        for rep, L in zip(reports, L_values):
            M = max(m for l, m in breakpoints if l <= L)
            O.check_collisions(rep, scheduled.values[M - 1:], L, f"strong_zygmund L={L}")

    ops.append(Op(
        "zygmund.strong_profile",
        lambda: sequences.strong_zygmund_profile(scheduled, schedule, L_values),
        strong_check,
        corruptions=(("collision constant",
                      lambda reps: [bump_constant(reps[0])] + list(reps[1:])),),
    ))

    # Paired powers do collide, so their constants exercise the threshold
    # arithmetic that greedy sequences (constant 1) leave untested.
    K_pairs = rng.randrange(5, 9) if tiny else rng.randrange(12, 21)
    pairs = sequences.build_counterexample(K_pairs)

    def pairs_check(reports):
        for rep, L in zip(reports, (1, 2, 4)):
            O.check_collisions(rep, pairs.values, L, f"zygmund.counterexample L={L}")

    ops.append(Op(
        f"zygmund.counterexample_K{K_pairs}",
        lambda: [sequences.zygmund_constant(pairs, L) for L in (1, 2, 4)],
        pairs_check,
        corruptions=(("collision constant",
                      lambda reps: list(reps[:2]) + [bump_constant(reps[2])]),),
    ))

    prefix = Sequence(greedy.values[:n_gram])
    spans = _torus_intervals(rng, 6)
    inner = ThickSet(spans[:4], (0.0, 1.0))
    outer = ThickSet(spans, (0.0, 1.0))
    other = ThickSet(_torus_intervals(rng, 6), (0.0, 1.0))

    def nested_check(ests):
        for est, E in zip(ests, (inner, outer)):
            O.check_trace_bound(est.lambda_min, est.constant_C, float(E.measure), "nazarov.nested")
        O.check_monotone([e.lambda_min for e in ests], "nazarov.nested")

    def shrink_outer(ests):
        lam = ests[0].lambda_min / 2
        return (ests[0], dataclasses.replace(ests[1], lambda_min=lam, constant_C=1 / lam))

    def swell_inner(ests):
        lam = float(inner.measure) + 0.01
        return (dataclasses.replace(ests[0], lambda_min=lam, constant_C=1 / lam), ests[1])

    ops.append(Op(
        "nazarov.nested",
        lambda: (concentration.nazarov_constant(inner, prefix),
                 concentration.nazarov_constant(outer, prefix)),
        nested_check,
        corruptions=(("decreases", shrink_outer), ("outside [0, density", swell_inner)),
    ))
    ops.append(Op(
        "nazarov.set",
        lambda: concentration.nazarov_constant(other, prefix),
        lambda est: O.check_trace_bound(est.lambda_min, est.constant_C,
                                        float(other.measure), "nazarov.set"),
        corruptions=(("constant_C", lambda est: dataclasses.replace(
            est, constant_C=est.constant_C * 1.5)),),
    ))

    (workdir / "greedy_prefix.txt").write_text(
        "".join(f"{v}\n" for v in greedy.values[:n_sweep]), encoding="utf-8")
    measures = sorted(j / 32 for j in rng.sample(range(4, 32), 3)) + [1.0]
    check, corr = _sweep_checks("nazarov.sweep", "nazarov_sweep.csv", "set_measure", lambda m: m)
    ops.append(experiment_op(
        "nazarov.sweep", workdir,
        {"version": 1, "kind": "nazarov_sweep", "output_dir": "out-nazarov.sweep",
         "sequence": {"file": "greedy_prefix.txt"},
         "set": {"pattern": "prefix", "measures": measures}},
        {"nazarov_sweep.csv", "lambda_min_vs_measure.dat"}, check, corr,
    ))

    torus = ThickSet(((0, 1),), (0, 1))
    Ks = sorted(rng.sample(range(3, 10) if tiny else range(10, K_EXACT_LIMIT), 2 if tiny else 3))
    Ks += sorted(rng.sample(range(K_EXACT_LIMIT, K_EXACT_LIMIT + 8), 1 if tiny else 2))
    for K in Ks:
        ops.append(Op(
            f"nazarov.counterexample_K{K}",
            lambda K=K: concentration.nazarov_constant(torus, sequences.build_counterexample(K)),
            lambda est, K=K: O.check_identity(est.lambda_min, f"counterexample K={K}"),
            corruptions=(("!= 1 on the full set",
                          lambda est: dataclasses.replace(est, lambda_min=0.5)),),
            known_defect=K_DEFECT if K >= K_EXACT_LIMIT else None,
        ))

    N = rng.randrange(20, 31) if tiny else rng.randrange(400, 601)
    T_max = 10.0 ** rng.randrange(3, 5) if tiny else 10.0 ** rng.randrange(8, 11)
    ops.append(experiment_op(
        "carleman_denjoy", workdir,
        {"version": 1, "kind": "carleman_denjoy", "output_dir": "out-carleman_denjoy",
         "params": {"N": N, "T_max": T_max}},
        {"carleman_denjoy.csv", "carleman_proxy.csv", "partial_sums.dat"},
        lambda view: _moments_check(view, N, T_max),
        (("log_M", lambda v: _edit_rows(v, "carleman_denjoy.csv", _nudge(2, "log_M", 1e-3))),
         ("proxy", lambda v: _edit_rows(v, "carleman_proxy.csv", _nudge(0, "proxy_integral", 1e-5)))),
    ))
    return ops


def _nudge(i, key, rel):
    def edit(rows):
        rows[i][key] = rows[i][key] * (1 + rel) + rel
    return edit


def _moments_check(view, N, T_max):
    rows = view.table("carleman_denjoy.csv")
    O.require([r["n"] for r in rows] == list(range(1, N + 1)), "carleman: rows must be n = 1..N")
    prev, total = O.log_moment(0), 0.0
    for r in rows:
        n, lm = r["n"], r["log_M"]
        own = O.log_moment(n)
        O.require(O.close(lm, own, O.REL_TOL, O.REL_TOL),
                  f"carleman: log_M[{n}] = {lm!r} != max of n log xi - log W = {own!r}")
        O.require(r["M"] == math.inf or O.close(r["M"], math.exp(lm), 1e-12),
                  f"carleman: M[{n}] != exp(log_M)")
        mu = math.exp(prev - lm)
        total += mu
        O.require(O.close(r["mu"], mu, O.REL_TOL), f"carleman: mu[{n}] != M[n-1] / M[n]")
        O.require(O.close(r["partial_sum"], total, O.REL_TOL),
                  f"carleman: partial_sum[{n}] != running sum of mu")
        prev = lm
    proxy = view.table("carleman_proxy.csv")
    ends = [r["T"] for r in proxy]
    O.require(ends[-1] == T_max and all(b > a for a, b in zip(ends, ends[1:])),
              "carleman: proxy endpoints must rise to T_max")
    for r in proxy:
        own = O.proxy_integral(r["T"])
        O.require(O.close(r["proxy_integral"], own, O.PROXY_REL_TOL),
                  f"carleman: proxy integral to T = {r['T']} is {r['proxy_integral']!r}, "
                  f"Gauss-Legendre gives {own!r}")


def _split_op(name, workdir, T, samples, gamma, trials, seq, rng) -> Op:
    config = {
        "version": 1, "kind": "theorem_split", "output_dir": f"out-{name}",
        "sequence": seq,
        "grid": {"period": float(T), "samples": samples},
        "set": {"pattern": "comb", "gamma": gamma, "delta": 1.0},
        "ensemble": {"trials": trials, "seed": rng.randrange(2**31)},
        "params": {"L": 1, "schedule": [[1, rng.choice((2, 3))]]},
    }

    def check(view):
        rows = view.table("theorem_split.csv")
        O.require([r["trial"] for r in rows] == list(range(trials)), f"{name}: one row per trial")
        for r in rows:
            h, t = r["ratio_head"], r["ratio_tail"]
            O.require(abs(h * h + t * t - 1.0) <= O.RATIO_TOL,
                      f"{name}: trial {r['trial']} head^2 + tail^2 = {h * h + t * t!r} != 1")
            O.require(-O.RATIO_TOL <= r["ratio"] <= 1 + O.RATIO_TOL,
                      f"{name}: trial {r['trial']} ratio {r['ratio']!r} outside [0, 1]")
            if gamma == 1.0:
                O.require(abs(r["ratio"] - 1.0) <= O.RATIO_TOL,
                          f"{name}: trial {r['trial']} ratio {r['ratio']!r} != 1 on the full set")

    def scaled(key, factor):
        def edit(rows):
            rows[0][key] *= factor
        return lambda v: _edit_rows(v, "theorem_split.csv", edit)

    corr = (("head^2 + tail^2", scaled("ratio_head", 1.001)),)
    corr += (("!= 1 on the full set", scaled("ratio", 0.999)),) if gamma == 1.0 else (
        ("outside [0, 1]", scaled("ratio", 1e3)),)
    return experiment_op(name, workdir, config, {"theorem_split.csv", "ratio_per_trial.dat"},
                         check, corr)


def _lemma_op(name, workdir, T, samples, trials, seq, rng) -> Op:
    L = rng.choice((8, 16))
    c2s = sorted(rng.sample([0.25, 0.5, 1.0, 2.0, 4.0], 3))
    config = {
        "version": 1, "kind": "lemma_margins", "output_dir": f"out-{name}",
        "sequence": seq,
        "grid": {"period": float(T), "samples": samples},
        "set": {"pattern": "comb", "gamma": rng.randrange(4, 13) / 16, "delta": 1.0},
        "ensemble": {"trials": trials, "seed": rng.randrange(2**31)},
        "params": {"L": L, "c2_candidates": c2s},
    }

    def check(view):
        rows = view.table("lemma_margins.csv")
        O.require(len(rows) == trials, f"{name}: one row per trial")
        for r in rows:
            lhs, dens, sob = r["lhs"], r["term_density"], r["term_sobolev"]
            O.require(lhs >= 0 and 0 < dens <= sob, f"{name}: trial {r['trial']} terms out of order")
            for c2 in c2s:
                want = (lhs + c2 * sob / L**0.5) / dens
                O.require(O.close(r[f"margin_c2_{c2}"], want, O.REL_TOL),
                          f"{name}: trial {r['trial']} margin at c2 = {c2} != (lhs + c2 sob / sqrt L) / density")
        summary = view.table("lemma_margin_summary.csv")
        for s in summary:
            least = min(r[f"margin_c2_{s['c2']}"] for r in rows)
            O.require(s["min_margin"] == least, f"{name}: summary min margin at c2 = {s['c2']} is wrong")

    def bent(view):
        def edit(rows):
            rows[0][f"margin_c2_{c2s[0]}"] *= 1.001
        return _edit_rows(view, "lemma_margins.csv", edit)

    return experiment_op(
        name, workdir, config,
        {"lemma_margins.csv", "lemma_margin_summary.csv", "min_margin_vs_c2.dat"},
        check, (("margin", bent),),
    )


def split_ensemble(rng, workdir: Path, tiny: bool = False) -> list[Op]:
    """Head/tail split and local-lemma ensembles on large sampling grids."""
    big, small, trials = (2048, 1024, 3) if tiny else (32768, 16384, 60)
    start, ratio = rng.choice((2, 3, 4)), rng.choice((3, 4))
    seq4 = {"builder": "geometric", "start": start, "ratio": ratio, "count": 3 if tiny else 4}
    seq3 = {"builder": "geometric", "start": start, "ratio": ratio, "count": 3}
    gamma = rng.randrange(4, 13) / 16
    return [
        _split_op("split.big", workdir, 8, big, gamma, trials, seq4, rng),
        _split_op("split.full", workdir, 8, big, 1.0, max(2, trials // 6), seq4, rng),
        _split_op("split.small", workdir, 4 if tiny else 16, small, gamma, trials, seq3, rng),
        _lemma_op("lemma.small", workdir, 4 if tiny else 16, small, trials, seq3, rng),
        _lemma_op("lemma.big", workdir, 8 if tiny else 16, big, max(2, trials // 2), seq3, rng),
    ]


WORKLOADS = {
    "thick_ls": thick_ls,
    "lacunary_torus": lacunary_torus,
    "split_ensemble": split_ensemble,
}
