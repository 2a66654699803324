"""Command-line front end.

Subcommands are thin wrappers over the library: they parse arguments, call
one operation, and print a JSON record (or write a file).  Exit codes:
0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import concentration, sequences, sets, synthesis, uniqueness
from .errors import ConfigError, NumericalError
from .experiments import (
    SCHEDULE,
    SEED,
    ExperimentConfig,
    build_sequence,
    comb_on_grid,
    csv_text,
    field_violations,
    lemma_trials,
    moment_rows,
    run,
    schedule_from,
    split_trials,
    trial_blocks,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _print(obj) -> None:
    print(json.dumps(obj, indent=2, default=str))


def _parse_schedule(text):
    """Breakpoints L:M,L:M,... checked by the config schema's schedule entry."""
    if text is None:
        return None
    value = [
        [int(x) if x.isdecimal() else x for x in pair.split(":")]
        for pair in text.split(",") if pair
    ]
    if field_violations(value, SCHEDULE):
        raise ConfigError([f"--schedule must have the form L:M,L:M,... with integers "
                           f"L, M >= 1, got {text!r}"])
    return value


def _pair(text, flag, form="a,b"):
    """Two comma-separated numbers; a ConfigError naming the flag otherwise."""
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError([f"{flag} must have the form {form}, got {text!r}"]) from None
    return lo, hi


def _seed(args) -> int:
    """The --seed value, checked by the schema entry of an ensemble seed."""
    if field_violations(args.seed, SEED):
        raise ConfigError([f"--seed must be an integer in [0, 2**64), got {args.seed}"])
    return args.seed


def _sequence_from_args(args) -> sequences.Sequence:
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            return sequences.Sequence.from_text(fh.read())
    spec = {"builder": args.builder}
    if args.builder == "geometric":
        spec.update(start=args.start, ratio=args.ratio, count=args.count)
    elif args.builder == "arithmetic":
        spec.update(start=args.start, step=args.step, count=args.count)
    elif args.builder == "greedy":
        spec.update(count=args.count)
        if args.schedule:
            spec["schedule"] = _parse_schedule(args.schedule)
    else:
        spec.update(K=args.K)
    return build_sequence(spec)


def _add_sequence_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="sequence file, one value per line")
    p.add_argument(
        "--builder",
        choices=["geometric", "arithmetic", "greedy", "counterexample"],
        default="geometric",
    )
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--ratio", type=int, default=2)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--schedule", help="breakpoints L:M,L:M,... (greedy builder)")


def _set_from_args(args, grid=None) -> sets.ThickSet:
    """The set the flags describe: on --window, or for a command with a grid
    on the grid window [0, T] as in the runner, where a comb is built by
    comb_on_grid, which refuses a comb finer than the grid.  A --set-file
    keeps its own window."""
    if getattr(args, "set_file", None):
        with open(args.set_file, "r", encoding="utf-8") as fh:
            return sets.ThickSet.from_dict(json.load(fh))
    window = _pair(args.window, "--window") if grid is None else (0.0, grid.period)
    if args.pattern == "comb":
        if grid is not None:
            return comb_on_grid(args.gamma, args.delta, grid)
        return sets.periodic_comb(args.gamma, args.delta, window)
    if args.pattern == "full":
        return sets.ThickSet((window,), window)
    pieces = tuple(
        _pair(piece, "--intervals", "a,b;c,d;...") for piece in args.intervals.split(";")
    )
    return sets.ThickSet(pieces, window, args.periodic)


def _add_set_source(p: argparse.ArgumentParser, default_window=None) -> None:
    """The set flags; --window only for a command without a grid."""
    p.add_argument("--set-file", help="thick set as a JSON record")
    p.add_argument(
        "--pattern", choices=["comb", "full", "intervals"], default="comb"
    )
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=1.0)
    if default_window is not None:
        p.add_argument("--window", default=default_window)
    p.add_argument("--intervals", default="", help="a,b;c,d;... interval list")
    p.add_argument("--periodic", action="store_true")


def _cmd_seq_build(args) -> int:
    seq = _sequence_from_args(args)
    text = seq.to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_seq_check(args) -> int:
    seq = _sequence_from_args(args)
    if args.kind == "hadamard":
        report = sequences.check_hadamard(seq, args.q)
        _print(report.to_dict())
    elif args.kind == "zygmund":
        report = sequences.zygmund_constant(seq, args.L)
        _print(report.to_dict())
    else:
        schedule = schedule_from(_parse_schedule(args.schedule))
        L_values = [int(x) for x in args.L_values.split(",")]
        reports = sequences.strong_zygmund_profile(seq, schedule, L_values)
        _print([r.to_dict() for r in reports])
    return EXIT_OK


def _cmd_set_gamma(args) -> int:
    E = _set_from_args(args)
    delta = args.delta
    out = {
        "delta": delta,
        "gamma": float(sets.thickness(E, delta)),
        "set_measure": float(E.measure),
    }
    # Density at the doubled window length, reported (not asserted) since
    # thickness is not monotone in the window length.
    try:
        out["gamma_2delta"] = float(sets.thickness(E, 2 * delta))
    except ValueError:
        out["gamma_2delta"] = None
    _print(out)
    return EXIT_OK


def _cmd_set_partition(args) -> int:
    E = _set_from_args(args)
    report = sets.partition_good_bad(E, args.delta, args.L, args.gamma)
    _print(report.to_dict())
    return EXIT_OK


def _cmd_synth_check(args) -> int:
    seq = _sequence_from_args(args)
    grid = synthesis.Grid(args.period, args.samples)
    (blocks,) = trial_blocks(seq, grid, _seed(args), 1)
    f = synthesis.synthesize(blocks, seq, grid)
    support = synthesis.spectral_support(f, args.tol)
    active = {round(s * grid.period) for s in support}
    inside = active <= set(grid.band_bins(f.declared_support).tolist())
    plancherel = abs(
        f.norm_sq - grid.period * float(np.sum(np.abs(f.spectrum()) ** 2))
    )
    _print(
        {
            "leakage": f.leakage(),
            "support_within_declared": inside,
            "active_bins": len(support),
            "plancherel_residual": plancherel,
        }
    )
    return EXIT_OK


def _cmd_conc_gram(args) -> int:
    seq = _sequence_from_args(args)
    E = _set_from_args(args)
    form = concentration.gram_matrix(E, seq)
    if args.output:
        form.to_text(args.output)
    _print(
        {
            "dimension": form.dimension,
            "hermitian": True,
            "set_measure": float(E.measure),
            "written_to": args.output,
        }
    )
    return EXIT_OK


def _cmd_conc_nazarov(args) -> int:
    seq = _sequence_from_args(args)
    E = _set_from_args(args)
    _print(concentration.nazarov_constant(E, seq).to_dict())
    return EXIT_OK


def _cmd_conc_ls(args) -> int:
    grid = synthesis.Grid(args.period, args.samples)
    E = _set_from_args(args, grid)
    if args.freq_sequence:
        with open(args.freq_sequence, "r", encoding="utf-8") as fh:
            seq = sequences.Sequence.from_text(fh.read())
        profile = synthesis.SpectralProfile(seq)
    else:
        profile = _pair(args.band, "--band")
    _print(concentration.ls_constant(E, profile, grid).to_dict())
    return EXIT_OK


def _cmd_conc_lemma(args) -> int:
    seq = _sequence_from_args(args)
    grid = synthesis.Grid(args.period, args.samples)
    E = _set_from_args(args, grid)
    (rec,) = lemma_trials(seq, E, grid, args.L, _seed(args), 1)
    _print(rec.to_dict())
    return EXIT_OK


def _cmd_conc_theorem(args) -> int:
    seq = _sequence_from_args(args)
    grid = synthesis.Grid(args.period, args.samples)
    E = _set_from_args(args, grid)
    schedule = schedule_from(_parse_schedule(args.schedule))
    (rec,) = split_trials(seq, E, grid, args.L, schedule, _seed(args), 1)
    _print(rec.to_dict())
    return EXIT_OK


def _cmd_uniq_condition(args) -> int:
    seq = _sequence_from_args(args)
    _print(uniqueness.separation_condition(seq, args.N or len(seq)).to_dict())
    return EXIT_OK


def _cmd_uniq_omega(args) -> int:
    seq = _sequence_from_args(args)
    phi = uniqueness.smoothstep_bump()
    _print(uniqueness.omega_diagnostics(seq, phi, args.T).to_dict())
    return EXIT_OK


def _cmd_uniq_cd(args) -> int:
    report = uniqueness.carleman_denjoy_partial(args.N, args.T_max)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text(moment_rows(report)))
    _print(report.to_dict())
    return EXIT_OK


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    manifest = run(config, args.base_dir)
    _print(manifest.to_dict())
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacspec",
        description="Concentration constants, thick sets, and lacunary spectra.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    seq = top.add_parser("seq", help="sequence construction and certification")
    seq_sub = seq.add_subparsers(dest="command", required=True)
    p = seq_sub.add_parser("build")
    _add_sequence_source(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_seq_build)
    p = seq_sub.add_parser("check")
    _add_sequence_source(p)
    p.add_argument("--kind", choices=["hadamard", "zygmund", "strong"], required=True)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--L-values", default="1,2,4", dest="L_values")
    p.set_defaults(func=_cmd_seq_check)

    st = top.add_parser("set", help="thick sets: density and partition")
    st_sub = st.add_subparsers(dest="command", required=True)
    p = st_sub.add_parser("gamma")
    _add_set_source(p, "0,1")
    p.set_defaults(func=_cmd_set_gamma)
    p = st_sub.add_parser("partition")
    _add_set_source(p, "0,4")
    p.add_argument("--L", type=int, default=4)
    p.set_defaults(func=_cmd_set_partition)

    sy = top.add_parser("synth", help="band function synthesis checks")
    sy_sub = sy.add_subparsers(dest="command", required=True)
    p = sy_sub.add_parser("check")
    _add_sequence_source(p)
    p.add_argument("--period", type=float, default=16.0)
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_synth_check)

    co = top.add_parser("conc", help="concentration operators and constants")
    co_sub = co.add_subparsers(dest="command", required=True)
    p = co_sub.add_parser("gram")
    _add_sequence_source(p)
    _add_set_source(p, "0,1")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_conc_gram)
    p = co_sub.add_parser("nazarov")
    _add_sequence_source(p)
    _add_set_source(p, "0,1")
    p.set_defaults(func=_cmd_conc_nazarov)
    p = co_sub.add_parser("ls")
    _add_set_source(p)
    p.add_argument("--period", type=float, default=8.0)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--band", default="0,1")
    p.add_argument("--freq-sequence", help="profile anchor sequence file")
    p.set_defaults(func=_cmd_conc_ls)
    p = co_sub.add_parser("lemma")
    _add_sequence_source(p)
    _add_set_source(p)
    p.add_argument("--period", type=float, default=16.0)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--L", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_conc_lemma)
    p = co_sub.add_parser("theorem")
    _add_sequence_source(p)
    _add_set_source(p)
    p.add_argument("--period", type=float, default=8.0)
    p.add_argument("--samples", type=int, default=8192)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_conc_theorem)

    un = top.add_parser("uniq", help="uniqueness-side diagnostics")
    un_sub = un.add_subparsers(dest="command", required=True)
    p = un_sub.add_parser("condition")
    _add_sequence_source(p)
    p.add_argument("--N", type=int, default=0, help="prefix length (0 = all)")
    p.set_defaults(func=_cmd_uniq_condition)
    p = un_sub.add_parser("omega")
    _add_sequence_source(p)
    p.add_argument("--T", type=float, default=1e6)
    p.set_defaults(func=_cmd_uniq_omega)
    p = un_sub.add_parser("cd")
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--T-max", type=float, default=1e4, dest="T_max")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_uniq_cd)

    rn = top.add_parser("run", help="run a config-driven experiment")
    rn.add_argument("config")
    rn.add_argument("--base-dir", default=".")
    rn.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
