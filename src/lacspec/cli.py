"""Command-line front end.

Subcommands are thin wrappers over the library: they parse arguments, call
one operation, and print a JSON record (or write a file).  Exit codes:
0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import concentration, sequences, sets, synthesis, uniqueness
from .errors import ConfigError, LimitError, NumericalError
from .experiments import (
    SCHEDULE,
    SEED,
    SET_RECORD,
    ExperimentConfig,
    _profile_of,
    build_sequence,
    comb_on_grid,
    csv_text,
    field_violations,
    geometric_log2,
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
MAX_LITERAL_DIGITS = 1000  # digits plus decimal exponent of an exact flag value


def _print(obj) -> None:
    print(json.dumps(obj, indent=2, default=str))


def _integer(text):
    return int(text) if text.isdecimal() else text


def _parse_schedule(text):
    """Breakpoints L:M,L:M,... checked by the config schema's schedule entry."""
    if text is None:
        return None
    value = [[_integer(x) for x in pair.split(":")] for pair in text.split(",") if pair]
    if field_violations(value, SCHEDULE):
        raise ConfigError([f"--schedule must have the form L:M,L:M,... with integers "
                           f"L, M >= 1, got {text!r}"])
    return value


def _parse_L_values(text):
    """Window lengths L,L,... checked as a list of positive integers."""
    value = [_integer(x) for x in text.split(",")]
    if field_violations(value, (True, [int], "[1, inf)")):
        raise ConfigError([f"--L-values must have the form L,L,... with integers "
                           f"L >= 1, got {text!r}"])
    return value


class _Decimal(Fraction):
    """The exact value of a finite decimal literal, shown as it was written.

    All else makes plain Fractions: arithmetic, comparison with a float
    (``from_float``), copying and pickling."""

    def __new__(cls, text, *denominator):
        if denominator:  # Fraction's own cls(numerator, denominator)
            return Fraction(text, *denominator)
        d = decimal.Decimal(text)
        _, digits, exponent = d.as_tuple()
        if len(digits) + abs(exponent) > MAX_LITERAL_DIGITS:
            raise argparse.ArgumentTypeError(
                f"{text.strip()!r} needs integers of more than {MAX_LITERAL_DIGITS} digits "
                f"to be held exactly")
        self = super().__new__(cls, d)
        self._text = text.strip()
        return self

    def __repr__(self):
        return self._text

    __str__ = __repr__


def _exact(text: str):
    """A finite decimal literal as the exact Fraction it denotes (the float
    0.1 is not 1/10); nan and inf as floats, for the library to refuse."""
    try:
        x = float(text)
        return _Decimal(text) if math.isfinite(x) else x
    except (ValueError, decimal.InvalidOperation):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def _pair(text, flag, form="a,b", number=float):
    """Two comma-separated numbers; a ConfigError naming the flag otherwise."""
    try:
        lo, hi = (number(x) for x in text.split(","))
    except ValueError:
        raise ConfigError([f"{flag} must have the form {form}, got {text!r}"]) from None
    except argparse.ArgumentTypeError as exc:
        raise ConfigError([f"{flag}: {exc}"]) from None
    if not all(isinstance(x, Fraction) for x in (lo, hi)):  # nan or inf: the library refuses
        lo, hi = float(lo), float(hi)
    return lo, hi


def _grid(args) -> synthesis.Grid:
    """The grid of --period and --samples, or a ValueError naming both."""
    try:
        return synthesis.Grid(args.period, args.samples)
    except ValueError as exc:
        raise ValueError(f"{exc} (--period {args.period}, --samples {args.samples})") from None


@contextlib.contextmanager
def _file_of(flag: str, path):
    """A file the flag names that cannot be read, parsed or written is a
    ConfigError naming the flag and the path."""
    try:
        yield
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError([f"{flag} {path}: {exc}"]) from None


def _read(flag: str, path, parse):
    """``parse`` of the text of the file a flag names (see ``_file_of``)."""
    with _file_of(flag, path), open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _write(flag: str, path, text: str) -> None:
    """Write text to the file a flag names (see ``_file_of``)."""
    with _file_of(flag, path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _refuse_terms(args, what: str):
    """Refuse a sequence with terms above ``what``, the limit of the
    command, naming the flag the sequence came from."""
    flag = "--input" if args.input else "--K" if args.builder == "counterexample" else "--count"
    raise ConfigError([f"{flag} {getattr(args, flag[2:])} gives terms above {what}"])


def _seed(args) -> int:
    """The --seed value, checked by the schema entry of an ensemble seed."""
    if field_violations(args.seed, SEED):
        raise ConfigError([f"--seed must be an integer in [0, 2**64), got {args.seed}"])
    return args.seed


def _sequence_from_args(args, bound=math.inf, what: str = "") -> sequences.Sequence:
    """The sequence of the source flags, refused when a term has magnitude
    above ``bound``, the limit ``what`` of the command.  A geometric
    sequence whose largest term is clearly above it is refused before any
    term is built; the builders' own limits name the flag too."""
    if getattr(args, "input", None):
        seq = _read("--input", args.input, sequences.Sequence.from_text)
    else:
        spec = {"builder": args.builder}
        if args.builder == "geometric":
            spec.update(start=args.start, ratio=args.ratio, count=args.count)
            # one bit of slack: the exact check below decides near the bound
            if geometric_log2(spec) > math.log2(bound) + 1:
                _refuse_terms(args, what)
        elif args.builder == "arithmetic":
            spec.update(start=args.start, step=args.step, count=args.count)
        elif args.builder == "greedy":
            spec.update(count=args.count)
            if args.schedule:
                spec["schedule"] = _parse_schedule(args.schedule)
        else:
            spec.update(K=args.K)
        try:
            seq = build_sequence(spec)
        except LimitError as exc:
            raise ConfigError([f"--{exc.key} {exc.detail}"]) from None
    if any(abs(v) > bound for v in seq.values):
        _refuse_terms(args, what)
    return seq


def _float_sequence(args) -> sequences.Sequence:
    """The sequence of a command that computes with its terms as floats."""
    return _sequence_from_args(
        args, sys.float_info.max, f"the largest float {sys.float_info.max!r}")


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
    record, checked by the schema's SET_RECORD, keeps its own window."""
    if getattr(args, "set_file", None):
        record = _read("--set-file", args.set_file, json.loads)
        errors = field_violations(record, SET_RECORD, f"--set-file {args.set_file}")
        if errors:
            raise ConfigError(errors)
        return sets.ThickSet.from_dict(record)
    number = _exact if grid is None else float  # without a grid sets are exact
    window = _pair(args.window, "--window", number=number) if grid is None else (0.0, grid.period)
    if args.pattern == "comb":
        if grid is not None:
            return comb_on_grid(args.gamma, args.delta, grid)
        return sets.periodic_comb(args.gamma, args.delta, window)
    if args.pattern == "full":
        return sets.ThickSet((window,), window)
    pieces = tuple(
        _pair(piece, "--intervals", "a,b;c,d;...", number)
        for piece in args.intervals.split(";")
    )
    return sets.ThickSet(pieces, window, args.periodic)


def _add_set_source(p: argparse.ArgumentParser, default_window=None) -> None:
    """The set flags; --window only for a command without a grid, where
    --gamma and --delta are exact, as the window and the intervals are."""
    number = float if default_window is None else _exact
    p.add_argument("--set-file", help="thick set as a JSON record")
    p.add_argument(
        "--pattern", choices=["comb", "full", "intervals"], default="comb"
    )
    p.add_argument("--gamma", type=number, default="0.5")
    p.add_argument("--delta", type=number, default="1.0")
    if default_window is not None:
        p.add_argument("--window", default=default_window)
    p.add_argument("--intervals", default="", help="a,b;c,d;... interval list")
    p.add_argument("--periodic", action="store_true")


def _cmd_seq_build(args) -> int:
    limit = sys.get_int_max_str_digits()
    seq = _sequence_from_args(
        args, 10**limit - 1 if limit else math.inf,
        f"{limit} decimal digits, the most an integer may have to be written as text")
    text = seq.to_text()
    if args.output:
        _write("--output", args.output, text)
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
        L_values = _parse_L_values(args.L_values)
        reports = sequences.strong_zygmund_profile(seq, schedule, L_values)
        _print([r.to_dict() for r in reports])
    return EXIT_OK


def _cmd_set_gamma(args) -> int:
    E = _set_from_args(args)
    delta = args.delta
    out = {
        "delta": float(delta),
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
    grid = _grid(args)
    (blocks,) = trial_blocks(seq, grid, _seed(args), 1)
    f = synthesis.synthesize(blocks, seq, grid)
    try:
        support = synthesis.spectral_support(f, args.tol)
    except ValueError:  # the one refusal of spectral_support
        raise ConfigError([f"--tol {args.tol} is outside [0, 1)"]) from None
    active = {round(s * grid.period) for s in support}
    inside = active <= set(grid.band_bins(f.declared_support).tolist())
    plancherel = abs(f.norm_sq - grid.period * float(np.sum(np.abs(f.coeffs) ** 2)))
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
    seq = _float_sequence(args)
    E = _set_from_args(args)
    form = concentration.gram_matrix(E, seq)
    if args.output:
        with _file_of("--output", args.output):
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
    seq = _float_sequence(args)
    E = _set_from_args(args)
    _print(concentration.nazarov_constant(E, seq).to_dict())
    return EXIT_OK


def _cmd_conc_ls(args) -> int:
    grid = _grid(args)
    E = _set_from_args(args, grid)
    if args.freq_sequence:
        profile = _profile_of(_read("--freq-sequence", args.freq_sequence,
                                    sequences.Sequence.from_text))
    else:
        profile = _pair(args.band, "--band")
    _print(concentration.ls_constant(E, profile, grid).to_dict())
    return EXIT_OK


def _cmd_conc_lemma(args) -> int:
    seq = _sequence_from_args(args)
    grid = _grid(args)
    E = _set_from_args(args, grid)
    (rec,) = lemma_trials(seq, E, grid, args.L, _seed(args), 1)
    _print(rec.to_dict())
    return EXIT_OK


def _cmd_conc_theorem(args) -> int:
    seq = _sequence_from_args(args)
    grid = _grid(args)
    E = _set_from_args(args, grid)
    schedule = schedule_from(_parse_schedule(args.schedule))
    (rec,) = split_trials(seq, E, grid, args.L, schedule, _seed(args), 1)
    _print(rec.to_dict())
    return EXIT_OK


def _cmd_uniq_condition(args) -> int:
    seq = _float_sequence(args)
    _print(uniqueness.separation_condition(seq, args.N or len(seq)).to_dict())
    return EXIT_OK


def _cmd_uniq_omega(args) -> int:
    seq = _float_sequence(args)
    phi = uniqueness.smoothstep_bump()
    _print(uniqueness.omega_diagnostics(seq, phi, args.T).to_dict())
    return EXIT_OK


def _cmd_uniq_cd(args) -> int:
    report = uniqueness.carleman_denjoy_partial(args.N, args.T_max)
    if args.output:
        _write("--output", args.output, csv_text(moment_rows(report)))
    _print(report.to_dict())
    return EXIT_OK


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_dict(_read("config", args.config, json.loads))
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
    # by default a sequence whose unit bands the grid resolves and keeps apart
    p.set_defaults(func=_cmd_synth_check, start=4, ratio=4, count=2)

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
    p.set_defaults(func=_cmd_conc_lemma, start=4, ratio=4, count=3)
    p = co_sub.add_parser("theorem")
    _add_sequence_source(p)
    _add_set_source(p)
    p.add_argument("--period", type=float, default=8.0)
    p.add_argument("--samples", type=int, default=8192)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_conc_theorem, start=4, ratio=4, count=4)

    un = top.add_parser("uniq", help="uniqueness-side diagnostics")
    un_sub = un.add_subparsers(dest="command", required=True)
    p = un_sub.add_parser("condition")
    _add_sequence_source(p)
    p.add_argument("--N", type=int, default=0, help="prefix length (0 = all)")
    p.set_defaults(func=_cmd_uniq_condition, start=4, ratio=4)
    p = un_sub.add_parser("omega")
    _add_sequence_source(p)
    p.add_argument("--T", type=float, default=1e6)
    p.set_defaults(func=_cmd_uniq_omega, start=4, ratio=4)
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
