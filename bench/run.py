"""lacspec benchmark: seeded paper pipelines, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload thick_ls --seed 1 --seconds 26 --trace 0

Workloads are ``thick_ls``, ``lacunary_torus`` and ``split_ensemble`` (see
workloads.py for what each runs and why).  The benchmark imports lacspec
from ``src/`` of the checkout it sits in and exits with code 2, printing no
result, when that is missing.

It first times set-up in fresh interpreters (bench/probe.py), then builds
the workload's inputs from the seed and repeats passes over its operations
for ``--seconds`` seconds (at least three passes).  Only the lacspec calls
are timed; every result is then checked by its oracle.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: setup_s (median over fresh interpreters), wall_ref_s
  (pass time scaled to the reference machine speed, see calibration_kernel
  and reference_wall_s), peak_rss_mb (this process) and certified_share
  (operations that passed their oracle over operations attempted,
  1 - fail_share).  The summary line before it also prints the unscaled
  wall_s and fail_share.
* ``--trace 1``: the per-layer metrics of tracing.py, from traced passes
  alternating with untraced ones.

``failed`` counts operations that raised or failed their oracle.
``correct`` is false when any failure is not a documented known defect of
lacspec; known defects still count in ``failed``.  Details of every run
(environment, pass times, failures, spans) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
MIN_PASSES = 3
# Time of one calibration kernel at the reference machine speed (a shared
# 2-vCPU x86-64 virtual machine, Python 3.11, numpy 2.4).
REFERENCE_CALIBRATION_S = 0.050
# An operation that took t seconds in the previous pass is preceded by
# min(CALIBRATION_MAX, 1 + t // CALIBRATION_PER_S) kernels; the median counts.
CALIBRATION_PER_S = 0.4
CALIBRATION_MAX = 3
PROBE_TIMEOUT_S = 60
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB", "certified_share": "share"}

# One process on at most two cores: cap OpenBLAS before numpy is imported,
# here and in the probes, which inherit the environment.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_lacspec():
    if not (SRC / "lacspec" / "__init__.py").is_file():
        fail(f"no lacspec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lacspec

    if SRC.resolve() not in Path(lacspec.__file__).resolve().parents:
        fail(f"lacspec was imported from {lacspec.__file__}, not from {SRC}")
    return lacspec


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of the outermost scipy modules, from the
    ``-X importtime`` report (children are listed before their parent)."""
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative_us, name = line.split("|")
        depth = len(name) - len(name.lstrip(" "))
        rows.append((depth, name.strip(), int(cumulative_us)))
    total, stack = 0, []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total += cumulative
        stack.append((depth, name))
    return total / 1e6


def probe_setup(count: int, importtime: bool) -> list[dict]:
    """Set-up timings from ``count`` fresh interpreters, one after another."""
    cmd = [sys.executable, "-I"] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "probe.py"), str(SRC)]
    results = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if importtime:
            result["scipy_import_s"] = scipy_import_s(proc.stderr)
        results.append(result)
    return results


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": None,
        "openblas": None,
    }
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    env["blas_threads"] = threads()
                    env["openblas"] = config().decode()
                    return env
    return env


def warm_up(lacspec) -> None:
    """First eigensolve and FFT in this process, so passes time steady state
    (their one-off cost is setup_s)."""
    import numpy as np

    eye = lacspec.HermitianForm(256, np.eye(256, dtype=complex), {"kind": "warm-up"})
    lacspec.hermitian_eigensystem(eye)
    lacspec.BandFunction.from_spectrum(lacspec.Grid(1.0, 4096), np.ones(4096, dtype=complex))


def calibration_kernel() -> float:
    """Time of a fixed mix of interpreter, numpy and FFT work that lacspec
    does not touch.

    The host's speed changes by up to a factor of two, within seconds and
    between runs, and every call slows with it.  Timed just before each
    operation, this kernel measures the speed the operation ran at, so its
    time can be scaled to the reference speed (see reference_wall_s).
    """
    import numpy as np

    t0 = time.perf_counter()
    seen, x = set(), 1
    for i in range(80_000):  # integer and set work, as in the greedy search
        x = (x * 48271 + i) % 2_147_483_647
        seen.add(x >> 7)
    t = np.linspace(0.0, 1.0, 16_384)
    acc = 0j
    for k in range(24):  # complex exponentials and sums, as in Gram assembly
        acc += np.exp(2j * np.pi * (k + 0.5) * t).sum()
    np.fft.ifft(np.fft.fft(np.exp(1j * t * len(seen))))  # as in synthesis
    return time.perf_counter() - t0


def run_pass(ops, previous=None) -> dict:
    """Time every operation, each after calibration kernels (more of them
    before operations that were long in the ``previous`` pass), then check
    every result.  ``wall_s`` is the sum of the operations' times."""
    results, times, calibration = [], [], []
    for op in ops:
        last = previous["op_s"][op.name] if previous else 0.0
        reps = min(CALIBRATION_MAX, 1 + int(last // CALIBRATION_PER_S))
        calibration.append(statistics.median(calibration_kernel() for _ in range(reps)))
        t0 = time.perf_counter()
        try:
            results.append((op.call(), None))
        except Exception:  # an operation that raises is a failed operation
            results.append((None, traceback.format_exc(limit=4)))
        times.append(time.perf_counter() - t0)
    failures = {}
    for op, (raw, error) in zip(ops, results):
        if error is None:
            try:
                op.check(op.view(raw))
            except Exception as exc:  # OracleError, or a result the oracle cannot read
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures[op.name] = error
    return {"wall_s": sum(times), "op_s": dict(zip((op.name for op in ops), times)),
            "calibration_s": calibration, "failures": failures}


def reference_wall_s(passes) -> float:
    """Pass time at the reference machine speed: for each operation, the
    median over passes of its time over the calibration time before it,
    summed, times REFERENCE_CALIBRATION_S."""
    ratios = [[t / c for t, c in zip(p["op_s"].values(), p["calibration_s"])] for p in passes]
    return REFERENCE_CALIBRATION_S * sum(statistics.median(col) for col in zip(*ratios))


def run_passes(ops, seconds: float, recorder=None) -> list[dict]:
    """Passes until ``seconds`` have gone, at least MIN_PASSES of each kind.

    With a recorder, untraced and traced passes alternate, so that drift in
    machine speed affects both alike; counts are taken on the first traced
    pass only.
    """
    passes = []
    kinds = 2 if recorder is not None else 1
    deadline = time.perf_counter() + seconds
    while len(passes) < kinds * MIN_PASSES or time.perf_counter() < deadline:
        traced = kinds == 2 and len(passes) % 2 == 1
        previous = passes[-1] if passes else None
        if traced:
            recorder.begin_pass(counting=len(passes) == 1)
            with recorder:
                record = run_pass(ops, previous)
        else:
            record = run_pass(ops, previous)
        record["traced"] = traced
        passes.append(record)
    return passes


def main(argv=None) -> int:
    lacspec = import_lacspec()
    import tracing
    import workloads as W

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probes = probe_setup(3 if args.trace else SETUP_PROBES, importtime=bool(args.trace))
    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = W.WORKLOADS[args.workload](random.Random(args.seed), workdir)
        warm_up(lacspec)
        recorder = tracing.Recorder() if args.trace else None
        passes = run_passes(ops, args.seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_name = {op.name: op for op in ops}
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    unexplained = {n for p in passes for n in p["failures"] if not by_name[n].known_defect}
    median = statistics.median
    wall_s = median(p["wall_s"] for p in passes)
    calibration_s = median(c for p in passes for c in p["calibration_s"])
    if args.trace:
        overhead = (median(p["wall_s"] for p in passes if p["traced"])
                    / median(p["wall_s"] for p in passes if not p["traced"]) - 1)
        init = {
            "init.import_s": median(p["import_s"] for p in probes),
            "init.scipy_import_s": median(p["scipy_import_s"] for p in probes),
            "init.first_eigh_s": median(p["first_eigh_s"] for p in probes),
        }
        metrics = recorder.layer_metrics(init, overhead)
    else:
        values = {
            "setup_s": median(p["setup_s"] for p in probes),
            "wall_ref_s": reference_wall_s(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "certified_share": 1 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "probes": probes, "passes": passes,
        "known_defects": {op.name: op.known_defect for op in ops if op.known_defect},
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = recorder.spans()
        record["pass_starts"] = recorder.pass_starts
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")

    for name in sorted({n for p in passes for n in p["failures"]}):
        note = by_name[name].known_defect or "not a known defect"
        first = next(p["failures"][name] for p in passes if name in p["failures"])
        print(f"bench: {name} failed ({note}): {first.strip().splitlines()[-1]}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    summary = " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items())
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes x {len(ops)} operations; "
          f"fail_share={failed / attempted:.4f}; wall_s={wall_s:.6g} "
          f"calibration_s={calibration_s:.6g}; {summary}")
    print(json.dumps({"correct": not unexplained, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
