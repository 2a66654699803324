"""Self-test of the benchmark.

Run from the repository root:

    python3 bench/selftest.py

Checks that tiny sizes of every workload pass every oracle (and that the
known-defect operations fail theirs), that every oracle rejects each
deliberately corrupted result with the message of the property it guards,
that the same seed gives the same inputs, that the traced run restores the
library and reports every per-layer metric, and that BENCHMARK.json names
the metrics the benchmark prints.  Exits with code 1 on the first failure.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run

run.import_lacspec()

import oracles as O  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SEEDS = (1, 2)


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def rejects(check, view, keyword: str) -> bool:
    try:
        check(view)
    except O.OracleError as exc:
        return keyword in str(exc)
    return False


def check_oracles(name: str, seed: int, workdir) -> int:
    """Every operation's result passes its oracle (known defects fail it),
    and every corruption is rejected; returns the corruptions tried."""
    tried = 0
    for op in W.WORKLOADS[name](random.Random(seed), workdir, tiny=True):
        view = op.view(op.call())
        if op.known_defect:
            expect(rejects(op.check, view, ""), f"{op.name}: known defect no longer fails")
        else:
            op.check(view)
        for keyword, corrupt in op.corruptions:
            expect(rejects(op.check, corrupt(view), keyword),
                   f"{op.name}: corruption '{keyword}' not rejected")
            tried += 1
        if not op.known_defect:
            op.check(view)  # corruptions must not damage the original
    return tried


def check_inputs_repeat(name: str) -> None:
    texts = []
    for attempt in range(2):
        workdir = run.OUT / f"selftest-inputs-{attempt}"
        workdir.mkdir(parents=True)
        try:
            W.WORKLOADS[name](random.Random(7), workdir, tiny=True)
            texts.append({p.name: p.read_bytes() for p in workdir.iterdir()})
        finally:
            shutil.rmtree(workdir)
    expect(texts[0] == texts[1], f"{name}: the same seed gave different inputs")


def check_trace(name: str, workdir) -> None:
    ops = W.WORKLOADS[name](random.Random(3), workdir, tiny=True)
    originals = {(id(o), a): o.__dict__[a] for o, a, *_ in tracing._targets()}
    rec = tracing.Recorder()
    passes = run.run_passes(ops, 0.0, rec)
    expect(all(o.__dict__[a] is originals[(id(o), a)] for o, a, *_ in tracing._targets()),
           "tracing left a wrapper installed")
    expect([p["traced"] for p in passes] == [False, True] * run.MIN_PASSES,
           "untraced and traced passes must alternate")
    by_name = {op.name: op for op in ops}
    expect(all(by_name[n].known_defect for p in passes for n in p["failures"]),
           f"{name}: an operation failed under tracing")
    expect(not rec.stack and all(e >= s for s, e in zip(rec.starts, rec.ends)),
           f"{name}: unclosed or reversed span")
    metrics = rec.layer_metrics({"init.import_s": 0.1}, 0.0)
    expect(list(metrics) == list(tracing.LAYER_METRICS), "layer metrics differ from LAYER_METRICS")
    times = rec.self_times(rec.pass_starts[0], rec.pass_starts[1])
    expect(all(t >= -1e-9 for t in times.values()), f"{name}: negative self time")
    expect(sum(times.values()) <= passes[1]["wall_s"] + 1e-6, f"{name}: self times exceed the pass")
    if name == "split_ensemble":
        expect(metrics["concentration.assembly_s"]["value"] == 0, "split_ensemble assembled a Gram matrix")
    else:
        expect(metrics["concentration.entries"]["value"] > 0, f"{name}: no Gram entries counted")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS,
           "BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect({w["name"]: w["why"] for w in spec["workloads"]} == W.WHY,
           "BENCHMARK.json workloads differ from workloads.WHY")
    expect(set(W.WHY) == set(W.WORKLOADS), "every workload needs its reason in workloads.WHY")


def check_importtime_parser() -> None:
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     scipy.integrate._quad",
        "import time:        40 |         45 |   scipy.integrate",
        "import time:         7 |         82 | lacspec.uniqueness",
    ])
    expect(abs(run.scipy_import_s(report) - 75e-6) < 1e-12, "importtime parser")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "selftest-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        for name in W.WORKLOADS:
            tried = sum(check_oracles(name, seed, workdir) for seed in SEEDS)
            check_inputs_repeat(name)
            check_trace(name, workdir)
            print(f"selftest {name}: oracles pass on seeds {SEEDS}, {tried} corruptions rejected, "
                  "inputs repeat, trace restores the library")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_benchmark_json()
    check_importtime_parser()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
