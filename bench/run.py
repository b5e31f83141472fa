"""Benchmark of llespec's three beta(2) routes: time, accuracy and memory.

    python3 bench/run.py --workload {sequence,roots,blowup} [--seed N]
                         [--seconds S] [--trace 0|1]
    python3 bench/run.py --quick

Run from the repository root. One run measures one workload in this fresh
process: it times the set-up of the `llespec` command in separate fresh
interpreters, then repeats the workload's tasks in interleaved rounds for
about S seconds, checks every answer against `reference.py`, and prints one
JSON object as its last line. Timings are corrected for the shared CPU's
speed changes (`speed.py`). `--trace 1` runs the same rounds with spans
around llespec's layers and prints the per-layer metrics instead. `--quick`
runs every workload at minimal size and checks the references and the
output schema. See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS gets one thread, so with the CLI's two pool threads a run never uses
# more threads than the two cores it is measured on. Set before numpy loads;
# the set-up children inherit it.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from speed import SpeedProbe, pin, unpin

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
ACCEPTANCE_TESTS = ROOT / "tests" / "test_acceptance.py"

# the CLI fans these out over its pool threads; the other workloads are
# single-threaded and run pinned to one CPU
MULTI_THREADED = {"sequence"}

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_REPEATS = 5
DIGITS_CAP = 16.0
MIN_ROUNDS = 3

_READY = (
    "import sys; sys.path.insert(0, sys.argv[1]); import llespec.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class NullProbe:
    """Stands in for the tracer in untraced rounds."""

    def span(self, name):
        return nullcontext()

    def count(self, name, k=1):
        pass


# ---------------------------------------------------------------- set-up


def time_setup() -> tuple[float, float]:
    """Start and end (perf_counter) of a fresh interpreter's run until
    llespec.cli is imported and ready, as every `llespec` command pays it."""
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [sys.executable, "-c", _READY, str(SRC)],
        stdout=subprocess.PIPE,
    )
    try:
        line = p.stdout.readline()
        t1 = time.perf_counter()
    finally:
        p.stdout.close()
        p.wait()
    if line != b"ready\n" or p.returncode != 0:
        raise RuntimeError(f"importing llespec.cli failed (exit {p.returncode})")
    return t0, t1


def import_times() -> dict[str, float]:
    """Cumulative import seconds of llespec, scipy.linalg and
    scipy.integrate in a fresh interpreter, from -X importtime."""
    p = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _READY, str(SRC)],
        capture_output=True,
        check=True,
    )
    wanted = {"llespec": 0.0, "scipy.linalg": 0.0, "scipy.integrate": 0.0}
    for line in p.stderr.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if name.strip() in wanted:
            wanted[name.strip()] = int(cumulative) * 1e-6
    return wanted


# ---------------------------------------------------------------- rounds


def _digits(value: float, reference: float) -> tuple[float, float]:
    err = abs(value - reference) / abs(reference)
    return err, min(DIGITS_CAP, -math.log10(err) if err > 0 else DIGITS_CAP)


def run_round(tasks, probe, spans, tally) -> None:
    """Run every task once; append each task's (start, end) to its list in
    `spans` (unless it is None) and record its checks in `tally`."""
    for i, task in enumerate(tasks):
        t0 = time.perf_counter()
        raw = task.call(probe)
        t1 = time.perf_counter()
        if spans is not None:
            spans[i].append((t0, t1))
        values = task.extract(raw, probe)
        if len(values) != len(task.refs):
            raise workloads.SchemaError(f"{task.name}: {len(values)} answers")
        for value, r in zip(values, task.refs):
            tally["attempted"] += 1
            err, digits = _digits(value, r.value)
            tally["answers"][f"{task.name}: {r.label}"] = {
                "value": value, "reference": r.value, "rel_err": err
            }
            if err <= r.tol:
                tally["digits"] = min(tally["digits"], digits)
                continue
            tally["failed"] += 1
            if task.route == "root":
                probe.count("spectral_solver.max_real_root.wrong")
            if not r.known_fault:
                tally["unexpected"].append(f"{r.label}: {value!r} vs {r.value!r}")


def measure(tasks, seconds, tracer=None, min_rounds=MIN_ROUNDS):
    """Interleaved rounds until `seconds` have passed and at least
    `min_rounds` ran, with the speed probe running. With a tracer, rounds
    alternate untraced and traced. Returns the checks, each task's
    untraced (start, end) times, each round's duration by kind of round,
    and the probe."""
    tally = {"attempted": 0, "failed": 0, "digits": DIGITS_CAP, "unexpected": [], "answers": {}}
    spans = [[] for _ in tasks]
    rounds = {"plain": [], "traced": []}
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while len(rounds["plain"]) + len(rounds["traced"]) < min_rounds or (
            time.perf_counter() - start < seconds
        ):
            t0 = time.perf_counter()
            # the first round is untraced, so traced rounds start warm
            if tracer is not None and len(rounds["plain"]) > len(rounds["traced"]):
                with tracer.installed():
                    run_round(tasks, tracer, None, tally)
                rounds["traced"].append(time.perf_counter() - t0)
            else:
                run_round(tasks, NullProbe(), spans, tally)
                rounds["plain"].append(time.perf_counter() - t0)
    return tally, spans, rounds, probe


def fastest(spans, probe=None) -> float:
    """The shortest of the (start, end) intervals, each scaled by the speed
    probe's correction when a probe is given."""
    return min((t1 - t0) * (probe.speed(t0, t1) if probe else 1.0) for t0, t1 in spans)


# ---------------------------------------------------------------- metrics


def end_to_end(setup_s, tally, best) -> dict:
    """`setup_s` and `best` (each task's fastest time) are speed-corrected."""
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "solve_s": {"value": sum(best), "unit": "s"},
        "digits_min": {"value": tally["digits"], "unit": "digits"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


# Per-layer metrics. "<span>.calls" counts spans, "<span>.s" is their self
# time (span minus child spans), other names are counters kept by the spans;
# every value is per traced round. cli.main.s is the whole span.
PER_LAYER = (
    ("setup.import_llespec_s", "s"),
    ("setup.import_scipy_linalg_s", "s"),
    ("setup.import_scipy_integrate_s", "s"),
    ("cli.main.s", "s"),
    ("cli.self.s", "s"),
    ("cli.out_bytes", "bytes"),
    ("loewner_system.build_matrices.calls", "count"),
    ("loewner_system.build_matrices.s", "s"),
    ("loewner_system.recurrence_coefficients.s", "s"),
    ("loewner_system.charpoly_eval.calls", "count"),
    ("loewner_system.charpoly_eval.s", "s"),
    ("spectral_solver.eigen_spectrum.calls", "count"),
    ("spectral_solver.eigen_spectrum.s", "s"),
    ("spectral_solver.eigen_spectrum.dense_calls", "count"),
    ("spectral_solver.eigen_spectrum.n_sum", "count"),
    ("spectral_solver.beta2.calls", "count"),
    ("spectral_solver.beta2.s", "s"),
    ("spectral_solver.max_real_root.calls", "count"),
    ("spectral_solver.max_real_root.s", "s"),
    ("spectral_solver.max_real_root.fallback_calls", "count"),
    ("spectral_solver.max_real_root.wrong", "count"),
    ("fuchsian_series.series_solution.s", "s"),
    ("fuchsian_series.series_solution.rows", "count"),
    ("fuchsian_series.series_solution.bytes_computed", "bytes"),
    ("fuchsian_series.ladder.s", "s"),
    ("fuchsian_series.blowup_exponent.s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def per_layer(tracer, rounds, imports) -> dict:
    """Per-layer metrics of the traced rounds, the import split of set-up,
    and the tracing overhead: the median traced round minus the median
    untraced round."""
    n = len(rounds["traced"])
    summary = tracer.summary()
    derived = {
        "setup.import_llespec_s": imports["llespec"],
        "setup.import_scipy_linalg_s": imports["scipy.linalg"],
        "setup.import_scipy_integrate_s": imports["scipy.integrate"],
        "cli.main.s": summary.get("cli.main", {}).get("total_s", 0.0) / n,
        "cli.self.s": summary.get("cli.main", {}).get("self_s", 0.0) / n,
        "trace.spans": len(tracer) // n,
        "trace.overhead_s": statistics.median(rounds["traced"])
        - statistics.median(rounds["plain"]),
    }
    m = {}
    for name, unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif field == "calls":
            value = summary.get(span, {}).get("calls", 0) // n
        elif field == "s":
            value = summary.get(span, {}).get("self_s", 0.0) / n
        else:
            value = tracer.counters.get(name, 0) // n
        m[name] = {"value": value, "unit": unit}
    return m


# ---------------------------------------------------------------- driver


def run(workload, seed, seconds, trace, quick=False) -> dict:
    OUT.mkdir(exist_ok=True)
    tasks = workloads.build(workload, seed, OUT, quick=quick)
    repeats = 1 if quick else SETUP_REPEATS
    cpus = pin()  # the set-up children are single-threaded too
    if trace:
        samples = [import_times() for _ in range(repeats)]
        imports = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    else:
        time_setup()  # compiles bytecode and warms the file cache; not counted
        with SpeedProbe() as setup_probe:
            starts = [time_setup() for _ in range(repeats)]
        setup_raw = statistics.median(t1 - t0 for t0, t1 in starts)
        setup_s = statistics.median((t1 - t0) * setup_probe.speed(t0, t1) for t0, t1 in starts)
    if workload in MULTI_THREADED:
        unpin(cpus)
    tracer = Tracer() if trace else None
    tally, spans, rounds, probe = measure(tasks, seconds, tracer, 2 if quick else MIN_ROUNDS)
    unpin(cpus)
    best = [fastest(s, probe) for s in spans]
    best_raw = [fastest(s) for s in spans]
    stem = f"{workload}-seed{seed}{'-quick' if quick else ''}"
    if trace:
        metrics = per_layer(tracer, rounds, imports)
        tracer.write(OUT / f"trace-{stem}.json")
    else:
        metrics = end_to_end(setup_s, tally, best)
    result = {
        "correct": not tally["unexpected"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  round_s=rounds, unexpected=tally["unexpected"],
                  task_best_s={t.name: b for t, b in zip(tasks, best)},
                  raw={"solve_s": sum(best_raw), "setup_s": None if trace else setup_raw,
                       "task_best_s": {t.name: b for t, b in zip(tasks, best_raw)}},
                  speed_probe=probe.summary(), answers=tally["answers"])
    (OUT / f"result-{stem}-trace{trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8"
    )
    return result


def quick() -> int:
    """Every workload at minimal size, traced and untraced, plus the
    reference self-check; checks the result schema against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = reference.self_check(ACCEPTANCE_TESTS)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run(w["name"], DEFAULT_SEED, 0, trace, quick=True)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']}: result keys {sorted(res)}")
            if got != expected[trace]:
                problems.append(f"{w['name']} trace={trace}: metrics {got}")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: {res}")
            print(w["name"], f"trace={trace}", json.dumps(res))
    for p in problems:
        print("PROBLEM", p)
    print("quick check", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("sequence", "roots", "blowup"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)
    if not args.quick and args.workload is None:
        p.error("--workload is required unless --quick is given")
    if not (SRC / "llespec" / "__init__.py").is_file():
        print(f"error: no llespec sources under {SRC}", file=sys.stderr)
        return 2
    if not ACCEPTANCE_TESTS.is_file():
        print(f"error: {ACCEPTANCE_TESTS} is missing", file=sys.stderr)
        return 2
    _load()
    if args.quick:
        return quick()
    problems = reference.self_check(ACCEPTANCE_TESTS)
    if problems:
        print("error: reference self-check failed:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _load():
    """Import llespec from this checkout's sources, then the modules that
    use it."""
    global reference, workloads, Tracer
    sys.path.insert(0, str(SRC))
    import llespec

    if Path(llespec.__file__).resolve().parent != SRC / "llespec":
        raise ImportError(f"llespec imported from {llespec.__file__}, not {SRC}")
    import reference
    import workloads
    from spans import Tracer


if __name__ == "__main__":
    sys.exit(main())
