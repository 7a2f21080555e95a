"""Benchmark of the lchs package: time to solution, set-up time, peak memory.

Run from the repository root:

    python3 benchmarks/run.py --workload heat --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

Each workload runs in a fresh child process (benchmarks/workloads.py) that
imports lchs from ./src, repeats one checked operation for --seconds on one
thread and reports per-operation records. With --trace 0 this prints the
end-to-end metrics of BENCHMARK.json; with --trace 1 it prints the per-layer
metrics, from a run that alternates untraced and traced operations, plus a
run with the library's default threads for cap and mc-sweep. The spans of a traced
run are written to benchmarks/out/. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("heat", "cap", "suite", "mc-sweep")
# Every measuring child runs on one thread. On a host whose cores are
# shared, a run that keeps both vCPUs busy spreads far more between identical
# runs than one that keeps one busy.
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "LCHS_WORKERS": "1"}
# Workloads whose traced run adds a child with the library's default threads
# (OpenBLAS threads for cap, harness pool workers for mc-sweep).
THREADED = ("cap", "mc-sweep")
# A run must end within 180 s; the rest is left for interpreter start-up.
RUN_LIMIT_S = 170.0
# Per-layer metrics derived from plan size, dimension and steps.
COMPUTED = ("sampling.plan_terms", "evolve.eigh_count", "evolve.buffer_bytes", "evolve.shift_gain")


def run_child(workload: str, seed: int, seconds: float, mode: str, src: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    if mode == "threaded":
        for key in ONE_THREAD_ENV:
            env.pop(key, None)
    else:
        env.update(ONE_THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode, "--src", src]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} ({mode}) child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def median_of(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops)


def timed(ops: list[dict], traced: bool = False) -> list[dict]:
    """The operations that timing statistics use: all but the warm-up."""
    return [op for op in ops if not op["warmup"] and op["traced"] == traced]


def measure(workload: str, seed: int, seconds: float, trace: bool, src: str, deadline: float):
    """Run the workload's child processes; return (ops, metric values, trace document)."""
    if not trace:
        child = run_child(workload, seed, seconds, "untraced", src, deadline)
        ops = child["ops"]
        walls = [op["wall_s"] for op in timed(ops)]
        # The machine's speed drifts by tens of percent over tens of seconds,
        # mostly as short fast spells. The upper quartile of a run's
        # operations moves less with them than the median, and is the time
        # three operations in four stay within.
        p75 = statistics.quantiles(walls, n=4, method="inclusive")[2] if len(walls) > 1 else walls[0]
        return ops, {"time_to_solution_s": p75,
                     "setup_s": median_of(timed(ops), "setup_s"),
                     "peak_rss_mb": child["peak_rss_mb"]}, None
    share = seconds / 2 if workload in THREADED else seconds
    child = run_child(workload, seed, share, "traced", src, deadline)
    ops = child["ops"]
    values = dict(child["per_layer"])
    plain = timed(ops)
    values["trace.overhead_s"] = median_of(timed(ops, traced=True), "wall_s") - median_of(plain, "wall_s")
    values["proc.import_s"] = child["import_s"]
    doc = {"workload": workload, "seed": seed, "spans": child.pop("spans"), "traced_run": child}
    if workload in THREADED:
        ref = run_child(workload, seed, seconds - share, "threaded", src, deadline)
        ops = ops + ref["ops"]
        values["harness.parallel_speedup"] = median_of(plain, "wall_s") / median_of(timed(ref["ops"]), "wall_s")
        doc["threaded_run"] = ref
    doc["metrics"] = values
    doc["computed_not_measured"] = sorted(k for k in values if k.startswith(COMPUTED))
    return ops, values, doc


def emit(values: dict, specs: list[dict]) -> dict:
    """Every metric of `specs`, by name and unit. A layer that the workload
    does not call reads 0."""
    values = dict(values)
    out = {s["name"]: {"value": values.pop(s["name"], 0.0), "unit": s["unit"]} for s in specs}
    if values:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lchs", "__init__.py")):
        print(f"benchmark: no lchs package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("benchmark: --seed must be >= 0", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        if args.workload == "all":
            deadline = time.monotonic() + RUN_LIMIT_S
        ops, values, doc = measure(w, args.seed, seconds, bool(args.trace), src, deadline)
        n_failed = sum(not op["ok"] for op in ops)
        attempted += len(ops)
        failed += n_failed
        for op in ops:
            if not op["ok"]:
                print(f"{w}: operation failed: {op['error']}")
        shown = emit(values, specs)
        walls = [op["wall_s"] for op in ops]
        print(f"{w}: {len(ops)} operations attempted, {n_failed} failed; "
              f"time per operation min {min(walls):.3f} s, max {max(walls):.3f} s")
        for name, m in shown.items():
            if not args.trace or m["value"] != 0:
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
        if doc is not None:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            path = os.path.join(HERE, "out", f"trace-{w}-seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
            print(f"  spans written to {os.path.relpath(path)}")
        if args.workload == "all":
            metrics.update({f"{w}.{k}": v for k, v in shown.items()})
        else:
            metrics = shown
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
