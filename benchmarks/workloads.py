"""One workload of the lchs benchmark, run for a fixed time in a fresh process.

run.py starts this script once per workload (and once more for the
default-threads run of a traced run), so that peak memory and thread
settings belong to that workload alone:

    PYTHONPATH=src python3 benchmarks/workloads.py \
        --workload heat --seed 1 --seconds 30 --mode untraced --src src

run.py also sets OPENBLAS_NUM_THREADS=1 and LCHS_WORKERS=1 for every mode
but "threaded".

It repeats one operation on inputs drawn from the seed until the time is up,
checks every operation, and prints one JSON object as its last stdout line.
Modes: "untraced" times operations with tracing off; "traced" alternates
untraced and traced operations and derives the per-layer metrics from the
spans; "threaded" is "untraced" under the library's default threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

_t0 = time.perf_counter()
import numpy as np
import scipy.linalg

import lchs
from lchs.harness import RunConfig, build_problem, run_convergence, worker_count

IMPORT_S = time.perf_counter() - _t0

EPS = 1e-4
BETA = 0.75
COMPLEX_BYTES = 16

# The problems each workload solves, with horizon T. heat and cap keep the
# builder defaults and eps = 1e-4 but shorten T, which shrinks the plan (its
# panel count grows with T * ||L||) while keeping dimension, kernel window and
# nodes per panel. At T = 1 one heat solve takes about 205 s and one cap
# solve 12-14 s, longer than a benchmark run may last. heat and suite are
# cut to one or two seconds an operation so that a run holds a dozen or more;
# on suite that also makes set-up about half of the operation.
SOLVES = {
    "heat": (("parabolic1d", 1.0 / 256.0),),  # 16,512 terms, dim 15, L and H commute
    "cap": (("cap", 0.25),),                  # 5,304 terms, dim 63, L and H do not commute
    # 6,264 + 6,264 + 4,176 + 4,176 terms
    "suite": tuple((name, 0.25) for name in ("mm1", "mmc", "lindblad", "blackhole")),
    "mc-sweep": (("lindblad", 1.0),),
}

# mc-sweep: K is the beta(0.75) window for eps = 1e-3. Six replicas per Ns
# (an even split over two pool workers) keep an operation near two seconds
# on one worker.
MC_EPS = 1e-3
MC_K = 44.25
MC_NS = (2000, 4000, 8000, 16000)
MC_REPLICAS = 6

# An oracle much less accurate than this cannot certify eps = 1e-4.
ORACLE_AGREEMENT = 1e-8


class CheckFailed(Exception):
    """An operation finished but its output broke the benchmark's contract."""


class Tracer:
    """Spans around the benchmark's calls into lchs, kept in memory.

    Each span records its name, operation index, parent span, wall and CPU
    start and end. When disabled, span() only yields.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None, **attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["cpu_start"] = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = time.process_time()
            self._open.pop()

    def reported(self, name: str, start: float, seconds: float, **attrs) -> None:
        """A child span of the open span whose duration lchs itself reported."""
        if self.enabled:
            self.spans.append({"name": name, "op": self.op, "parent": self._open[-1],
                               "start": start, "end": start + seconds,
                               "source": "SolveReport.wall_times", **attrs})


def random_unit(rng, dim: int):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def reference_solution(problem, T: float):
    """exp(-A T) u0 for the unshifted generator, computed here with scipy,
    independently of lchs.oracle_solve."""
    pair = problem.schedule.pair_at(0.0)
    A = pair.L - problem.shift * np.eye(problem.dim) + 1j * pair.H
    return scipy.linalg.expm(-A * T) @ problem.u0


def solve_counts(problem, plan, report, T: float) -> dict:
    """Computed, not measured: sizes the solve implies."""
    terms = plan.size
    return {
        "sampling.plan_terms": terms,
        "evolve.eigh_count": terms * report.propagator_steps if problem.dim > 1 else 0,
        "evolve.buffer_bytes": terms * problem.dim * COMPLEX_BYTES,
        "evolve.shift_gain": math.exp(problem.shift * T),
    }


class Workload:
    """Inputs drawn from the seed, and the operation repeated on them."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.inputs = {}
        for pname, T in SOLVES[name]:
            proto = build_problem(pname, {})
            u0 = random_unit(rng, proto.dim)
            self.inputs[pname] = (u0, T, reference_solution(dataclasses.replace(proto, u0=u0), T))

    def run(self, tr: Tracer, op: dict) -> None:
        """One operation; fills op with its set-up time, output digest and
        counts as it goes, so a failed operation keeps what it measured."""
        if self.name == "mc-sweep":
            self._mc_sweep(tr, op)
            return
        digest = hashlib.sha256()
        for pname, (u0, T, u_ref) in self.inputs.items():
            self._solve(tr, pname, u0, T, u_ref, op, digest)
        op["digest"] = digest.hexdigest()

    def _solve(self, tr, pname, u0, T, u_ref, op, digest) -> None:
        tag = {"problem": pname} if self.name == "suite" else {}
        t0 = time.perf_counter()
        with tr.span("problems.build", **tag):
            problem = dataclasses.replace(build_problem(pname, {}), u0=u0)
        with tr.span("kernels.make_kernel", **tag):
            kernel = lchs.make_kernel("beta", BETA)
        with tr.span("sampling.plan", **tag):
            plan = lchs.plan_from_accuracy(kernel, EPS, T, problem.meta["normL"])
        op["setup_s"] += time.perf_counter() - t0
        t_solve = time.perf_counter()
        with tr.span("evolve.solve", **tag):
            report = lchs.solve(problem, plan, T)
            lchs_s = report.wall_times.get("lchs_s", 0.0)
            tr.reported("evolve.lchs_apply", t_solve, lchs_s, **tag)
            tr.reported("evolve.oracle", t_solve + lchs_s, report.wall_times.get("oracle_s", 0.0), **tag)

        u_norm = float(np.linalg.norm(u0))
        oracle_gap = float(np.linalg.norm(report.u_oracle - u_ref)) / u_norm
        if not oracle_gap <= ORACLE_AGREEMENT:
            raise CheckFailed(f"{pname}: oracle differs from the expm reference by {oracle_gap:.3e}")
        err = float(np.linalg.norm(report.u_lchs - report.u_oracle)) / u_norm
        if not err <= EPS:
            raise CheckFailed(f"{pname}: |u_lchs - u(T)| / |u0| = {err:.3e} > eps = {EPS:g}")
        digest.update(report.u_lchs.tobytes())
        counts = solve_counts(problem, plan, report, T)
        counts["evolve.err_over_eps"] = err / EPS
        op["counts"][pname] = counts

    def _mc_sweep(self, tr: Tracer, op: dict) -> None:
        u0, T, u_ref = self.inputs["lindblad"]
        rho0 = u0.reshape((2, 2), order="F")  # build_lindblad vectorizes column-wise
        cfg = RunConfig.from_dict({
            "schema_version": 1,
            "problem": {"name": "lindblad", "params": {
                "rho0": {"re": rho0.real.tolist(), "im": rho0.imag.tolist()}}},
            "kernel": {"family": "beta", "beta": BETA},
            "method": "monte-carlo",
            "accuracy": {"K": MC_K, "Ns": MC_NS[0], "seed": self.seed},
            "T": T,
        })
        # run_convergence's own set-up cannot be timed from outside, so the
        # operation repeats it here: the problem serves the accuracy check
        # and the base-seed plans serve the computed counts.
        t0 = time.perf_counter()
        with tr.span("problems.build"):
            problem = build_problem(cfg.problem_name, cfg.problem_params)
        with tr.span("kernels.make_kernel"):
            kernel = lchs.make_kernel("beta", BETA)
        plans = []
        for ns in MC_NS:
            with tr.span("sampling.mc_plan"):
                plans.append(lchs.mc_plan(kernel, MC_K, ns, self.seed))
        op["setup_s"] = time.perf_counter() - t0
        with tr.span("evolve.oracle"):
            u_oracle = lchs.oracle_solve(problem, T)
        with tr.span("harness.run_convergence"):
            result = run_convergence(cfg, "Ns", list(MC_NS), mc_seeds=MC_REPLICAS)

        u_norm = float(np.linalg.norm(u0))
        if not np.array_equal(problem.u0, u0):
            raise CheckFailed("lindblad: rho0 did not vectorize to the drawn u0")
        oracle_gap = float(np.linalg.norm(u_oracle - u_ref)) / u_norm
        if not oracle_gap <= ORACLE_AGREEMENT:
            raise CheckFailed(f"lindblad: oracle differs from the expm reference by {oracle_gap:.3e}")
        ref_norm = float(np.linalg.norm(u_oracle))
        worst = 0.0
        for ns, row in zip(MC_NS, result.rows):
            if row["status"] != "ok" or row["N"] != ns:
                raise CheckFailed(f"Ns={ns}: row {row['status']!r} with N={row['N']}")
            bound = 2.0 * MC_K / math.sqrt(ns)
            mean_err = row["rel_error"] * ref_norm / u_norm
            if not mean_err <= bound:
                raise CheckFailed(f"Ns={ns}: mean error {mean_err:.3e} > 2K/sqrt(Ns) = {bound:.3e}")
            worst = max(worst, mean_err / bound)
        replica_errors = np.array([row["replica_errors"] for row in result.rows])
        terms = sum(MC_NS) * MC_REPLICAS
        op.update({
            "digest": hashlib.sha256(replica_errors.tobytes()).hexdigest(),
            "counts": {"lindblad": {
                "sampling.plan_terms": terms,
                "evolve.eigh_count": terms,
                "evolve.buffer_bytes": max(p.size for p in plans) * problem.dim * COMPLEX_BYTES,
                "evolve.shift_gain": math.exp(problem.shift * T),
                "evolve.err_over_eps": worst,
            }},
            "workers": worker_count(),
            "mc_slope": result.fit.slope if result.fit is not None else 0.0,
        })


def run_ops(workload: Workload, tr: Tracer, seconds: float, alternate: bool) -> list[dict]:
    """Repeat the operation until `seconds` would be exceeded.

    The first operation is a warm-up: it fills caches and finishes lazy
    set-up, is checked and counted like the others, and is marked so that
    no timing statistic uses it. At least one timed operation follows (two
    when alternating, one untraced and one traced). A raising or failing
    operation counts as failed; none is dropped or retried."""
    ops: list[dict] = []
    first_digest = None
    min_ops = 3 if alternate else 2
    t_start = time.perf_counter()
    while True:
        if len(ops) >= min_ops and time.perf_counter() - t_start \
                + statistics.median(op["wall_s"] for op in ops[1:]) > seconds:
            return ops
        tr.op = len(ops)
        traced = alternate and len(ops) > 0 and len(ops) % 2 == 0
        tr.enabled = traced
        op = {"warmup": not ops, "traced": traced, "ok": True, "error": None,
              "setup_s": 0.0, "counts": {}}
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            workload.run(tr, op)
        except Exception as exc:  # the run goes on; the operation counts as failed
            traceback.print_exc(file=sys.stderr)
            op.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        op["wall_s"] = time.perf_counter() - t0
        op["cpu_s"] = time.process_time() - cpu0
        if op["ok"]:
            if first_digest is None:
                first_digest = op["digest"]
            elif op["digest"] != first_digest:
                op.update(ok=False, error="u_lchs bytes differ from the first operation of this seed")
        ops.append(op)


def layer_metrics(workload: Workload, ops: list[dict], spans: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced operations of their span
    totals, the probe spans outside any operation, and the computed counts
    and diagnostics of the operation."""
    totals: dict[int, dict] = {}
    for s in spans:
        t = totals.setdefault(s["op"], {})
        keys = [s["name"] + "_s"] + ([f"{s['name']}_s.{s['problem']}"] if "problem" in s else [])
        for key in keys:
            t[key] = t.get(key, 0.0) + s["end"] - s["start"]
        if s["name"] == "harness.run_convergence":
            t["harness.cpu_per_wall"] = (s["cpu_end"] - s["cpu_start"]) / (s["end"] - s["start"])
    traced = [i for i, op in enumerate(ops) if op["traced"] and op["ok"]]
    if not traced:
        return {}
    metrics = dict(totals.get(-1, {}))
    for key in {k for i in traced for k in totals[i]}:
        metrics[key] = statistics.median(totals[i].get(key, 0.0) for i in traced)
    op = ops[traced[0]]
    counts = op["counts"]
    for key in ("sampling.plan_terms", "evolve.eigh_count"):
        metrics[key] = sum(c[key] for c in counts.values())
    for key in ("evolve.buffer_bytes", "evolve.shift_gain", "evolve.err_over_eps"):
        metrics[key] = max(c[key] for c in counts.values())
    if workload.name == "suite":
        for pname, c in counts.items():
            for key, value in c.items():
                metrics[f"{key}.{pname}"] = value
            metrics[f"evolve.terms_per_s.{pname}"] = \
                c["sampling.plan_terms"] / metrics[f"evolve.lchs_apply_s.{pname}"]
    if "evolve.lchs_apply_s" in metrics:
        metrics["evolve.terms_per_s"] = metrics["sampling.plan_terms"] / metrics["evolve.lchs_apply_s"]
    if workload.name == "mc-sweep":
        metrics["harness.workers"] = op["workers"]
        metrics["harness.mc_slope"] = op["mc_slope"]
    metrics["proc.cpu_s"] = statistics.median(ops[i]["cpu_s"] for i in traced)
    return metrics


def probe_truncation(workload: Workload, tr: Tracer) -> None:
    """Time choose_truncation on its own; inside plan construction it is not
    visible from outside lchs."""
    tr.op = -1
    tr.enabled = True
    kernel = lchs.make_kernel("beta", BETA)
    eps = MC_EPS if workload.name == "mc-sweep" else EPS
    with tr.span("kernels.choose_truncation"):
        lchs.choose_truncation(kernel, eps / 3.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SOLVES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("untraced", "traced", "threaded"))
    ap.add_argument("--src", required=True, help="directory the lchs package must come from")
    args = ap.parse_args(argv)

    src = os.path.realpath(args.src)
    if os.path.commonpath([os.path.realpath(lchs.__file__), src]) != src:
        print(f"lchs was imported from {lchs.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = Workload(args.workload, args.seed)
    tr = Tracer(False)
    ops = run_ops(workload, tr, args.seconds, alternate=args.mode == "traced")
    result = {"ops": [{k: op.get(k) for k in ("warmup", "traced", "ok", "error", "wall_s", "setup_s", "cpu_s")}
                      for op in ops],
              "import_s": IMPORT_S,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if args.mode == "traced":
        probe_truncation(workload, tr)
        result["per_layer"] = layer_metrics(workload, ops, tr.spans)
        result["spans"] = tr.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
