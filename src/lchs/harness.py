"""Run configuration, sweep drivers, scaling fits, and report emission.

Configs are JSON documents validated against a published schema. Reports are
written deterministically (identical config and seed give byte-identical
bytes); wall-clock timings go to a separate timing file so they never perturb
the report itself. All files are written atomically (temp + rename).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import jsonschema
import numpy as np

from .errors import BuildError, ConfigError, FitError, LchsError
from .evolve import ProblemInstance, SolveReport, lchs_apply, oracle_solve, solve
from .kernels import KernelSpec, choose_truncation, make_kernel
from .problems import (
    CapPotentials,
    LindbladSpec,
    ParabolicCoefficients,
    QueueParams,
    absorbing_layer,
    amplitude_damping_spec,
    build_blackhole,
    build_cap_schrodinger,
    build_lindblad,
    build_mm1,
    build_mmc,
    build_parabolic_1d,
    preset_callable,
)
from .sampling import (
    SamplingPlan,
    composite_plan,
    mc_plan,
    mc_size_from_accuracy,
    plan_from_accuracy,
)

_log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
WORKERS_ENV = "LCHS_WORKERS"

_matrix_schema = {
    "type": "object",
    "oneOf": [
        {"required": ["diag"], "additionalProperties": False,
         "properties": {"diag": {"type": "array", "items": {"type": "number"}}}},
        {"required": ["re"], "additionalProperties": False,
         "properties": {
             "re": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
             "im": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
         }},
    ],
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "problem", "method", "accuracy", "T"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "problem": {
            "type": "object",
            "required": ["name"],
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["parabolic1d", "mm1", "mmc", "cap", "lindblad", "blackhole"]},
                "params": {"type": "object"},
            },
        },
        "kernel": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["cauchy", "beta"]},
                "beta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "method": {"enum": ["gaussian", "monte-carlo"]},
        "accuracy": {
            "type": "object",
            "oneOf": [
                {"required": ["eps"], "additionalProperties": False,
                 "properties": {"eps": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                                "seed": {"type": "integer"}}},
                {"required": ["K", "M", "Q"], "additionalProperties": False,
                 "properties": {"K": {"type": "number", "exclusiveMinimum": 0},
                                "M": {"type": "integer", "minimum": 1},
                                "Q": {"type": "integer", "minimum": 1}}},
                {"required": ["K", "Ns", "seed"], "additionalProperties": False,
                 "properties": {"K": {"type": "number", "exclusiveMinimum": 0},
                                "Ns": {"type": "integer", "minimum": 1},
                                "seed": {"type": "integer"}}},
            ],
        },
        "T": {"type": "number", "minimum": 0},
        "output": {"type": "string"},
        "emit": {"type": "array", "items": {"enum": ["json", "csv"]}, "uniqueItems": True},
    },
}


_interleaved_vector = {"type": "array", "items": {"type": "number"}}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "config", "label", "plan", "report"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "config": CONFIG_SCHEMA,
        "label": {"type": "string"},
        "plan": {
            "type": "object",
            "required": ["method", "K", "size"],
            "properties": {
                "method": {"enum": ["gaussian", "monte-carlo"]},
                "K": {"type": "number", "exclusiveMinimum": 0},
                "size": {"type": "integer", "minimum": 1},
            },
        },
        "report": {
            "type": "object",
            "required": [
                "u_lchs", "u_oracle", "rel_error", "abs_error",
                "plan_size", "propagator_steps", "shift_unwound", "norm_ratio",
            ],
            "additionalProperties": False,
            "properties": {
                "u_lchs": _interleaved_vector,
                "u_oracle": _interleaved_vector,
                "rel_error": {"type": "number", "minimum": 0},
                "abs_error": {"type": "number", "minimum": 0},
                "plan_size": {"type": "integer", "minimum": 1},
                "propagator_steps": {"type": "integer", "minimum": 1},
                "shift_unwound": {"type": "boolean"},
                "norm_ratio": {"type": "number", "minimum": 0},
            },
        },
    },
}


def validate_report(payload: dict) -> None:
    """Check an emitted report document against the published schema."""
    try:
        jsonschema.validate(payload, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
        raise ConfigError(f"report invalid at {pointer}: {exc.message}", pointer=pointer)


@dataclass
class RunConfig:
    """Validated run configuration."""

    problem_name: str
    problem_params: dict
    kernel_family: str
    kernel_beta: float | None
    method: str
    accuracy: dict
    T: float
    output: str | None = None
    emit: tuple = ("json",)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        try:
            jsonschema.validate(d, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
            raise ConfigError(f"config invalid at {pointer}: {exc.message}", pointer=pointer)
        kernel = d.get("kernel", {"family": "beta", "beta": 0.75})
        return RunConfig(
            problem_name=d["problem"]["name"],
            problem_params=d["problem"].get("params", {}),
            kernel_family=kernel["family"],
            kernel_beta=kernel.get("beta"),
            method=d["method"],
            accuracy=dict(d["accuracy"]),
            T=float(d["T"]),
            output=d.get("output"),
            emit=tuple(d.get("emit", ["json"])),
        )

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        return RunConfig.from_dict(data)

    def to_dict(self, include_io: bool = True) -> dict:
        """As a JSON document; include_io=False omits the output/emit fields
        (used when echoing the config into reports, which must be byte-stable
        regardless of where they are written)."""
        kernel = {"family": self.kernel_family}
        if self.kernel_beta is not None:
            kernel["beta"] = self.kernel_beta
        out = {
            "schema_version": SCHEMA_VERSION,
            "problem": {"name": self.problem_name, "params": self.problem_params},
            "kernel": kernel,
            "method": self.method,
            "accuracy": self.accuracy,
            "T": self.T,
        }
        if include_io:
            if self.output is not None:
                out["output"] = self.output
            out["emit"] = list(self.emit)
        return out


DEFAULT_PARAMS = {
    "parabolic1d": {"a": 1.0, "b": 0.0, "c": 0.0, "N_grid": 17},
    "mm1": {"lambda_rate": 1.0, "mu_rate": 2.0, "n_trunc": 16},
    "mmc": {"lambda_rate": 1.0, "mu_rate": 1.0, "servers": 2, "n_trunc": 16},
    "cap": {
        "V_R": 0.0,
        "V_I": {"layer": {"depth": 5.0, "x_lo": 0.7, "x_hi": 0.9}},
        "hbar": 1.0,
        "N_grid": 65,
        "domain": [0.0, 1.0],
    },
    "lindblad": {"preset": "amplitude-damping", "gamma": 1.0, "rho0": "excited"},
    "blackhole": {"H": {"diag": [1.0, -1.0]}, "gamma": 0.5},
}

# Every key each builder reads from a params block; build_problem rejects the
# rest, so a misspelt parameter cannot silently fall back to its default.
_PARAM_KEYS = {
    "parabolic1d": {"a", "b", "c", "N_grid", "time_slices", "lambda0_target"},
    "mm1": {"lambda_rate", "mu_rate", "n_trunc", "lambda0_target"},
    "mmc": {"lambda_rate", "mu_rate", "servers", "n_trunc", "lambda0_target"},
    "cap": {"V_R", "V_I", "hbar", "N_grid", "domain", "time_slices", "lambda0_target", "packet"},
    "lindblad": {"preset", "gamma", "H", "jumps", "rho0", "lambda0_target"},
    "blackhole": {"H", "gamma"},
}


def _parse_matrix(spec) -> np.ndarray:
    if isinstance(spec, dict) and "diag" in spec:
        return np.diag(np.asarray(spec["diag"], dtype=float)).astype(complex)
    if isinstance(spec, dict) and "re" in spec:
        M = np.asarray(spec["re"], dtype=float).astype(complex)
        if "im" in spec:
            M = M + 1j * np.asarray(spec["im"], dtype=float)
        return M
    raise BuildError(f"cannot parse matrix spec {spec!r}")


def _parse_vi(spec) -> object:
    if isinstance(spec, dict) and "layer" in spec:
        layer = spec["layer"]
        return absorbing_layer(layer["depth"], layer["x_lo"], layer["x_hi"])
    fn = preset_callable(spec)
    return lambda x: fn(x, 0.0)


def build_problem(name: str, params: dict | None = None, T: float = 1.0) -> ProblemInstance:
    """Instantiate a named problem from a JSON-style parameter block.

    T is the horizon the run integrates to; time-sliced builders place their
    breakpoints on [0, T]. A key the builder does not read raises ConfigError
    with pointer /problem/params/<key>; so does T, since the horizon is the
    config's top-level T only.
    """
    if name not in DEFAULT_PARAMS:
        raise BuildError(f"unknown problem {name!r}")
    unknown = sorted(set(params or {}) - _PARAM_KEYS[name])
    if unknown:
        raise ConfigError(
            f"config invalid at /problem/params/{unknown[0]}: {name} has no parameter "
            f"{unknown[0]!r} (it reads {', '.join(sorted(_PARAM_KEYS[name]))})",
            pointer=f"/problem/params/{unknown[0]}",
        )
    p = dict(DEFAULT_PARAMS[name])
    p.update(params or {})
    if name == "parabolic1d":
        pc = ParabolicCoefficients(
            a=preset_callable(p["a"]),
            b=preset_callable(p["b"]),
            c=preset_callable(p["c"]),
            N_grid=int(p["N_grid"]),
        )
        return build_parabolic_1d(
            pc,
            T=T,
            time_slices=int(p.get("time_slices", 1)),
            lambda0_target=float(p.get("lambda0_target", 0.1)),
        )
    if name == "mm1":
        qp = QueueParams(p["lambda_rate"], p["mu_rate"], 1, int(p["n_trunc"]))
        return build_mm1(qp, lambda0_target=float(p.get("lambda0_target", 0.1)))
    if name == "mmc":
        qp = QueueParams(p["lambda_rate"], p["mu_rate"], int(p["servers"]), int(p["n_trunc"]))
        return build_mmc(qp, lambda0_target=float(p.get("lambda0_target", 0.1)))
    if name == "cap":
        vr = preset_callable(p["V_R"])
        cp = CapPotentials(
            V_R=vr,
            V_I=_parse_vi(p["V_I"]),
            hbar=float(p["hbar"]),
            N_grid=int(p["N_grid"]),
            domain=tuple(p.get("domain", (0.0, 1.0))),
        )
        return build_cap_schrodinger(
            cp,
            T=T,
            time_slices=int(p.get("time_slices", 1)),
            lambda0_target=float(p.get("lambda0_target", 0.1)),
            packet=p.get("packet"),
        )
    if name == "lindblad":
        if p.get("preset") == "amplitude-damping":
            spec = amplitude_damping_spec(float(p.get("gamma", 1.0)))
            n = 2
        else:
            H = _parse_matrix(p["H"])
            jumps = [_parse_matrix(j) for j in p.get("jumps", [])]
            spec = LindbladSpec(H_sys=H, jump_ops=jumps)
            n = H.shape[0]
        rho0 = p.get("rho0")
        if rho0 == "excited":
            rho = np.zeros((n, n), dtype=complex)
            rho[n - 1, n - 1] = 1.0
        elif rho0 is None or rho0 == "mixed":
            rho = None
        else:
            rho = _parse_matrix(rho0)
        return build_lindblad(spec, rho0=rho, lambda0_target=float(p.get("lambda0_target", 0.1)))
    # name == "blackhole"
    return build_blackhole(_parse_matrix(p["H"]), float(p["gamma"]))


def make_plan(cfg: RunConfig, problem: ProblemInstance, kernel: KernelSpec) -> SamplingPlan:
    """Build the sampling plan a config describes, accuracy-driven or explicit."""
    acc = cfg.accuracy
    if cfg.method == "gaussian":
        if "eps" in acc:
            normL = problem.meta.get("normL")
            if normL is None:
                raise BuildError("problem metadata lacks normL for accuracy-driven plan")
            return plan_from_accuracy(kernel, float(acc["eps"]), cfg.T, float(normL))
        if "Ns" in acc:
            raise ConfigError("gaussian method cannot take {K, Ns, seed} accuracy", "/accuracy")
        return composite_plan(kernel, float(acc["K"]), int(acc["M"]), int(acc["Q"]))
    # monte-carlo
    if "eps" in acc:
        eps = float(acc["eps"])
        K = choose_truncation(kernel, eps / 3.0).K
        Ns = mc_size_from_accuracy(eps / 3.0, K)
        plan = mc_plan(kernel, K, Ns, int(acc.get("seed", 0)))
        plan.meta["eps"] = eps
        return plan
    if "M" in acc:
        raise ConfigError("monte-carlo method cannot take {K, M, Q} accuracy", "/accuracy")
    return mc_plan(kernel, float(acc["K"]), int(acc["Ns"]), int(acc["seed"]))


def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _plan_summary(plan: SamplingPlan) -> dict:
    out = {"method": plan.method, "K": plan.K, "size": plan.size}
    for key in ("M", "Q", "Ns", "seed", "generator", "eps", "tail_bound"):
        if key in plan.meta:
            out[key] = plan.meta[key]
    return out


def run_solve(cfg: RunConfig) -> SolveReport:
    """Build the problem and plan, solve, and persist the report.

    Writes report.json (deterministic), timing.json (wall clock), and
    optionally plan.csv with the (k, |c|) table.
    """
    problem = build_problem(cfg.problem_name, cfg.problem_params, cfg.T)
    kernel = make_kernel(cfg.kernel_family, cfg.kernel_beta)
    plan = make_plan(cfg, problem, kernel)
    report = solve(problem, plan, cfg.T)
    if cfg.output:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": cfg.to_dict(include_io=False),
            "label": problem.label,
            "plan": _plan_summary(plan),
            "report": report.to_dict(),
        }
        validate_report(payload)
        _atomic_write(
            os.path.join(cfg.output, "report.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        _atomic_write(
            os.path.join(cfg.output, "timing.json"),
            json.dumps({"wall_times_s": report.wall_times}, indent=2, sort_keys=True) + "\n",
        )
        if "csv" in cfg.emit:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["k", "abs_c"])
            for kj, cj in zip(plan.k, plan.c):
                writer.writerow([repr(float(kj)), repr(float(abs(cj)))])
            _atomic_write(os.path.join(cfg.output, "plan.csv"), buf.getvalue())
    return report


@dataclass
class FitResult:
    slope: float
    intercept: float
    resid_stderr: float
    slope_stderr: float


def fit_scaling(xs, ys) -> FitResult:
    """Ordinary least squares on (log x, log y).

    Requires at least 4 rows with strictly positive coordinates.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 4:
        raise FitError(f"need at least 4 rows to fit, got {len(xs)}")
    if np.any(xs <= 0) or np.any(ys <= 0) or not (
        np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
    ):
        raise FitError("scaling fit requires positive finite values")
    lx, ly = np.log(xs), np.log(ys)
    n = len(lx)
    mx, my = lx.mean(), ly.mean()
    sxx = np.sum((lx - mx) ** 2)
    if sxx == 0:
        raise FitError("all x values identical")
    slope = float(np.sum((lx - mx) * (ly - my)) / sxx)
    intercept = float(my - slope * mx)
    resid = ly - (slope * lx + intercept)
    dof = max(n - 2, 1)
    s = float(np.sqrt(np.sum(resid**2) / dof))
    return FitResult(
        slope=slope, intercept=intercept, resid_stderr=s,
        slope_stderr=float(s / np.sqrt(sxx)),
    )


@dataclass
class SweepResult:
    """Rows of one convergence sweep plus the fitted exponent (if fittable)."""

    axis: str
    rows: list = field(default_factory=list)
    fit: FitResult | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["axis", "value", "N", "rel_error", "stderr", "wall_s"])
        for row in self.rows:
            writer.writerow([
                self.axis,
                repr(float(row["value"])),
                row["N"],
                repr(float(row["rel_error"])),
                repr(float(row["stderr"])),
                repr(float(row["wall_s"])),
            ])
        return buf.getvalue()


def worker_count() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            n = int(env)
            if n >= 1:
                return n
        except ValueError:
            pass
    return os.cpu_count() or 1


SWEEP_AXES = ("Q", "M", "Ns", "K", "eps")


def _extends(plan: SamplingPlan, prev: SamplingPlan) -> bool:
    """True when plan's first prev.size terms are prev's draws: the same
    window, seed and generator, and bit-identical abscissae. The Philox
    stream is counter-based, so this holds along an Ns axis and fails when K
    changes."""
    return (
        plan.K == prev.K
        and plan.size >= prev.size
        and all(plan.meta.get(key) == prev.meta.get(key) for key in ("seed", "generator"))
        and np.array_equal(plan.k[: prev.size], prev.k)
    )


def run_convergence(
    cfg: RunConfig, axis: str, values, mc_seeds: int = 20
) -> SweepResult:
    """One solve per axis value against a shared oracle.

    Monte Carlo rows run mc_seeds >= 2 replicas (seed, seed+1, ...)
    concurrently and report the mean and standard error of the relative
    error. Each replica carries its estimate from its last good row. When
    the row's plan extends that row's draws (same K, seed and generator, and
    the old abscissae as its prefix, as along the Ns axis), only the new
    terms are propagated and the carried estimate is rescaled to the new Ns;
    a repeated value adds no terms. Ns rows therefore share their draws, their
    propagation and their correlation, and the wall_s of a carried row is
    its own increment and reduction. Any other row (the K and eps axes)
    starts from its full plan. One DEBUG record on lchs.harness per Monte
    Carlo sweep counts the terms propagated and reused.

    Rows that fail are marked with NaN errors and a status note, the carried
    estimates are dropped, and the sweep continues from the next row's full
    plan.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = list(values)
    if len(values) < 4:
        raise ConfigError(f"need >= 4 axis values, got {len(values)}")
    if sorted(values) != values:
        raise ConfigError("axis values must be sorted ascending")
    if axis == "Ns" and (cfg.method != "monte-carlo" or "Ns" not in cfg.accuracy):
        raise ConfigError(
            "axis Ns needs a monte-carlo config with explicit {K, Ns, seed}", "/accuracy"
        )
    if axis in ("K", "M", "Q") and "eps" in cfg.accuracy:
        raise ConfigError(
            f"axis {axis} needs explicit plan parameters in accuracy", "/accuracy"
        )
    if axis in ("M", "Q") and cfg.method == "monte-carlo":
        raise ConfigError(
            f"axis {axis} needs a gaussian config with explicit {{K, M, Q}}", "/accuracy"
        )
    if cfg.method == "monte-carlo" and mc_seeds < 2:
        raise ConfigError(
            f"a monte-carlo sweep needs mc_seeds >= 2 for its standard error, got {mc_seeds}"
        )

    problem = build_problem(cfg.problem_name, cfg.problem_params, cfg.T)
    kernel = make_kernel(cfg.kernel_family, cfg.kernel_beta)
    u_ref = oracle_solve(problem, cfg.T)
    ref_norm = np.linalg.norm(u_ref)

    def plan_for(value) -> SamplingPlan:
        acc = dict(cfg.accuracy)
        if axis == "eps":
            acc = {"eps": float(value), "seed": int(acc.get("seed", 0))}
        elif axis == "Ns":
            acc["Ns"] = int(value)
        else:
            acc[axis] = type(acc[axis])(value)
        sub = RunConfig(
            problem_name=cfg.problem_name, problem_params=cfg.problem_params,
            kernel_family=cfg.kernel_family, kernel_beta=cfg.kernel_beta,
            method=cfg.method, accuracy=acc, T=cfg.T,
        )
        return make_plan(sub, problem, kernel)

    def rel_error_for(u: np.ndarray) -> float:
        return float(np.linalg.norm(u - u_ref) / ref_norm)

    base_seed = int(cfg.accuracy.get("seed", 0))

    def replica(i: int, plan: SamplingPlan, prev):
        """(plan, estimate, terms propagated) of replica i (seed base_seed + i)
        in the row whose base-seed plan is plan. prev is the replica's
        (plan, estimate) from the last good row, or None. When this row's
        draws extend prev's, only the new terms are propagated: every
        c_j = (2K/Ns) g(k_j), so the shared terms sum to prev's estimate
        rescaled to this row's Ns, and the shift unwinding is a scalar."""
        if i > 0:
            plan = mc_plan(kernel, plan.K, plan.meta["Ns"], base_seed + i)
        if prev is None or not _extends(plan, prev[0]):
            return plan, lchs_apply(problem, plan, cfg.T), plan.size
        n0 = prev[0].size
        u = (n0 / plan.size) * prev[1]
        if plan.size > n0:
            u = u + lchs_apply(problem, replace(plan, k=plan.k[n0:], c=plan.c[n0:]), cfg.T)
        return plan, u, plan.size - n0

    # per replica, the (plan, estimate) of the last good Monte Carlo row
    carried = [None] * mc_seeds
    propagated = reused = 0
    result = SweepResult(axis=axis)
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        for value in values:
            t0 = time.perf_counter()
            try:
                plan = plan_for(value)
                if cfg.method == "monte-carlo":
                    states = list(pool.map(replica, range(mc_seeds), [plan] * mc_seeds, carried))
                    carried = [(own, u) for own, u, _ in states]
                    fresh = sum(n for _, _, n in states)
                    propagated += fresh
                    reused += mc_seeds * plan.size - fresh
                    errs = np.array([rel_error_for(u) for _, u in carried])
                    row = {
                        "value": value, "N": plan.size,
                        "rel_error": float(errs.mean()),
                        "stderr": float(errs.std(ddof=1) / np.sqrt(len(errs))),
                        "wall_s": time.perf_counter() - t0,
                        "status": "ok",
                        "replica_errors": errs.tolist(),
                    }
                else:
                    row = {
                        "value": value, "N": plan.size,
                        "rel_error": rel_error_for(lchs_apply(problem, plan, cfg.T)),
                        "stderr": 0.0, "wall_s": time.perf_counter() - t0,
                        "status": "ok",
                    }
            except LchsError as exc:
                carried = [None] * mc_seeds
                row = {
                    "value": value, "N": 0, "rel_error": float("nan"),
                    "stderr": float("nan"), "wall_s": time.perf_counter() - t0,
                    "status": f"error:{type(exc).__name__}:{exc}",
                }
            result.rows.append(row)
    if cfg.method == "monte-carlo":
        _log.debug(
            "monte carlo sweep: axis=%s rows=%d replicas=%d terms propagated=%d reused=%d",
            axis, len(values), mc_seeds, propagated, reused,
        )

    good = [(r["value"], r["rel_error"]) for r in result.rows
            if r["status"] == "ok" and r["rel_error"] > 0]
    if len(good) >= 4:
        try:
            result.fit = fit_scaling([g[0] for g in good], [g[1] for g in good])
        except FitError:
            result.fit = None
    if cfg.output:
        _atomic_write(os.path.join(cfg.output, f"sweep_{axis}.csv"), result.to_csv())
    return result
