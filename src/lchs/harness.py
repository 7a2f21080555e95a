"""Run configuration, sweep drivers, scaling fits, and report emission.

Configs are JSON documents validated against a published schema. Reports are
written deterministically (identical config and seed give byte-identical
bytes); wall-clock timings go to a separate timing file so they never perturb
the report itself. All files are written atomically (temp + rename).

A convergence sweep sizes one plan per axis value and runs every row
through one replica routine, on the calling thread: one replica for a
Gaussian config, mc_seeds for a Monte Carlo one, each of which draws only
the terms its carried sum does not hold yet. SWEEP_AXES is the one table of sweep axes and the
type of their values; an axis is eps or a key of the config's accuracy.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import math
import os
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BuildError, ConfigError, FitError, LchsError, RangeError
from .evolve import ProblemInstance, SolveReport, _PreparedSum, oracle_solve, solve
from .kernels import DEFAULT_BETA, DEFAULT_FAMILY, KernelSpec, choose_truncation, make_kernel
from .problems import (
    LindbladSpec,
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
    _mc_terms,
    composite_plan,
    mc_plan,
    mc_size_from_accuracy,
    plan_from_accuracy,
)

_log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

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
                                "seed": {"type": "integer", "minimum": 0}}},
                {"required": ["K", "M", "Q"], "additionalProperties": False,
                 "properties": {"K": {"type": "number", "exclusiveMinimum": 0},
                                "M": {"type": "integer", "minimum": 1},
                                "Q": {"type": "integer", "minimum": 1}}},
                {"required": ["K", "Ns", "seed"], "additionalProperties": False,
                 "properties": {"K": {"type": "number", "exclusiveMinimum": 0},
                                "Ns": {"type": "integer", "minimum": 1},
                                "seed": {"type": "integer", "minimum": 0}}},
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
                "rel_error": {"type": ["number", "null"], "minimum": 0},
                "abs_error": {"type": "number", "minimum": 0},
                "plan_size": {"type": "integer", "minimum": 1},
                "propagator_steps": {"type": "integer", "minimum": 1},
                "shift_unwound": {"type": "boolean"},
                "norm_ratio": {"type": ["number", "null"], "minimum": 0},
                "eps_met": {"type": "boolean"},
            },
        },
    },
}


@functools.cache
def _validator(what: str):
    """The validator of the "config" or "report" schema, built on first use
    and kept. jsonschema is imported here, not with the module, so that
    importing lchs and solving load none of it. Built once, because
    jsonschema.validate checks the schema itself against the 2020-12
    metaschema on every call, which costs far more than the document."""
    import jsonschema

    return jsonschema.Draft202012Validator({"config": CONFIG_SCHEMA, "report": REPORT_SCHEMA}[what])


def _check_schema(document: dict, what: str) -> None:
    """Validate document against the schema named what ("config" or
    "report"); a violation is a ConfigError whose pointer is the JSON pointer
    of the offending value. The error reported is best_match's, the one
    jsonschema.validate raises."""
    import jsonschema

    exc = jsonschema.exceptions.best_match(_validator(what).iter_errors(document))
    if exc is not None:
        pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
        raise ConfigError(f"{what} invalid at {pointer}: {exc.message}", pointer=pointer)


def validate_report(payload: dict) -> None:
    """Check an emitted report document against the published schema."""
    _check_schema(payload, "report")


def _check_finite(value, pointer: str = "") -> None:
    """Raise ConfigError at the pointer of the first NaN or infinity in a
    document. JSON has no such numbers, and the schema's number type admits
    them, so they are rejected before it is read."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(
            f"config invalid at {pointer}: {value} is not a JSON number", pointer=pointer
        )
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        _check_finite(item, f"{pointer}/{key}")


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
        """Reject NaN and infinities, then validate d against CONFIG_SCHEMA,
        and an explicit plan in accuracy against the method: {K, M, Q} is
        Gaussian, {K, Ns, seed} Monte Carlo."""
        _check_finite(d)
        _check_schema(d, "config")
        acc = d["accuracy"]
        if "eps" not in acc and ("M" in acc) != (d["method"] == "gaussian"):
            raise ConfigError(
                f"{d['method']} method cannot take {{{', '.join(sorted(acc))}}} accuracy",
                "/accuracy",
            )
        kernel = d.get("kernel", {"family": DEFAULT_FAMILY, "beta": DEFAULT_BETA})
        try:
            make_kernel(kernel["family"], kernel.get("beta"))
        except RangeError as exc:  # the schema bounds beta, so only a cauchy beta is left
            raise ConfigError(f"config invalid at /kernel/beta: {exc}", "/kernel/beta") from exc
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
        """Read a JSON config and validate it with from_dict."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        return RunConfig.from_dict(data)

    def to_dict(self) -> dict:
        """As a JSON document without the output and emit fields: the config
        echoed into a report, which must be byte-stable regardless of where
        it is written."""
        kernel = {"family": self.kernel_family}
        if self.kernel_beta is not None:
            kernel["beta"] = self.kernel_beta
        return {
            "schema_version": SCHEMA_VERSION,
            "problem": {"name": self.problem_name, "params": self.problem_params},
            "kernel": kernel,
            "method": self.method,
            "accuracy": self.accuracy,
            "T": self.T,
        }


# Every key each builder reads from a params block, with its default (None
# where there is none). A key is the builder's keyword argument of the same
# name (lindblad's are read into a LindbladSpec). build_problem rejects any
# other key, so a misspelt parameter cannot silently fall back to its default.
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
        "packet": None,
    },
    # either the preset (preset, gamma) or a custom spec (H, jumps)
    "lindblad": {
        "preset": "amplitude-damping", "gamma": 1.0, "H": None, "jumps": None,
        "rho0": "excited",
    },
    "blackhole": {"H": {"diag": [1.0, -1.0]}, "gamma": 0.5},
}


def _param_error(key: str, why: str) -> ConfigError:
    return ConfigError(
        f"config invalid at /problem/params/{key}: {why}", pointer=f"/problem/params/{key}"
    )


def _read(p: dict, key: str, convert=float):
    """convert(p[key]). A value convert cannot take (a string for a number,
    a preset missing a field or of unknown kind, a malformed matrix spec, a
    domain that is not two numbers) raises ConfigError with pointer
    /problem/params/<key>."""
    try:
        return convert(p[key])
    except (AttributeError, BuildError, KeyError, TypeError, ValueError) as exc:
        raise _param_error(key, f"cannot read {p[key]!r}: {type(exc).__name__}: {exc}") from exc


def _exact(value, cast=int):
    """cast(value) when the cast leaves the value unchanged (2.0 -> 2). A
    value the cast would change (2.5 -> 2) or cannot take raises ValueError,
    so nothing is truncated. The rule for integer params and sweep axes."""
    try:
        typed = cast(value)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{value!r} is not an exact {cast.__name__}") from exc
    if typed != value:
        raise ValueError(f"{value!r} is not an exact {cast.__name__}")
    return typed


def _packet(spec) -> dict | None:
    """cap's packet block as floats; null or {} keeps every default. A key
    other than x0, sigma and p0 raises ValueError, so a misspelt key cannot
    fall back to its default."""
    if not spec:
        return None
    unknown = sorted(set(spec) - {"x0", "sigma", "p0"})
    if unknown:
        raise ValueError(f"packet has no key {unknown[0]!r} (it reads p0, sigma, x0)")
    return {key: float(value) for key, value in spec.items()}


def _parse_matrix(spec) -> np.ndarray:
    if isinstance(spec, dict) and "diag" in spec:
        return np.diag(np.asarray(spec["diag"], dtype=float)).astype(complex)
    if isinstance(spec, dict) and "re" in spec:
        M = np.asarray(spec["re"], dtype=float).astype(complex)
        if "im" in spec:
            M = M + 1j * np.asarray(spec["im"], dtype=float)
        return M
    raise BuildError(f"cannot parse matrix spec {spec!r}")


def _interval(spec) -> tuple:
    lo, hi = spec
    return float(lo), float(hi)


def _parse_vi(spec) -> object:
    if isinstance(spec, dict) and "layer" in spec:
        layer = spec["layer"]
        return absorbing_layer(*(float(layer[key]) for key in ("depth", "x_lo", "x_hi")))
    fn = preset_callable(spec)
    return lambda x: fn(x, 0.0)


# The builder of every problem but lindblad: each key of its params block is
# the builder's keyword argument of the same name.
_BUILDERS = {
    "parabolic1d": build_parabolic_1d, "mm1": build_mm1, "mmc": build_mmc,
    "cap": build_cap_schrodinger, "blackhole": build_blackhole,
}

# The reader of each params key that is not a plain float. A key means the
# same thing in every builder that takes it, so it has one reader.
_CONVERT = {
    **dict.fromkeys(("a", "b", "c", "V_R"), preset_callable),
    **dict.fromkeys(("N_grid", "n_trunc", "servers"), _exact),
    "V_I": _parse_vi, "domain": _interval, "packet": _packet, "H": _parse_matrix,
}


def _lindblad_spec(given: dict, p: dict) -> LindbladSpec:
    """The custom spec when the block names H, else the named preset."""
    if given.get("H") is not None:
        for key in ("preset", "gamma"):
            if key in given:
                raise _param_error(key, f"lindblad takes {key!r} or 'H', not both")
        jumps = _read(p, "jumps", lambda js: [_parse_matrix(j) for j in js or []])
        return LindbladSpec(H_sys=_read(p, "H", _parse_matrix), jump_ops=jumps)
    if given.get("jumps") is not None:
        raise _param_error("jumps", "lindblad 'jumps' needs 'H'")
    if p["preset"] != "amplitude-damping":
        raise _param_error("preset", f"unknown lindblad preset {p['preset']!r}")
    return amplitude_damping_spec(_read(p, "gamma"))


def build_problem(name: str, params: dict | None = None) -> ProblemInstance:
    """Instantiate a named problem from a JSON-style parameter block.

    Keys missing from the block take their DEFAULT_PARAMS value. Every
    problem but lindblad passes the block to its builder as keyword
    arguments, each value read by its _CONVERT reader (float by default),
    and the builder checks the values' ranges. A key the
    builder does not read raises ConfigError with pointer
    /problem/params/<key>; so does T, since the horizon is the config's
    top-level T only, and so does null for a key whose default is not null.
    The exception is lindblad's rho0, whose null means the mixed state.
    """
    if name not in DEFAULT_PARAMS:
        raise BuildError(f"unknown problem {name!r}")
    given = params or {}
    unknown = sorted(set(given) - set(DEFAULT_PARAMS[name]))
    if unknown:
        raise _param_error(
            unknown[0],
            f"{name} has no parameter {unknown[0]!r} "
            f"(it reads {', '.join(sorted(DEFAULT_PARAMS[name]))})",
        )
    for key, value in given.items():
        if value is None and DEFAULT_PARAMS[name][key] is not None and key != "rho0":
            raise _param_error(key, f"{name} parameter {key!r} cannot be null")
    p = {**DEFAULT_PARAMS[name], **given}
    if name != "lindblad":
        return _BUILDERS[name](**{key: _read(p, key, _CONVERT.get(key, float)) for key in p})
    spec = _lindblad_spec(given, p)
    n = spec.H_sys.shape[0]
    rho0 = p["rho0"]
    if rho0 == "excited":
        rho = np.zeros((n, n), dtype=complex)
        rho[n - 1, n - 1] = 1.0
    elif rho0 is None or rho0 == "mixed":
        rho = None
    else:
        rho = _read(p, "rho0", _parse_matrix)
    return build_lindblad(spec, rho0=rho)


def _mc_size(cfg: RunConfig, kernel: KernelSpec) -> tuple[float, int]:
    """(K, Ns) of a Monte Carlo config's plan, sized from its eps or as given."""
    acc = cfg.accuracy
    if "eps" in acc:
        eps = float(acc["eps"])
        K = choose_truncation(kernel, eps / 3.0).K
        return K, mc_size_from_accuracy(eps / 3.0, K)
    return float(acc["K"]), int(acc["Ns"])


def make_plan(cfg: RunConfig, problem: ProblemInstance, kernel: KernelSpec) -> SamplingPlan:
    """Build the sampling plan a config describes, accuracy-driven or explicit."""
    acc = cfg.accuracy
    if cfg.method == "gaussian":
        if "eps" in acc:
            normL = float(problem.meta["normL"])
            return plan_from_accuracy(kernel, float(acc["eps"]), cfg.T, normL)
        return composite_plan(kernel, float(acc["K"]), int(acc["M"]), int(acc["Q"]))
    plan = mc_plan(kernel, *_mc_size(cfg, kernel), int(acc.get("seed", 0)))
    if "eps" in acc:
        plan.meta["eps"] = float(acc["eps"])
    return plan


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

    For an eps-driven config the report's eps_met says whether the measured
    error meets the contract abs_error <= eps ||u0||. Into the output
    directory, emit "json" writes report.json (deterministic) and
    timing.json (wall clock), and emit "csv" writes plan.csv, the (k, |c|)
    table.
    """
    problem = build_problem(cfg.problem_name, cfg.problem_params)
    kernel = make_kernel(cfg.kernel_family, cfg.kernel_beta)
    plan = make_plan(cfg, problem, kernel)
    report = solve(problem, plan, cfg.T)
    if "eps" in cfg.accuracy:
        bound = float(cfg.accuracy["eps"]) * float(np.linalg.norm(problem.u0))
        report.eps_met = report.abs_error <= bound
    if cfg.output and "json" in cfg.emit:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": cfg.to_dict(),
            "label": problem.label,
            "plan": _plan_summary(plan),
            "report": report.to_dict(),
        }
        validate_report(payload)
        _atomic_write(
            os.path.join(cfg.output, "report.json"),
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        )
        _atomic_write(
            os.path.join(cfg.output, "timing.json"),
            json.dumps(
                {"wall_times_s": report.wall_times}, indent=2, sort_keys=True, allow_nan=False
            ) + "\n",
        )
    if cfg.output and "csv" in cfg.emit:
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
    """Threads a sweep runs on: 1. Every sweep runs its rows and replicas on
    the calling thread."""
    return 1


# every sweep axis and the type of its values
SWEEP_AXES = {"Q": int, "M": int, "Ns": int, "K": float, "eps": float}


def _axis_value(axis: str, value):
    """value as its axis's SWEEP_AXES type. A value the cast would change
    (2.5 on an int axis) or cannot take is a ConfigError, never truncated."""
    cast = SWEEP_AXES[axis]
    try:
        return _exact(value, cast)
    except ValueError:
        raise ConfigError(f"axis {axis} takes {cast.__name__} values, got {value!r}") from None


def _extends(key: tuple, size: int, prev) -> bool:
    """True when a row's plan of this carry key and size extends prev's, the
    (key, size, estimate) a replica carries from its last good row: the same
    key and no more terms. A Monte Carlo key is K: the Philox stream is
    counter-based, so a plan of the same K, seed and generator starts with
    the terms of any smaller one. A Gaussian key is (K, M, Q): a composite
    plan ascends and mirrors, so it extends only an identical plan."""
    return prev is not None and prev[0] == key and prev[1] <= size


def run_convergence(
    cfg: RunConfig, axis: str, values, mc_seeds: int = 20
) -> SweepResult:
    """One row per axis value, each against a shared oracle.

    The axis is eps or a key of the config's accuracy block, and its values
    take the SWEEP_AXES type of the axis. Every row runs one replica routine:
    a Gaussian row has one replica, a Monte Carlo row mc_seeds >= 2 replicas
    (seed, seed+1, ...), run one after another on the calling thread. A row
    reports each replica's relative error in replica_errors, their mean as
    rel_error and its standard error as stderr (0 for one replica).

    Each replica carries its estimate from its last good row. When the
    row's plan extends that row's, only the new terms are drawn and
    propagated and the carried estimate is rescaled to the new size; a
    repeated value adds no terms. A Monte Carlo plan extends one of the same
    K and no more terms (as along the Ns axis): its Philox stream is
    counter-based, so the new terms [n0, Ns) are drawn by skipping the
    carried ones, and g is evaluated on them only. A Gaussian row builds its
    full plan, which extends only an identical one (same K, M and Q), so it
    reuses a row only for a repeated value. Ns rows therefore share their
    draws, their propagation and their correlation, and the wall_s of a
    carried row is its own increment and reduction. Any other row starts
    from its full plan. The schedule is analysed once per sweep, by the
    first row that reaches its sums, and every row and replica shares that
    analysis. One DEBUG record on lchs.harness per sweep counts the terms
    propagated and reused, the analyses made and the draws: the kernel
    evaluations g(k) of the plans the sweep built.

    Rows that fail are marked with NaN errors and a status note, the carried
    estimates are dropped, and the sweep continues from the next row's full
    plan.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    if axis != "eps" and axis not in cfg.accuracy:
        raise ConfigError(f"axis {axis} needs {axis} in the config's accuracy", "/accuracy")
    values = [_axis_value(axis, value) for value in values]
    if len(values) < 4:
        raise ConfigError(f"need >= 4 axis values, got {len(values)}")
    if sorted(values) != values:
        raise ConfigError("axis values must be sorted ascending")
    monte_carlo = cfg.method == "monte-carlo"
    if monte_carlo and mc_seeds < 2:
        raise ConfigError(
            f"a monte-carlo sweep needs mc_seeds >= 2 for its standard error, got {mc_seeds}"
        )
    replicas = mc_seeds if monte_carlo else 1

    problem = build_problem(cfg.problem_name, cfg.problem_params)
    kernel = make_kernel(cfg.kernel_family, cfg.kernel_beta)
    u_ref = oracle_solve(problem, cfg.T)
    ref_norm = np.linalg.norm(u_ref)
    base_seed = int(cfg.accuracy.get("seed", 0))

    def replica(seed: int, key: tuple, size: int, draw, prev):
        """(key, size, estimate) of the replica of this seed in a row whose
        plan has carry key key and size terms, and the terms it propagated.
        prev is the replica's (key, size, estimate) from the last good row,
        or None. draw(seed, start) gives the row's terms [start, size) for
        this seed. When the row's plan extends prev's (_extends), only the
        new terms are drawn and propagated: a Monte Carlo c_j is
        (2K/Ns) g(k_j), so the shared terms sum to prev's estimate rescaled
        to this row's Ns, and the shift unwinding is a scalar. A Gaussian
        plan extends only an identical one, whose rescale factor is exactly
        1."""
        n0 = prev[1] if _extends(key, size, prev) else 0
        if n0 == 0:
            u = prepared.apply(draw(seed, 0))
        else:
            u = (n0 / size) * prev[2]
            if size > n0:
                u = u + prepared.apply(draw(seed, n0))
        return (key, size, u), size - n0

    # per replica, the (key, size, estimate) of the last good row
    carried = [None] * replicas
    propagated = reused = draws = 0
    prepared = None
    result = SweepResult(axis=axis)
    for value in values:
        t0 = time.perf_counter()
        try:
            row_cfg = replace(cfg, accuracy={"eps": value, "seed": base_seed} if axis == "eps"
                              else {**cfg.accuracy, axis: value})
            if monte_carlo:
                K, size = _mc_size(row_cfg, kernel)
                key, draw = (K,), functools.partial(_mc_terms, kernel, K, size)
            else:
                plan = make_plan(row_cfg, problem, kernel)
                key, size = (plan.K, plan.meta["M"], plan.meta["Q"]), plan.size
                draw = lambda seed, start: plan
                # composite_plan evaluates g on the k > 0 half
                draws += size // 2
            prepared = prepared or _PreparedSum(problem, cfg.T)
            states = [
                replica(base_seed + i, key, size, draw, prev) for i, prev in enumerate(carried)
            ]
            carried = [state for state, _ in states]
            fresh = sum(n for _, n in states)
            propagated += fresh
            reused += replicas * size - fresh
            if monte_carlo:
                draws += fresh
            errs = np.array([np.linalg.norm(u - u_ref) / ref_norm for _, _, u in carried])
            row = {
                "value": value, "N": size,
                "rel_error": float(errs.mean()),
                "stderr": float(errs.std(ddof=1) / np.sqrt(replicas)) if replicas > 1 else 0.0,
                "wall_s": time.perf_counter() - t0,
                "status": "ok",
                "replica_errors": errs.tolist(),
            }
        except LchsError as exc:
            carried = [None] * replicas
            row = {
                "value": value, "N": 0, "rel_error": float("nan"),
                "stderr": float("nan"), "wall_s": time.perf_counter() - t0,
                "status": f"error:{type(exc).__name__}:{exc}",
            }
        result.rows.append(row)
    _log.debug(
        "sweep: axis=%s rows=%d replicas=%d terms propagated=%d reused=%d analyses=%d "
        "draws=%d",
        axis, len(values), replicas, propagated, reused, prepared is not None, draws,
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
