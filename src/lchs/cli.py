"""Command-line interface.

Subcommands:
  solve <config.json>              run one solve, write report files
  converge <config.json> --axis A --values v1,v2,...
                                   convergence sweep along one axis: eps or
                                   a key of the config's accuracy; Q, M and
                                   Ns take integers, K and eps numbers
  validate-kernel --family F [--beta B]
                                   normalization/decay/truncation checks
  lemma-check <config.json>        vanishing f-weighted sum over the plans
                                   of an eps ladder
  list-problems                    builders and their default parameters

Global option -v/--verbose sends the lchs loggers' records, DEBUG and up, to
stderr; stdout and the report files are the same with or without it.

Exit codes: 0 success, 2 config error, 3 build error, 4 solve/numeric error,
including an eps-driven solve whose measured error exceeds eps ||u0|| (its
report is written first).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import harness
from .errors import BuildError, ConfigError, LchsError, RangeError
from .evolve import _PreparedSum, residual_lemma_check
from .kernels import check_normalization, choose_truncation, kernel_f, make_kernel
from .sampling import plan_from_accuracy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUILD = 3
EXIT_SOLVE = 4


def _cmd_solve(args) -> int:
    cfg = harness.RunConfig.from_file(args.config)
    report = harness.run_solve(cfg)
    print(
        f"{cfg.problem_name}: rel_error={report.rel_error:.6e} "
        f"abs_error={report.abs_error:.6e} N={report.plan_size} "
        f"steps={report.propagator_steps} shift_unwound={report.shift_unwound}"
    )
    if cfg.output:
        print(f"report written to {os.path.join(cfg.output, 'report.json')}")
    if report.eps_met is False:
        print(
            f"solve error: accuracy not met: abs_error={report.abs_error:.6e} "
            f"exceeds eps={cfg.accuracy['eps']:g} times ||u0||",
            file=sys.stderr,
        )
        return EXIT_SOLVE
    return EXIT_OK


def _cmd_converge(args) -> int:
    cfg = harness.RunConfig.from_file(args.config)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
    result = harness.run_convergence(cfg, args.axis, values, mc_seeds=args.seeds)
    for row in result.rows:
        print(
            f"{args.axis}={row['value']}: N={row['N']} "
            f"rel_error={row['rel_error']:.6e} stderr={row['stderr']:.3e} [{row['status']}]"
        )
    if result.fit is not None:
        print(
            f"fit: slope={result.fit.slope:.4f} +- {result.fit.slope_stderr:.4f} "
            f"(resid stderr {result.fit.resid_stderr:.3f})"
        )
    if cfg.output:
        print(f"rows written to {os.path.join(cfg.output, f'sweep_{args.axis}.csv')}")
    return EXIT_OK


def _cmd_validate_kernel(args) -> int:
    try:
        spec = make_kernel(args.family, args.beta)
    except RangeError as exc:  # --beta is range-checked when parsed: a cauchy --beta is left
        raise ConfigError(f"--beta: {exc}") from exc
    residual = check_normalization(spec)
    print(f"family={spec.family} beta={spec.beta}")
    print(f"normalization residual   = {residual:.3e}  (must be <= 1e-10)")
    grid = np.logspace(0, 6, 13)
    decay_sup = float(np.max(grid * np.abs(kernel_f(spec, grid))))
    print(f"sup |k|*|f(k)| on [1, 1e6] = {decay_sup:.6g}  (finite => decay holds)")
    for eps in (1e-2, 1e-4, 1e-6):
        t = choose_truncation(spec, eps)
        print(f"K({eps:.0e}) = {t.K:.4g}  certified tail {t.epsilon_tail:.3e}")
    if residual > 1e-10:
        print("FAIL: normalization residual above tolerance", file=sys.stderr)
        return EXIT_SOLVE
    return EXIT_OK


def _cmd_lemma_check(args) -> int:
    cfg = harness.RunConfig.from_file(args.config)
    problem = harness.build_problem(cfg.problem_name, cfg.problem_params)
    kernel = make_kernel(cfg.kernel_family, cfg.kernel_beta)
    eps_levels = np.logspace(-1, -args.levels, args.levels)
    print(f"instance {problem.label}, T={cfg.T}, lambda0={problem.lambda0:.4g}")
    prepared = _PreparedSum(problem, cfg.T)  # the schedule is analysed once for every level
    residuals = []
    for eps in eps_levels:
        plan = plan_from_accuracy(kernel, float(eps), cfg.T, float(problem.meta["normL"]))
        res = residual_lemma_check(prepared, plan, cfg.T)
        M, Q = plan.meta["M"], plan.meta["Q"]
        print(f"eps={eps:.1e}: K={plan.K:.4g} M={M} Q={Q} residual={res:.6e}")
        residuals.append(res)
    monotone = all(b <= 1.1 * a for a, b in zip(residuals, residuals[1:]))
    decreased = residuals[-1] < residuals[0]
    # the truncated integral oscillates with K, so pointwise monotonicity can
    # fail while the envelope still decays; overall decrease is the check
    print(f"monotone within 10% slack: {monotone}; overall decrease: {decreased}")
    return EXIT_OK if decreased else EXIT_SOLVE


def _cmd_list_problems(args) -> int:
    for name, params in harness.DEFAULT_PARAMS.items():
        print(f"{name}: defaults {json.dumps(params)}")
    return EXIT_OK


def _levels(text: str) -> int:
    """--levels as an int of at least 2: a residual can only decrease
    between two levels."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"levels must be an integer, got {text!r}") from None
    if n < 2:
        raise argparse.ArgumentTypeError(f"needs at least 2 levels, got {n}")
    return n


def _beta(text: str) -> float:
    """--beta as a beta-family exponent, which must lie in (0, 1) as in the
    config schema: a value outside is bad usage, not a solve error."""
    try:
        return make_kernel("beta", float(text)).beta
    except ValueError:
        raise argparse.ArgumentTypeError(f"beta must be a number, got {text!r}") from None
    except RangeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lchs",
        description="Simulate du/dt = -A(t)u as a weighted combination of unitary evolutions.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log the lchs package at DEBUG to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solve from a JSON config")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("converge", help="convergence sweep along one axis")
    p.add_argument("config")
    p.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated ascending values")
    p.add_argument("--seeds", type=int, default=20,
                   help="MC replicas per value, at least 2 (for the standard error)")
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("validate-kernel", help="kernel normalization and decay checks")
    p.add_argument("--family", required=True, choices=["cauchy", "beta"])
    p.add_argument("--beta", type=_beta, default=None, help="beta kernel exponent in (0, 1)")
    p.set_defaults(fn=_cmd_validate_kernel)

    p = sub.add_parser("lemma-check", help="f-weighted sum must vanish under refinement")
    p.add_argument("config")
    p.add_argument("--levels", type=_levels, default=4,
                   help="eps levels 1e-1 .. 1e-N, N at least 2")
    p.set_defaults(fn=_cmd_lemma_check)

    p = sub.add_parser("list-problems", help="builders and default parameters")
    p.set_defaults(fn=_cmd_list_problems)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return EXIT_CONFIG if exc.code else EXIT_OK
    logger, handler = logging.getLogger("lchs"), None
    level = logger.level
    if args.verbose:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s %(levelname)s: %(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BuildError as exc:
        print(f"build error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except LchsError as exc:
        print(f"solve error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    finally:
        # main may run more than once in a process (tests, embedding callers)
        if handler is not None:
            logger.removeHandler(handler)
            logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
