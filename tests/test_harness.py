import inspect
import json
import logging
import os
import re
import subprocess
import sys
import textwrap
import warnings

import jsonschema
import numpy as np
import pytest

import lchs.evolve as ev
from lchs import (
    ConfigError,
    FitError,
    ProblemInstance,
    PropagationError,
    RangeError,
    composite_plan,
    harness,
    hermitian_split,
    lchs_apply,
    make_kernel,
    mc_plan,
    oracle_solve,
    plan_from_accuracy,
    residual_lemma_check,
)
from lchs.cli import EXIT_BUILD, EXIT_CONFIG, EXIT_OK, EXIT_SOLVE, main
from lchs.harness import (
    CONFIG_SCHEMA,
    DEFAULT_PARAMS,
    REPORT_SCHEMA,
    RunConfig,
    build_problem,
    fit_scaling,
    run_convergence,
    run_solve,
    validate_report,
    worker_count,
)
from lchs.problems import preset_callable


def base_config(tmp_path=None, **overrides):
    cfg = {
        "schema_version": 1,
        "problem": {"name": "blackhole", "params": {"H": {"diag": [1.0, -1.0]}, "gamma": 0.5}},
        "kernel": {"family": "beta", "beta": 0.75},
        "method": "gaussian",
        "accuracy": {"eps": 1e-4},
        "T": 1.0,
    }
    if tmp_path is not None:
        cfg["output"] = str(tmp_path)
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_valid_round_trip(self):
        cfg = RunConfig.from_dict(base_config())
        assert cfg.problem_name == "blackhole"
        assert cfg.accuracy == {"eps": 1e-4}
        RunConfig.from_dict(cfg.to_dict())  # re-validates

    def test_eps_and_explicit_are_exclusive(self):
        bad = base_config(accuracy={"eps": 1e-4, "M": 8})
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(bad)
        assert "accuracy" in err.value.pointer

    def test_missing_required_field(self):
        bad = base_config()
        del bad["T"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)

    def test_unknown_problem_rejected(self):
        bad = base_config()
        bad["problem"]["name"] = "mystery"
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(bad)
        assert "problem" in err.value.pointer

    def test_negative_T_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(T=-1.0))

    def test_explicit_mc_accuracy(self):
        cfg = RunConfig.from_dict(
            base_config(method="monte-carlo", accuracy={"K": 5.0, "Ns": 100, "seed": 3})
        )
        assert cfg.method == "monte-carlo"

    @pytest.mark.parametrize("method, accuracy", [
        ("gaussian", {"K": 5.0, "Ns": 100, "seed": 3}),
        ("monte-carlo", {"K": 5.0, "M": 8, "Q": 2}),
    ])
    def test_explicit_plan_must_match_method(self, method, accuracy):
        # rejected with the config, so a sweep never fails row by row on it
        with pytest.raises(ConfigError, match=f"{method} method cannot take") as err:
            RunConfig.from_dict(base_config(method=method, accuracy=accuracy))
        assert err.value.pointer == "/accuracy"


    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("pointer", [
        "/T", "/accuracy/K", "/accuracy/eps", "/kernel/beta",
        "/problem/params/gamma", "/problem/params/H/diag/0",
    ])
    def test_non_finite_number_rejected_at_its_pointer(self, pointer, value):
        # the schema's number type admits NaN and infinities; none may reach
        # a builder or the propagation
        cfg = base_config()
        if pointer == "/accuracy/K":
            cfg["accuracy"] = {"K": 8.0, "M": 4, "Q": 4}
        *path, last = pointer[1:].split("/")
        node = cfg
        for key in path:
            node = node[key]
        node[int(last) if isinstance(node, list) else last] = value
        with pytest.raises(ConfigError, match="is not a JSON number") as err:
            RunConfig.from_dict(cfg)
        assert err.value.pointer == pointer

    def test_cauchy_kernel_takes_no_beta(self):
        # the cauchy family has no exponent: a beta next to it would be
        # echoed into report.json although the solve never reads it
        with pytest.raises(ConfigError, match="cauchy family takes no beta, got 0.5") as err:
            RunConfig.from_dict(base_config(kernel={"family": "cauchy", "beta": 0.5}))
        assert err.value.pointer == "/kernel/beta"
        cfg = RunConfig.from_dict(base_config(kernel={"family": "cauchy"}))
        assert (cfg.kernel_family, cfg.kernel_beta) == ("cauchy", None)

    @pytest.mark.parametrize("schema", [CONFIG_SCHEMA, REPORT_SCHEMA], ids=["config", "report"])
    def test_schema_is_valid_2020_12(self, schema):
        # the prebuilt validators never check the schema itself
        jsonschema.Draft202012Validator.check_schema(schema)

    @pytest.mark.parametrize("overrides", [
        {"T": -1.0},
        {"method": "simpson"},
        {"accuracy": {"eps": 1e-4, "M": 8}},
        {"kernel": {"family": "beta", "beta": "0.75"}},
        {"problem": {"name": "mystery", "params": {}}},
        {"schema_version": 2, "T": "one"},
    ])
    def test_error_is_the_one_jsonschema_validate_raises(self, overrides):
        cfg = base_config(**overrides)
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(cfg, CONFIG_SCHEMA)
        pointer = "/" + "/".join(str(p) for p in reference.value.absolute_path)
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(cfg)
        assert str(err.value) == f"config invalid at {pointer}: {reference.value.message}"
        assert err.value.pointer == pointer

    def test_solve_path_loads_no_schema_library(self):
        # a plan and one weighted sum on cap, in a fresh interpreter: the
        # validators are built on first use, so jsonschema stays unloaded
        script = textwrap.dedent("""
            import sys
            import lchs
            from lchs.harness import build_problem
            kernel = lchs.make_kernel("beta", 0.75)
            p = build_problem("cap", {})
            plan = lchs.plan_from_accuracy(kernel, 1e-4, 0.25, p.meta["normL"])
            lchs.lchs_apply(p, plan, 0.25)
            print("jsonschema" in sys.modules)
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == ["False"]


class TestBuildProblem:
    def test_defaults_build(self):
        for name in DEFAULT_PARAMS:
            build_problem(name).require_gate()

    def test_param_override(self):
        inst = build_problem("mm1", {"n_trunc": 8})
        assert inst.dim == 8

    @pytest.mark.parametrize("name", sorted(harness._BUILDERS))
    def test_params_are_builder_keywords(self, name):
        # build_problem passes the block straight to the builder
        parameters = inspect.signature(harness._BUILDERS[name]).parameters
        keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        for key in DEFAULT_PARAMS[name]:
            assert key in parameters and parameters[key].kind in keyword, key

    def test_shared_key_has_one_reader(self):
        # _CONVERT reads a key alike for every builder, so every builder
        # that takes the key declares it alike, and no reader is stale
        takers = {}
        for name, builder in harness._BUILDERS.items():
            for key in DEFAULT_PARAMS[name]:
                param = inspect.signature(builder).parameters[key]
                takers.setdefault(key, set()).add(param.annotation)
        assert {key for key, kinds in takers.items() if len(kinds) > 1} == set()
        assert set(harness._CONVERT) <= set(takers)

    def test_parabolic_presets(self):
        inst = build_problem(
            "parabolic1d",
            {"a": 1.0, "b": {"kind": "constant", "value": 2.0}, "c": 0.0, "N_grid": 9},
        )
        assert np.max(np.abs(inst.schedule.pairs[0].H)) > 0

    def test_params_T_rejected(self, tmp_path, capsys):
        cfg = base_config(problem={"name": "parabolic1d", "params": {"T": 0.5}})
        with pytest.raises(ConfigError) as err:
            run_solve(RunConfig.from_dict(cfg))
        assert err.value.pointer == "/problem/params/T"
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "params/T" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(DEFAULT_PARAMS))
    def test_unknown_param_rejected(self, name):
        with pytest.raises(ConfigError) as err:
            build_problem(name, {**DEFAULT_PARAMS[name], "N_gird": 9})
        assert err.value.pointer == "/problem/params/N_gird"

    @pytest.mark.parametrize("name", sorted(DEFAULT_PARAMS))
    def test_default_params_accepted(self, name):
        inst = build_problem(name, DEFAULT_PARAMS[name])
        inst.require_gate()
        assert inst.lambda0 == build_problem(name).lambda0

    @pytest.mark.parametrize("name", ["parabolic1d", "cap"])
    def test_time_slices_rejected(self, name):
        # every config preset ignores t, so slices could only repeat one pair
        with pytest.raises(ConfigError) as err:
            build_problem(name, {"time_slices": 2})
        assert err.value.pointer == "/problem/params/time_slices"

    def test_lindblad_custom_spec(self):
        # three-level decay cascade |2> -> |1> -> |0>
        lower = {"re": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]}
        inst = build_problem("lindblad", {"H": {"diag": [0.0, 1.0, 2.5]}, "jumps": [lower]})
        assert inst.dim == 9
        assert inst.label == "lindblad(n=3,jumps=1)"
        rho = np.zeros((3, 3))
        rho[2, 2] = 1.0
        assert np.array_equal(inst.u0, rho.reshape(-1).astype(complex))

    @pytest.mark.parametrize("params, key", [
        ({"preset": "amplitude-damping", "H": {"diag": [0.0, 1.0]}}, "preset"),
        ({"gamma": 2.0, "H": {"diag": [0.0, 1.0]}}, "gamma"),
        ({"jumps": [{"diag": [0.0, 1.0]}]}, "jumps"),
        ({"preset": "dephasing"}, "preset"),
    ], ids=["preset-with-H", "gamma-with-H", "jumps-without-H", "unknown-preset"])
    def test_lindblad_spec_conflicts_rejected(self, params, key):
        with pytest.raises(ConfigError) as err:
            build_problem("lindblad", params)
        assert err.value.pointer == f"/problem/params/{key}"

    @pytest.mark.parametrize("name, key", [
        ("lindblad", "gamma"), ("lindblad", "preset"), ("mm1", "n_trunc"),
        ("mmc", "servers"), ("parabolic1d", "a"), ("blackhole", "H"),
    ])
    def test_null_for_defaulted_param_rejected(self, name, key, tmp_path, capsys):
        with pytest.raises(ConfigError) as err:
            build_problem(name, {key: None})
        assert err.value.pointer == f"/problem/params/{key}"
        cfg = base_config(problem={"name": name, "params": {key: None}})
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert f"/problem/params/{key}" in capsys.readouterr().err

    def test_null_where_null_has_a_meaning(self):
        # rho0: null is the mixed state; H, jumps and packet default to null
        mixed = build_problem("lindblad", {"rho0": None})
        assert np.array_equal(mixed.u0, build_problem("lindblad", {"rho0": "mixed"}).u0)
        assert build_problem("lindblad", {"H": None, "jumps": None}).label == \
            build_problem("lindblad", {}).label
        assert build_problem("cap", {"packet": None}).label == build_problem("cap").label

    @pytest.mark.parametrize("name, params, key", [
        ("parabolic1d", {"N_grid": "abc"}, "N_grid"),
        ("parabolic1d", {"a": "x"}, "a"),
        ("parabolic1d", {"a": {"kind": "polynomial"}}, "a"),
        ("cap", {"domain": [0, 1, 2]}, "domain"),
        ("mm1", {"lambda_rate": "fast"}, "lambda_rate"),
        ("cap", {"V_I": {"layer": {"depth": 5.0}}}, "V_I"),
        ("blackhole", {"H": [1, 2]}, "H"),
        ("blackhole", {"H": {"foo": 1}}, "H"),
        ("lindblad", {"H": {"diag": [0.0, 1.0]}, "jumps": [[0, 1]]}, "jumps"),
        ("lindblad", {"rho0": "pure"}, "rho0"),
        ("parabolic1d", {"a": {"kind": "mystery"}}, "a"),
        ("cap", {"V_I": {"layer": {"depth": -1.0, "x_lo": 0.7, "x_hi": 0.9}}}, "V_I"),
    ], ids=["N_grid-ValueError", "a-AttributeError", "a-KeyError", "domain-ValueError",
            "lambda_rate-TypeError", "V_I-KeyError", "H-list-BuildError",
            "H-unknown-key-BuildError", "jumps-BuildError", "rho0-BuildError",
            "a-unknown-kind-BuildError", "V_I-negative-depth-BuildError"])
    def test_malformed_param_exit_code(self, name, params, key, tmp_path, capsys):
        cfg = base_config(problem={"name": name, "params": params})
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert f"config error: config invalid at /problem/params/{key}: cannot read" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("name, key, value", [
        ("parabolic1d", "N_grid", 9.7), ("mm1", "n_trunc", 16.9), ("mmc", "servers", 2.5),
    ])
    def test_non_integral_int_param_rejected(self, name, key, value, tmp_path, capsys):
        # the rule of the int sweep axes: 9.0 reads as 9, 9.7 is not truncated
        with pytest.raises(ConfigError) as err:
            build_problem(name, {key: value})
        assert err.value.pointer == f"/problem/params/{key}"
        assert build_problem(name, {key: float(int(value))}).dim == \
            build_problem(name, {key: int(value)}).dim
        cfg = base_config(problem={"name": name, "params": {key: value}})
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert f"/problem/params/{key}" in capsys.readouterr().err

    def test_unknown_packet_key_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="x_0") as err:
            build_problem("cap", {"packet": {"x_0": 0.9}})
        assert err.value.pointer == "/problem/params/packet"
        default = build_problem("cap").u0
        assert not np.array_equal(build_problem("cap", {"packet": {"x0": 0.9}}).u0, default)
        assert np.array_equal(build_problem("cap", {"packet": {}}).u0, default)
        cfg = base_config(problem={"name": "cap", "params": {"packet": {"x_0": 0.9}}})
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "/problem/params/packet" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["blackhole", "lindblad"])
    def test_empty_matrix_exit_code(self, name, tmp_path, capsys):
        cfg = base_config(problem={"name": name, "params": {"H": {"diag": []}}})
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_SOLVE
        assert "solve error: DimensionError: expected a nonempty square matrix" in \
            capsys.readouterr().err

    def test_matrix_spec_with_imaginary_part(self):
        H = np.array([[1.0, 0.5j], [-0.5j, -1.0]])
        spec = {"re": H.real.tolist(), "im": H.imag.tolist()}
        pair = build_problem("blackhole", {"H": spec}).schedule.pairs[0]
        assert np.array_equal(pair.H, H)

    def test_rho0_as_matrix(self):
        rho = [[0.5, 0.5], [0.5, 0.5]]
        inst = build_problem("lindblad", {"rho0": {"re": rho}})
        assert np.array_equal(inst.u0, np.array(rho, dtype=complex).reshape(-1))

    @pytest.mark.parametrize("V_I", [
        -1.0, {"kind": "gaussian", "amplitude": -2.0, "center": 0.5, "width": 0.1},
    ], ids=["constant", "gaussian"])
    def test_cap_absorber_as_coefficient_preset(self, V_I):
        inst = build_problem("cap", {"V_I": V_I})
        fn = preset_callable(V_I)
        L = inst.schedule.pairs[0].L
        # L = -diag(V_I) / hbar plus the recorded shift, hbar = 1
        assert np.allclose(
            L.diagonal().real - inst.shift, [-fn(x, 0.0) for x in inst.meta["grid"]],
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("params, name", [
        ({"hbar": float("nan")}, "hbar"), ({"hbar": float("inf")}, "hbar"),
        ({"packet": {"sigma": 0}}, "packet sigma"), ({"packet": {"sigma": -0.05}}, "packet sigma"),
        ({"packet": {"x0": float("nan")}}, "packet x0"), ({"packet": {"p0": float("nan")}}, "packet p0"),
    ], ids=["hbar-nan", "hbar-inf", "sigma-0", "sigma-negative", "x0-nan", "p0-nan"])
    def test_cap_bad_scalar_named(self, params, name):
        # the builder names the parameter; numpy warns of nothing on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match=f"^{name} must be"):
                build_problem("cap", params)

    def test_unknown_param_exit_code(self, tmp_path, capsys):
        cfg = base_config(problem={"name": "mm1", "params": {"n_truc": 8}})
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "/problem/params/n_truc" in capsys.readouterr().err


class TestFitScaling:
    def test_exact_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_scaling(xs, xs**-0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.slope_stderr <= 1e-12

    def test_constant(self):
        fit = fit_scaling([1.0, 2.0, 4.0, 8.0], [3.0, 3.0, 3.0, 3.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_nonpositive_rejected(self):
        with pytest.raises(FitError):
            fit_scaling([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, 1.0])

    def test_too_few_rows(self):
        with pytest.raises(FitError):
            fit_scaling([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestRunSolve:
    def test_blackhole_report(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path))
        report = run_solve(cfg)
        assert report.rel_error <= 1e-4
        payload = json.loads((tmp_path / "report.json").read_text())
        validate_report(payload)
        assert (tmp_path / "timing.json").exists()

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_solve(RunConfig.from_dict(base_config(out1)))
        run_solve(RunConfig.from_dict(base_config(out2)))
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_plan_csv_emitted(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, emit=["json", "csv"]))
        run_solve(cfg)
        lines = (tmp_path / "plan.csv").read_text().splitlines()
        assert lines[0] == "k,abs_c"
        assert len(lines) > 100

    @pytest.mark.parametrize("emit, written", [(["csv"], ["plan.csv"]), ([], [])])
    def test_json_written_only_when_emitted(self, emit, written, tmp_path, capsys):
        # the config sits beside the output directory, which holds only what emit asks for
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, emit=emit))
        assert main(["solve", path]) == EXIT_OK
        assert sorted(os.listdir(out) if out.exists() else []) == written
        assert "report written to" not in capsys.readouterr().out

    def test_t_zero(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, T=0.0))
        report = run_solve(cfg)
        assert report.rel_error <= 3e-4

    def test_lindblad_long_horizon_meets_eps(self, tmp_path):
        # shifted only by its deficit 0.207, the exp(cT) unwinding at T = 16
        # keeps the paper plan's error below eps ||u0||
        cfg = RunConfig.from_dict(base_config(tmp_path, problem={"name": "lindblad"}, T=16.0))
        report = run_solve(cfg)
        assert report.eps_met is True
        assert report.abs_error <= 1e-4

    def test_no_stray_temp_files(self, tmp_path):
        run_solve(RunConfig.from_dict(base_config(tmp_path, emit=["json", "csv"])))
        strays = [f for f in os.listdir(tmp_path) if f.startswith(".tmp")]
        assert strays == []

    def test_infinite_rel_error_written_as_null(self, tmp_path):
        # at gamma = 800 and T = 1 the oracle underflows to 0, so rel_error
        # is infinite; the report must still be strict JSON
        cfg = RunConfig.from_dict(base_config(
            tmp_path, problem={"name": "blackhole", "params": {"gamma": 800}},
            accuracy={"K": 20, "M": 40, "Q": 8},
        ))
        assert run_solve(cfg).rel_error == float("inf")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        json.loads((tmp_path / "timing.json").read_text(), parse_constant=reject)
        payload = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert payload["report"]["rel_error"] is None
        assert payload["report"]["norm_ratio"] > 0
        validate_report(payload)
        # null stands for infinity in rel_error and norm_ratio only
        payload["report"]["abs_error"] = None
        with pytest.raises(ConfigError, match="/report/abs_error"):
            validate_report(payload)

    def test_monte_carlo_accuracy_driven(self, tmp_path):
        cfg = RunConfig.from_dict(
            base_config(tmp_path, method="monte-carlo", accuracy={"eps": 0.2, "seed": 1})
        )
        report = run_solve(cfg)
        assert report.rel_error <= 0.2


class TestRunConvergence:
    def test_gaussian_Q_sweep(self, tmp_path):
        # M kept coarse so the quadrature error stays above the tail floor
        cfg = RunConfig.from_dict(
            base_config(tmp_path, accuracy={"K": 40.0, "M": 12, "Q": 1})
        )
        result = run_convergence(cfg, "Q", [1, 2, 3, 4])
        assert [r["status"] for r in result.rows] == ["ok"] * 4
        errs = [r["rel_error"] for r in result.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        csv_text = (tmp_path / "sweep_Q.csv").read_text()
        assert csv_text.splitlines()[0] == "axis,value,N,rel_error,stderr,wall_s"
        assert len(csv_text.splitlines()) == 5

    def test_mc_Ns_sweep_reports_stderr(self, tmp_path):
        cfg = RunConfig.from_dict(
            base_config(
                tmp_path, method="monte-carlo", accuracy={"K": 30.0, "Ns": 50, "seed": 5}
            )
        )
        result = run_convergence(cfg, "Ns", [50, 100, 200, 400], mc_seeds=20)
        for row in result.rows:
            assert row["status"] == "ok"
            assert row["stderr"] > 0
            assert len(row["replica_errors"]) == 20
        assert result.rows[0]["N"] == 50

    def test_partial_failure_marked(self, tmp_path):
        cfg = RunConfig.from_dict(
            base_config(tmp_path, accuracy={"K": 16.0, "M": 44, "Q": 2})
        )
        result = run_convergence(cfg, "Q", [2, 3, 4, 100])
        statuses = [r["status"] for r in result.rows]
        assert statuses[:3] == ["ok"] * 3
        assert statuses[3].startswith("error:RangeError")
        assert np.isnan(result.rows[3]["rel_error"])

    def test_axis_validation(self):
        cfg = RunConfig.from_dict(base_config())
        with pytest.raises(ConfigError):
            run_convergence(cfg, "R", [1, 2, 3, 4])
        # on an explicit {K, M, Q} config, so the axis Q itself is valid
        cfg = RunConfig.from_dict(base_config(accuracy={"K": 16.0, "M": 44, "Q": 2}))
        with pytest.raises(ConfigError, match="need >= 4 axis values, got 3"):
            run_convergence(cfg, "Q", [1, 2, 3])
        with pytest.raises(ConfigError, match="sorted ascending"):
            run_convergence(cfg, "Q", [4, 3, 2, 1])

    def test_axis_values_need_four_sorted(self):
        cfg = RunConfig.from_dict(base_config())
        with pytest.raises(ConfigError, match="need >= 4 axis values, got 3"):
            run_convergence(cfg, "eps", [1e-2, 1e-3, 1e-4])
        with pytest.raises(ConfigError, match="sorted ascending"):
            run_convergence(cfg, "eps", [1e-1, 1e-3, 1e-2, 1e-4])

    def test_ns_axis_requires_explicit_mc(self):
        # an eps-driven config would silently ignore the swept Ns
        cfg = RunConfig.from_dict(base_config())
        with pytest.raises(ConfigError):
            run_convergence(cfg, "Ns", [10, 20, 40, 80])

    def test_eps_axis_uses_accuracy_driver(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path))
        result = run_convergence(cfg, "eps", [1e-4, 1e-3, 1e-2, 1e-1])
        sizes = [r["N"] for r in result.rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_gaussian_rows_match_independent_solves(self, caplog):
        caplog.set_level(logging.DEBUG, logger="lchs")
        cfg = RunConfig.from_dict(base_config(
            problem={"name": "mm1"}, T=0.25, accuracy={"K": 20.0, "M": 12, "Q": 1}))
        result = run_convergence(cfg, "Q", [1, 2, 3, 3, 5])
        # a repeated value reuses its row: Q = 3 propagates its 72 terms once
        assert propagated_terms(caplog) == 24 * (1 + 2 + 3 + 5)
        [summary] = [r.getMessage() for r in caplog.records if r.name == "lchs.harness"]
        assert "rows=5 replicas=1 terms propagated=264 reused=72" in summary
        problem = build_problem("mm1")
        kernel = make_kernel("beta", 0.75)
        u_ref = oracle_solve(problem, 0.25)
        for row in result.rows:
            u = lchs_apply(problem, composite_plan(kernel, 20.0, 12, row["value"]), 0.25)
            assert row["rel_error"] == np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref)
            assert row["replica_errors"] == [row["rel_error"]]
            assert row["stderr"] == 0.0

    @pytest.mark.parametrize("method, accuracy, axis, values, replicas", [
        ("gaussian", {"K": 16.0, "M": 44, "Q": 2}, "Q", [2, 3, 4, 100], 1),
        ("gaussian", {"eps": 1e-3}, "eps", [1e-4, 1e-3, 1e-2, 1e-1], 1),
        ("monte-carlo", {"K": 30.0, "Ns": 50, "seed": 5}, "Ns", [50, 100, 200, 400], 3),
        ("monte-carlo", {"K": 5.0, "Ns": 50, "seed": 5}, "K", [5.0, 10.0, 20.0, 40.0], 3),
    ], ids=["gaussian-Q-with-failed-row", "gaussian-eps", "mc-Ns", "mc-K"])
    def test_one_harness_record_per_sweep(self, method, accuracy, axis, values, replicas,
                                          caplog):
        caplog.set_level(logging.DEBUG, logger="lchs")
        cfg = RunConfig.from_dict(base_config(method=method, accuracy=accuracy))
        run_convergence(cfg, axis, values, mc_seeds=3)
        [summary] = [r.getMessage() for r in caplog.records if r.name == "lchs.harness"]
        assert summary.startswith(f"sweep: axis={axis} rows=4 replicas={replicas} ")

    def test_int_typed_K_keeps_float_values(self, tmp_path, capsys):
        # a config's "K": 4 does not truncate the swept K values to ints
        values = [1.5, 2.5, 3.5, 4.5]
        outputs = []
        for K in (4, 4.0):
            cfg = base_config(accuracy={"K": K, "M": 12, "Q": 3})
            result = run_convergence(RunConfig.from_dict(cfg), "K", values)
            assert [r["value"] for r in result.rows] == values
            outputs.append([r["rel_error"] for r in result.rows])
            path = write_config(tmp_path, cfg)
            assert main(["converge", path, "--axis", "K", "--values", "1.5,2.5,3.5,4.5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]
        assert "K=1.5: N=72" in outputs[1]

    def test_non_integral_value_on_int_axis_rejected(self, tmp_path, capsys):
        cfg = base_config(accuracy={"K": 16.0, "M": 44, "Q": 2})
        with pytest.raises(ConfigError, match="axis Q takes int values, got 2.5"):
            run_convergence(RunConfig.from_dict(cfg), "Q", [1, 2.5, 3, 4])
        path = write_config(tmp_path, cfg)
        for values in ("1,2.5,3,4", "1,two,3,4"):
            assert main(["converge", path, "--axis", "Q", "--values", values]) == EXIT_CONFIG
            assert "config error" in capsys.readouterr().err

    def test_K_axis_plateaus_at_tail_certificate(self):
        # with M, Q generous the only error left is the truncated tail; at
        # T = 0 the cauchy weight is positive, so the realized error equals
        # the certified tail mass
        from lchs import make_kernel, tail_mass

        cfg = RunConfig.from_dict(
            base_config(T=0.0, kernel={"family": "cauchy"},
                        accuracy={"K": 1.0, "M": 256, "Q": 12})
        )
        result = run_convergence(cfg, "K", [1.0, 2.0, 4.0, 8.0])
        cauchy = make_kernel("cauchy")
        for row in result.rows:
            cert = tail_mass(cauchy, float(row["value"]))
            assert cert / 3.0 <= row["rel_error"] <= 3.0 * cert


def mc_config(problem="blackhole", K=30.0, seed=5):
    return RunConfig.from_dict(base_config(
        problem={"name": problem}, method="monte-carlo",
        accuracy={"K": K, "Ns": 50, "seed": seed},
    ))


def propagated_terms(caplog) -> int:
    return sum(
        int(re.search(r"terms=(\d+)", r.getMessage()).group(1))
        for r in caplog.records if r.name == "lchs.evolve"
    )


def independent_errors(cfg, Ns, seeds) -> list:
    """Relative errors of full mc_plan solves, one per seed, without the sweep."""
    problem = build_problem(cfg.problem_name, cfg.problem_params)
    kernel = make_kernel(cfg.kernel_family, cfg.kernel_beta)
    u_ref = oracle_solve(problem, cfg.T)
    return [
        np.linalg.norm(
            lchs_apply(problem, mc_plan(kernel, cfg.accuracy["K"], Ns, s), cfg.T) - u_ref
        ) / np.linalg.norm(u_ref)
        for s in seeds
    ]


class TestNestedMonteCarlo:
    """An Ns sweep propagates each replica's draws once and carries its sum."""

    @pytest.mark.parametrize("K", [1.0, 44.25])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_mc_plan_draws_nest(self, K, seed):
        kernel = make_kernel("beta", 0.75)
        full = mc_plan(kernel, K, 1000, seed).k
        for n in (1, 2, 99, 500, 999):
            assert np.array_equal(mc_plan(kernel, K, n, seed).k, full[:n])

    @pytest.mark.parametrize("problem, path", [
        ("lindblad", "split"), ("mm1", "tridiagonal"),
    ])
    def test_rows_match_independent_solves(self, caplog, problem, path):
        caplog.set_level(logging.DEBUG, logger="lchs")
        cfg = mc_config(problem, seed=4)
        result = run_convergence(cfg, "Ns", [50, 150, 400, 1000], mc_seeds=3)
        paths = {re.search(r"path=(\S+)", r.getMessage()).group(1)
                 for r in caplog.records if r.name == "lchs.evolve"}
        assert paths == {path}
        for row in result.rows:
            assert row["status"] == "ok"
            ref = independent_errors(cfg, row["value"], range(4, 7))
            np.testing.assert_allclose(row["replica_errors"], ref, rtol=1e-12, atol=0)

    def test_replica_draws_are_mc_plan_bytes(self, monkeypatch):
        # each row draws only its new terms, and they are bitwise the terms
        # [start, Ns) of the replica seed's mc_plan at that row's Ns
        seen = {}
        real_apply = ev._PreparedSum.apply

        def spy(prepared, plan):
            seen.setdefault(plan.meta["seed"], []).append(plan)
            return real_apply(prepared, plan)

        monkeypatch.setattr(ev._PreparedSum, "apply", spy)
        cfg = mc_config("lindblad", K=44.25, seed=7)
        run_convergence(cfg, "Ns", [50, 150, 400, 1000], mc_seeds=3)
        kernel = make_kernel("beta", 0.75)
        assert sorted(seen) == [7, 8, 9]
        for seed, plans in seen.items():
            assert [(p.meta.get("start", 0), p.meta["Ns"]) for p in plans] == \
                [(0, 50), (50, 150), (150, 400), (400, 1000)]
            for p in plans:
                row = mc_plan(kernel, 44.25, p.meta["Ns"], seed)
                start = p.meta.get("start", 0)
                assert p.k.tobytes() == row.k[start:].tobytes()
                assert p.c.tobytes() == row.c[start:].tobytes()

    def test_ns_axis_propagates_each_draw_once(self, caplog):
        caplog.set_level(logging.DEBUG, logger="lchs")
        run_convergence(mc_config(), "Ns", [50, 100, 200, 400], mc_seeds=4)
        assert propagated_terms(caplog) == 4 * 400
        [summary] = [r.getMessage() for r in caplog.records if r.name == "lchs.harness"]
        assert "rows=4 replicas=4 terms propagated=1600 reused=1400" in summary

    def test_K_axis_starts_each_row_afresh(self, caplog):
        caplog.set_level(logging.DEBUG, logger="lchs")
        result = run_convergence(mc_config(K=5.0), "K", [5.0, 10.0, 20.0, 40.0], mc_seeds=4)
        assert [r["status"] for r in result.rows] == ["ok"] * 4
        assert propagated_terms(caplog) == 4 * (4 * 50)
        [summary] = [r.getMessage() for r in caplog.records if r.name == "lchs.harness"]
        assert "terms propagated=800 reused=0" in summary

    def test_repeated_value_repeats_row(self, caplog):
        caplog.set_level(logging.DEBUG, logger="lchs")
        result = run_convergence(mc_config(), "Ns", [50, 100, 100, 200], mc_seeds=3)
        assert result.rows[1]["replica_errors"] == result.rows[2]["replica_errors"]
        assert result.rows[1]["rel_error"] == result.rows[2]["rel_error"]
        assert propagated_terms(caplog) == 3 * 200

    def test_failed_row_restarts_from_full_plan(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="lchs")
        real_apply = ev._PreparedSum.apply

        def failing_apply(prepared, plan):
            if plan.meta["Ns"] == 200:
                raise PropagationError("injected failure")
            return real_apply(prepared, plan)

        monkeypatch.setattr(ev._PreparedSum, "apply", failing_apply)
        cfg = mc_config(seed=2)
        result = run_convergence(cfg, "Ns", [50, 100, 200, 400], mc_seeds=3)
        assert [r["status"] for r in result.rows[:2]] == ["ok"] * 2
        assert result.rows[2]["status"].startswith("error:PropagationError")
        assert np.isnan(result.rows[2]["rel_error"])
        assert result.rows[3]["status"] == "ok"
        # 3 x 100 before the failure, then 3 x 400 from scratch
        assert propagated_terms(caplog) == 3 * 100 + 3 * 400
        np.testing.assert_allclose(
            result.rows[3]["replica_errors"], independent_errors(cfg, 400, range(2, 5)),
            rtol=1e-12, atol=0,
        )

    @pytest.mark.parametrize("axis", ["M", "Q"])
    def test_rule_axes_rejected_up_front(self, axis, tmp_path, capsys):
        # a {K, Ns, seed} plan has no M or Q to sweep
        with pytest.raises(ConfigError) as err:
            run_convergence(mc_config(), axis, [1, 2, 3, 4])
        assert err.value.pointer == "/accuracy"
        path = write_config(tmp_path, base_config(
            method="monte-carlo", accuracy={"K": 30.0, "Ns": 50, "seed": 5}))
        assert main(["converge", path, "--axis", axis, "--values", "1,2,3,4"]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("error")
    def test_standard_error_needs_two_replicas(self):
        for seeds in (0, 1):
            with pytest.raises(ConfigError, match="mc_seeds >= 2"):
                run_convergence(mc_config(), "Ns", [50, 100, 200, 400], mc_seeds=seeds)
        result = run_convergence(mc_config(), "Ns", [50, 100, 200, 400], mc_seeds=2)
        for row in result.rows:
            assert row["status"] == "ok"
            assert np.isfinite(row["stderr"])


def count_analyses(monkeypatch) -> list:
    """Block sizes of the _shared_eigenbasis calls: a schedule analysis
    tries one basis per block."""
    calls = []
    real = ev._shared_eigenbasis
    monkeypatch.setattr(
        ev, "_shared_eigenbasis", lambda spans, dim: calls.append(dim) or real(spans, dim)
    )
    return calls


class TestOneAnalysisPerSweep:
    """A sweep or a lemma-check analyses the schedule once and shares the
    analysis over every row, replica and level. lindblad splits into a 2x2
    block and two 1x1 blocks, so one analysis tries three bases."""

    def test_mc_sweep_analyses_the_schedule_once(self, monkeypatch, caplog):
        # the benchmark's mc-sweep: 4 rows x 6 replicas, 24 sums
        caplog.set_level(logging.DEBUG, logger="lchs")
        calls = count_analyses(monkeypatch)
        cfg = mc_config("lindblad", K=44.25, seed=1)
        result = run_convergence(cfg, "Ns", [2000, 4000, 8000, 16000], mc_seeds=6)
        assert [r["status"] for r in result.rows] == ["ok"] * 4
        assert len([r for r in caplog.records if r.name == "lchs.evolve"]) == 24
        assert sorted(calls) == [1, 1, 2]
        [summary] = [r.getMessage() for r in caplog.records if r.name == "lchs.harness"]
        # each replica draws its 16,000 terms once, and g is evaluated on them only
        assert summary.endswith(" terms propagated=96000 reused=84000 analyses=1 draws=96000")

    def test_lemma_check_analyses_the_schedule_once(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, base_config(problem={"name": "lindblad"}))
        calls = count_analyses(monkeypatch)
        assert main(["lemma-check", path, "--levels", "3"]) == EXIT_OK
        assert sorted(calls) == [1, 1, 2]
        # each level prints the residual of its own checked sum
        printed = re.findall(r"residual=(\S+)", capsys.readouterr().out)
        problem, kernel = build_problem("lindblad"), make_kernel("beta", 0.75)
        plans = [plan_from_accuracy(kernel, eps, 1.0, problem.meta["normL"])
                 for eps in (1e-1, 1e-2, 1e-3)]
        assert printed == [f"{residual_lemma_check(problem, plan, 1.0):.6e}" for plan in plans]

    def test_gate_violation_gives_error_rows(self, monkeypatch):
        # the builders shift every L to L >= 0, so the instance is made here:
        # the gate fails in every row's sums, not out of the sweep
        pair = hermitian_split(np.array([[-1.0]], dtype=complex))
        negative = ProblemInstance.from_pair(pair, np.array([1.0 + 0j]), label="negative")
        monkeypatch.setattr(harness, "build_problem", lambda name, params: negative)
        result = run_convergence(mc_config(), "Ns", [50, 100, 200, 400], mc_seeds=3)
        status = (
            "error:PreconditionError:positivity gate violated: lambda0 = -1.000e+00 "
            "< -1e-12 ||L|| for instance 'negative'"
        )
        assert [r["status"] for r in result.rows] == [status] * 4
        assert all(np.isnan(r["rel_error"]) and r["N"] == 0 for r in result.rows)
        assert result.fit is None


class TestWorkerCount:
    @pytest.mark.parametrize("value", ["3", "", "abc", "0", "-1", "1.5", None])
    def test_env_is_ignored(self, monkeypatch, value):
        # sweeps run on the calling thread; LCHS_WORKERS is not read
        if value is None:
            monkeypatch.delenv("LCHS_WORKERS", raising=False)
        else:
            monkeypatch.setenv("LCHS_WORKERS", value)
        assert worker_count() == 1


class TestCliExitCodes:
    def test_solve_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["solve", path]) == EXIT_OK
        assert "rel_error" in capsys.readouterr().out

    def test_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(accuracy={"eps": 1e-4, "M": 4}))
        assert main(["solve", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/config.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize("levels", ["0", "1", "-2"])
    def test_lemma_check_needs_two_levels(self, tmp_path, capsys, levels):
        # one residual can never decrease, and fewer levels name no eps
        path = write_config(tmp_path, base_config())
        assert main(["lemma-check", path, "--levels", levels]) == EXIT_CONFIG
        assert f"needs at least 2 levels, got {levels}" in capsys.readouterr().err

    @pytest.mark.parametrize("case, code", [
        ({"method": "monte-carlo", "accuracy": {"K": 20, "Ns": 100, "seed": -1}}, EXIT_CONFIG),
        ({"method": "monte-carlo", "accuracy": {"eps": 1e-3, "seed": -1}}, EXIT_CONFIG),
        ({"problem": {"name": "mm1"}, "accuracy": {"eps": 1e-3}, "T": 1e308}, EXIT_SOLVE),
        ({"problem": {"name": "mm1"}, "accuracy": {"eps": 1e-3}, "T": 1e7}, EXIT_SOLVE),
        ({"problem": {"name": "mm1"}, "accuracy": {"K": 20, "M": 10**12, "Q": 8}}, EXIT_SOLVE),
        *((["validate-kernel", "--family", "beta", "--beta", b], EXIT_CONFIG)
          for b in ("0", "1", "1.5", "nan")),
    ], ids=["seed", "eps-seed", "T-overflow", "T-huge", "M-huge",
            "beta-0", "beta-1", "beta-1.5", "beta-nan"])
    def test_malformed_input_exit_codes(self, tmp_path, capsys, case, code):
        # a negative seed, a plan of tens of GiB or more and a beta outside
        # (0, 1) each exit with one error line, not a traceback; argparse
        # reports the bad usage
        if isinstance(case, list):
            argv = case
            prefix = "lchs validate-kernel: error: argument --beta: beta must lie in (0, 1)"
        else:
            argv = ["solve", write_config(tmp_path, base_config(**case))]
            prefix = "config error:" if code == EXIT_CONFIG else "solve error: RangeError:"
        assert main(argv) == code
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert line.startswith(prefix)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["validate-kernel", "--family", "beta", "--beta", "abc"],
         "argument --beta: beta must be a number, got 'abc'"),
        (["lemma-check", "config.json", "--levels", "x"],
         "argument --levels: levels must be an integer, got 'x'"),
        (["lemma-check", "config.json", "--levels", "2.5"],
         "argument --levels: levels must be an integer, got '2.5'"),
    ], ids=["beta-abc", "levels-x", "levels-2.5"])
    def test_non_numeric_option_names_its_value(self, capsys, argv, message):
        # argparse names a type function that raises ValueError ("invalid
        # _beta value"); the message names the option and the bad value
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert line.endswith(message)
        assert "_beta" not in err and "_levels" not in err

    def test_cauchy_beta_exits_config(self, tmp_path, capsys):
        argv = ["validate-kernel", "--family", "cauchy", "--beta", "0.5"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --beta: the cauchy family takes no beta, got 0.5\n"
        assert main(["validate-kernel", "--family", "cauchy"]) == EXIT_OK
        assert "family=cauchy beta=None" in capsys.readouterr().out
        cfg = base_config(tmp_path, kernel={"family": "cauchy", "beta": 0.5})
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "config invalid at /kernel/beta" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("old, new", [
        ('"T": 1.0', '"T": Infinity'),
        ('"T": 1.0', '"T": NaN'),
        ('"eps": 0.0001', '"eps": NaN'),
        ('"eps": 0.0001', '"K": Infinity, "M": 4, "Q": 4'),
        ('"gamma": 0.5', '"gamma": -Infinity'),
    ])
    def test_non_standard_json_constant_rejected(self, tmp_path, capsys, old, new):
        # json.dumps writes nan and inf as NaN and Infinity, which JSON lacks
        text = json.dumps(base_config())
        assert old in text
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match="is not a JSON number"):
            RunConfig.from_file(str(path))
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_build_error(self, tmp_path, capsys):
        bad = base_config()
        bad["problem"]["params"]["gamma"] = -1.0
        path = write_config(tmp_path, bad)
        assert main(["solve", path]) == EXIT_BUILD
        assert "build error" in capsys.readouterr().err

    def test_solve_error(self, tmp_path, capsys):
        # cauchy tails cannot certify 1e-7/3 within the window cap
        cfg = base_config(kernel={"family": "cauchy"}, accuracy={"eps": 1e-7})
        path = write_config(tmp_path, cfg)
        assert main(["solve", path]) == EXIT_SOLVE
        assert "solve error" in capsys.readouterr().err

    def test_missed_eps_writes_report_and_exits_solve(self, tmp_path, capsys, monkeypatch):
        # two midpoint nodes on [-5, 5] are far too coarse for eps = 1e-4
        monkeypatch.setattr(
            harness, "plan_from_accuracy",
            lambda kernel, eps, T, normL: composite_plan(kernel, 5.0, 1, 1),
        )
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["solve", path]) == EXIT_SOLVE
        err = capsys.readouterr().err
        payload = json.loads((tmp_path / "report.json").read_text())
        validate_report(payload)
        report = payload["report"]
        assert report["eps_met"] is False
        assert report["abs_error"] > 1e-4  # the blackhole default u0 is a unit vector
        assert f"accuracy not met: abs_error={report['abs_error']:.6e}" in err
        # an explicit plan carries no accuracy contract: no eps_met, exit 0
        explicit = base_config(tmp_path / "explicit", accuracy={"K": 5.0, "M": 1, "Q": 1})
        assert main(["solve", write_config(tmp_path, explicit, name="explicit.json")]) == EXIT_OK
        explicit_report = json.loads((tmp_path / "explicit" / "report.json").read_text())
        assert "eps_met" not in explicit_report["report"]

    @pytest.mark.parametrize("name, T", [
        ("parabolic1d", 1.0 / 256.0), ("mm1", 0.25), ("mmc", 0.25), ("cap", 0.25),
        ("lindblad", 0.25), ("blackhole", 0.25),
    ])
    def test_builder_defaults_meet_eps(self, name, T, tmp_path, capsys):
        cfg = base_config(tmp_path, problem={"name": name}, T=T)
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_OK
        assert json.loads((tmp_path / "report.json").read_text())["report"]["eps_met"] is True

    def test_verbose_logs_evolve_record_to_stderr(self, tmp_path, capsys):
        quiet_dir, loud_dir = tmp_path / "quiet", tmp_path / "loud"
        assert main(["solve", write_config(tmp_path, base_config(quiet_dir))]) == EXIT_OK
        quiet = capsys.readouterr()
        loud_cfg = write_config(tmp_path, base_config(loud_dir), name="loud.json")
        assert main(["-v", "solve", loud_cfg]) == EXIT_OK
        loud = capsys.readouterr()
        # the diagonal blackhole pair splits into two 1x1 shared blocks
        assert "lchs.evolve DEBUG: weighted unitary sum: path=split" in loud.err
        assert "decompositions=2 chunks=" in loud.err
        assert "blocks=2 [1:shared-eigenbasis 1:shared-eigenbasis]" in loud.err
        assert "weighted unitary sum" not in quiet.err
        assert loud.out == quiet.out.replace(str(quiet_dir), str(loud_dir))
        assert (loud_dir / "report.json").read_bytes() == (quiet_dir / "report.json").read_bytes()
        # the handler is removed again: a later quiet run logs nothing
        assert main(["solve", write_config(tmp_path, base_config())]) == EXIT_OK
        assert "weighted unitary sum" not in capsys.readouterr().err

    def test_bad_usage(self, capsys):
        assert main(["converge"]) == EXIT_CONFIG

    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in DEFAULT_PARAMS:
            assert name in out

    def test_validate_kernel(self, capsys):
        assert main(["validate-kernel", "--family", "beta", "--beta", "0.5"]) == EXIT_OK
        assert "normalization residual" in capsys.readouterr().out

    def test_converge_command(self, tmp_path, capsys):
        cfg = base_config(tmp_path, accuracy={"K": 16.0, "M": 44, "Q": 2})
        path = write_config(tmp_path, cfg)
        code = main(["converge", path, "--axis", "Q", "--values", "2,3,4,5"])
        assert code == EXIT_OK
        assert (tmp_path / "sweep_Q.csv").exists()

    def test_lemma_check_command(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["lemma-check", path, "--levels", "3"]) == EXIT_OK
        assert "residual" in capsys.readouterr().out
