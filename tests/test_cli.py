"""Command-line harness: config validation, artifacts, determinism, exits."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import kinlang
from kinlang import cli
from kinlang.cli import _COMMANDS, FORMAT_VERSION, main
from kinlang.config import (
    KINDS,
    PotentialConfig,
    SimulationConfig,
    build_friction,
    build_potential,
    config_from_dict,
    load_config,
)
from kinlang.errors import ConfigError, WitnessNotFound

GOLDEN = (3.0 - math.sqrt(5.0))
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

#: a valid config in which every field of every section differs from its
#: default; integers stand in for some floats, as a JSON writer may emit them
EVERY_FIELD = {
    "kind": "certify",
    "out_dir": "runs/every-field",
    "potential": {"family": "perturbed_diagonal", "v": [1.5, 2],
                  "matrix": [[2, 0.5], [0.5, 1]], "eps": 0.2,
                  "perturbation": "cosine"},
    "friction": {"kind": "constant_matrix", "s": 3, "lam": 0.7,
                 "matrix": [[2, 0], [0, 1.5]]},
    "simulation": {"dt": 0.002, "n_steps": 50, "n_particles": 64.0,
                   "seed": 5, "record_every": 5, "init_q": [0.5, 0.25],
                   "init_p": [0, 0.1]},
    "certificate": {"x0": 100, "s_grid": [2.0, 2.5], "x0_grid": [10, 100.0],
                    "lambda_grid": [0.5, 1.0, 4.0], "eps_rates": [0.25]},
    "oracle": {"w": 2.0, "lambda_grid": [0.5, 2.5], "v": [1.0, 3.0],
               "n_times": 20},
    "audit": {"x0": 2.0, "t_max": 5.0, "n_times": 50, "init_q_mean": 0.25,
              "init_cov_scale": 0.5},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def read_csv(out_dir, name):
    """A CSV artifact's rows, header first, as csv.reader parses them."""
    with open(os.path.join(out_dir, name), encoding="utf-8",
              newline="") as fh:
        return list(csv.reader(fh))


def read_json(out_dir, name):
    """A report, parsed as strictly as JSON allows: no NaN or Infinity."""
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


class TestConfigParsing:
    def test_defaults_materialize(self):
        cfg = config_from_dict({}, kind="certify")
        assert cfg.kind == "certify"
        assert cfg.out_dir == "runs/certify"
        assert cfg.potential.family == "quadratic_diagonal"
        assert cfg.potential.v == (1.0,)
        assert cfg.friction.kind == "hessian_sqrt"
        assert cfg.friction.s == 2.0
        assert cfg.certificate.s_grid == (1.0, 1.5, 2.0, 3.0, 4.0)

    def test_resolved_round_trips(self):
        cfg = config_from_dict({"kind": "audit"})
        again = config_from_dict(cfg.resolved())
        assert again == cfg

        cfg = config_from_dict(EVERY_FIELD)
        assert config_from_dict(cfg.resolved()) == cfg
        resolved = cfg.resolved()
        # nothing dropped or changed: the echo reads back as the input
        assert json.loads(json.dumps(resolved)) == EVERY_FIELD

        def leaves(x):
            if isinstance(x, (list, tuple)):
                return [y for e in x for y in leaves(e)]
            return [x]

        defaults = config_from_dict({"kind": "certify"}).resolved()
        ints = {"n_steps", "n_particles", "seed", "record_every", "n_times"}
        for name, section in EVERY_FIELD.items():
            if not isinstance(section, dict):
                continue
            assert set(section) == set(resolved[name]), name
            for key in section:
                value = resolved[name][key]
                assert value != defaults[name][key], (name, key)
                # every number is a float, except in the int fields
                want = str if isinstance(value, str) else \
                    int if key in ints else float
                assert all(type(x) is want for x in leaves(value)), (name, key)

    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict({})

    def test_unknown_top_level_field_named(self):
        with pytest.raises(ConfigError, match="frictoin"):
            config_from_dict({"kind": "certify", "frictoin": {}})

    def test_unknown_nested_field_named(self):
        with pytest.raises(ConfigError, match=r"potential\.vv"):
            config_from_dict({"kind": "certify", "potential": {"vv": [1.0]}})

    def test_kind_conflict_with_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            config_from_dict({"kind": "simulate"}, kind="certify")

    def test_seed_override_wins(self):
        raw = {"kind": "simulate", "simulation": {"seed": 7}}
        assert config_from_dict(raw).simulation.seed == 7
        assert config_from_dict(raw, seed=11).simulation.seed == 11

    def test_field_level_messages(self):
        bad = [
            ({"kind": "simulate", "simulation": {"seed": 0, "dt": -1.0}},
             r"simulation\.dt"),
            ({"kind": "simulate", "simulation": {"seed": -3}},
             r"simulation\.seed"),
            ({"kind": "oracle-ou", "oracle": {"n_times": 4}},
             r"oracle\.n_times"),
            ({"kind": "certify", "certificate": {"eps_rates": [2.5]}},
             r"certificate\.eps_rates"),
            ({"kind": "certify", "certificate": {"lambda_grid": [1.0, -2.0]}},
             r"certificate\.lambda_grid"),
            ({"kind": "certify", "workers": 0}, "workers"),
            ({"kind": "simulate", "simulation": {"seed": 0},
              "friction": {"kind": "constant_scalar"}}, r"friction\.lam"),
            ({"kind": "certify",
              "potential": {"family": "quadratic_general"}},
             r"potential\.matrix"),
            ({"kind": "certify",
              "potential": {"family": "perturbed_diagonal", "v": [1.0]}},
             r"potential\.eps"),
            ({"kind": "simulate", "simulation": {"seed": 0, "dt": "fast"}},
             r"simulation\.dt"),
            ({"kind": "certify", "potential": {"eps": "x"}},
             r"potential\.eps"),
            ({"kind": "certify", "friction": {"s": None}}, r"friction\.s"),
            ({"kind": "certify",
              "potential": {"family": "quadratic_general", "matrix": 5}},
             r"potential\.matrix"),
            ({"kind": "simulate", "simulation": 5}, r"^simulation: "),
            ({"kind": "simulate", "simulation": {"seed": 0, "n_steps": 2.7}},
             r"simulation\.n_steps"),
            ({"kind": "simulate", "simulation": {"seed": True}},
             r"simulation\.seed"),
            # the CLI's subcommands are the kinds, so only a dict reaches it
            ({"kind": "anneal"}, r"^kind: unknown experiment kind 'anneal'"),
        ]
        for raw, pattern in bad:
            with pytest.raises(ConfigError, match=pattern):
                config_from_dict(raw)
        # a float with an integral value still reads as an int
        raw = {"kind": "simulate", "simulation": {"seed": 1.0, "n_steps": 1000.0}}
        sim = config_from_dict(raw).simulation
        assert (sim.seed, sim.n_steps) == (1, 1000)
        assert type(sim.n_steps) is int

    def test_stochastic_run_requires_seed(self):
        with pytest.raises(ConfigError, match="seed is mandatory"):
            config_from_dict({"kind": "simulate"})

    def test_audit_requires_matrix_friction(self):
        with pytest.raises(ConfigError, match=r"friction\.kind"):
            config_from_dict({"kind": "audit",
                              "friction": {"kind": "constant_scalar",
                                           "lam": 2.0}})

    def test_load_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(bad))

    def test_malformed_values_exit_2(self, tmp_path, capsys):
        # also when --seed overrides the file's seed; NaN and Infinity are
        # Python's JSON extensions, not JSON numbers; one particle would
        # report an Infinity and a NaN
        for command, payload, message in [
            ("simulate", {"simulation": {"seed": 0, "dt": "fast"}},
             "simulation.dt: expected "),
            ("simulate", {"simulation": {"n_steps": 2.7}},
             "simulation.n_steps: expected "),
            ("simulate", {"simulation": {"seed": True}},
             "simulation.seed: expected "),
            ("simulate", {"simulation": 5}, "simulation: expected "),
            ("audit", {"audit": {"init_q_mean": math.nan}},
             "audit.init_q_mean: expected "),
            ("compare", {"friction": {"s": math.inf}}, "friction.s: expected "),
            ("oracle-ou", {"oracle": {"w": math.inf}}, "oracle.w: expected "),
            ("oracle-ou", {"oracle": {"lambda_grid": [1.0, -math.inf]}},
             "oracle.lambda_grid: expected "),
            ("simulate", {"simulation": {"n_particles": 1}},
             "simulation.n_particles: must be >= 2, got 1"),
            ("certify", {"potential": {"v": []}},
             "potential.v: must be a nonempty vector"),
            ("certify", {"potential": {"family": "perturbed_diagonal",
                                       "eps": 0.1, "perturbation": "sine"}},
             "potential.perturbation: unknown kind 'sine'"),
            ("simulate", {"friction": {"kind": "viscous"}},
             "friction.kind: unknown kind 'viscous'"),
            ("simulate", {"friction": {"kind": "constant_matrix"}},
             "friction.matrix: required for kind constant_matrix"),
            ("compare", {"certificate": {"x0": 0.0}},
             "certificate.x0: must be > 0, got 0.0"),
            ("oracle-ou", {"oracle": {"v": [1.0, -2.0]}},
             "oracle.v: must be nonempty with entries > 0"),
            ("audit", {"audit": {"t_max": 0.0}},
             "audit.t_max: must be > 0, got 0.0"),
            ("audit", {"audit": {"n_times": 2}},
             "audit.n_times: must be >= 3, got 2"),
            ("audit", {"audit": {"init_cov_scale": -1.0}},
             "audit.init_cov_scale: must be > 0, got -1.0"),
            ("certify", [{"kind": "certify"}],
             "config root must be an object, got list"),
        ]:
            if isinstance(payload, dict):
                payload = {"kind": command, **payload}
            cfg = write_config(tmp_path, payload)
            assert main([command, "--config", cfg, "--seed", "1",
                         "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {message}"), err
            assert not (tmp_path / "x").exists()

    def test_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        # a seed is one 64-bit Philox key word, from --seed or the file
        too_big = 2 ** 64
        cfg = write_config(tmp_path, {"simulation": {"seed": too_big}})
        for args in (["--seed", str(too_big)], ["--config", cfg]):
            out = tmp_path / "x"
            assert main(["simulate", *args, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: simulation.seed: "), err
            assert not out.exists()

    def test_sections_check_ranges_when_built_directly(self):
        with pytest.raises(ConfigError, match=r"potential\.family"):
            PotentialConfig(family="bogus")
        with pytest.raises(ConfigError, match=r"simulation\.dt"):
            SimulationConfig(dt=0.0)

    def test_readme_simulate_example_matches_schema(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        usage = text.split("## Command-line usage", 1)[1].split("\n## ", 1)[0]
        blocks = [b.split("```", 1)[0] for b in usage.split("```json\n")[1:]]
        examples = [json.loads(b) for b in blocks]
        (example,) = [e for e in examples if e.get("kind") == "simulate"]
        resolved = config_from_dict(example).resolved()
        for name, section in example.items():
            if not isinstance(section, dict):
                continue
            for key, value in section.items():
                assert json.loads(json.dumps(resolved[name][key])) == value
                # every field it shows is typed: none takes a boolean
                bad = dict(example, **{name: dict(section, **{key: True})})
                with pytest.raises(ConfigError, match=rf"^{name}\.{key}: "):
                    config_from_dict(bad)


class TestReadme:
    def test_library_quick_start_certifies(self, capsys):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        blocks = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
        assert blocks
        namespace = {}
        for block in blocks:
            exec(compile(block, README, "exec"), namespace)
        assert namespace["best"].valid
        assert namespace["report"]["all_dominated"] is True


class TestBuilders:
    def test_potential_families(self):
        cfg = config_from_dict({
            "kind": "certify",
            "potential": {"family": "perturbed_diagonal", "v": [1.0, 2.0],
                          "eps": 0.1, "perturbation": "cosine"},
        })
        p = build_potential(cfg.potential)
        assert p.dim == 2 and not p.constant_hessian

        cfg = config_from_dict({
            "kind": "certify",
            "potential": {"family": "quadratic_general",
                          "matrix": [[2.0, 0.5], [0.5, 1.0]]},
        })
        p = build_potential(cfg.potential)
        assert p.dim == 2 and p.constant_hessian

    def test_bad_general_matrix_is_config_error(self):
        cfg = config_from_dict({
            "kind": "certify",
            "potential": {"family": "quadratic_general",
                          "matrix": [[1.0, 3.0], [3.0, 1.0]]},
        })
        with pytest.raises(ConfigError, match=r"potential\.matrix"):
            build_potential(cfg.potential)

    def test_bad_frequency_is_config_error(self, tmp_path, capsys):
        cfg = config_from_dict({"kind": "certify",
                                "potential": {"v": [-1.0]}})
        with pytest.raises(ConfigError, match=r"^potential\.v: "):
            build_potential(cfg.potential)
        path = write_config(tmp_path, {"potential": {"v": [-1.0]}})
        assert main(["certify", "--config", path,
                     "--out", str(tmp_path / "x")]) == 2
        assert "config error: potential.v: " in capsys.readouterr().err

    def test_friction_kinds(self):
        base = {"kind": "certify"}
        for section, name in [
            ({"kind": "hessian_sqrt", "s": 3.0}, "hessian_sqrt"),
            ({"kind": "constant_scalar", "lam": 0.7}, "constant_scalar"),
            ({"kind": "constant_matrix", "matrix": [[2.0]]},
             "constant_matrix"),
        ]:
            cfg = config_from_dict(dict(base, friction=section))
            assert build_friction(cfg.friction).kind == name


class TestOracleOu:
    def test_rates_and_artifacts(self, tmp_path):
        out = str(tmp_path / "ou")
        assert main(["oracle-ou", "--out", out]) == 0
        for name in ("config.json", "oracle_ou.csv", "oracle_ou_summary.json"):
            assert os.path.exists(os.path.join(out, name))

        summary = read_json(out, "oracle_ou_summary.json")
        assert summary["format_version"] == FORMAT_VERSION
        assert summary["config"]["kind"] == "oracle-ou"
        cases = summary["cases"]
        assert [c["friction"] for c in cases] == ["constant_scalar"] * 3 + [
            "hessian_sqrt"]
        closed = [c["closed_form_rate"] for c in cases]
        assert closed[:3] == pytest.approx([1.0, 2.0, GOLDEN], rel=1e-12)
        assert closed[3] == pytest.approx(2.0, rel=1e-12)
        assert summary["max_relative_gap"] < 0.05
        for c in cases:
            assert c["relative_gap"] < 0.05

    def test_csv_layout_and_ordering(self, tmp_path):
        out = str(tmp_path / "ou")
        main(["oracle-ou", "--out", out])
        with open(os.path.join(out, "oracle_ou.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "w,friction,lam,t,chi2"
        assert len(lines) == 1 + 4 * 51
        first = lines[1].split(",")
        assert first[0] == "1.0"
        assert first[1] == "constant_scalar(lam=1)"
        assert float(first[3]) == pytest.approx(10.0)
        # hessian_sqrt rows leave lam empty
        assert lines[-1].split(",")[1] == "hessian_sqrt(s=2)"
        assert lines[-1].split(",")[2] == ""

    def test_dominance_table(self, tmp_path):
        out = str(tmp_path / "ou")
        cfg = write_config(tmp_path, {
            "kind": "oracle-ou",
            "oracle": {"w": 1.0, "lambda_grid": [0.5, 2.0, 10.0],
                       "v": [1.0, 2.0, 3.0]},
        })
        assert main(["oracle-ou", "--config", cfg, "--out", out]) == 0
        dom = read_json(out, "oracle_ou_summary.json")["dominance"]
        assert dom["hessian_sqrt_rate"] == pytest.approx(2.0, abs=1e-12)
        assert dom["hessian_sqrt_maximal"] is True
        by_lam = {row["lam"]: row for row in dom["table"]}
        # intersecting spectra: lam=2 is optimal for every coordinate at once
        assert by_lam[2.0]["constant_scalar_rate"] == pytest.approx(
            2.0, abs=1e-9)
        assert by_lam[0.5]["constant_scalar_rate"] == pytest.approx(0.5)
        assert all(row["dominated"] for row in dom["table"])

    def test_overdamped_rate_at_huge_friction(self, tmp_path):
        # lam - sqrt(lam^2 - 4 w^2) cancels to 0.0 here, and the fit window
        # divides by the rate
        cfg = write_config(tmp_path, {"kind": "oracle-ou",
                                      "oracle": {"lambda_grid": [1e9]}})
        out = str(tmp_path / "ou")
        assert main(["oracle-ou", "--config", cfg, "--out", out]) == 0
        case = read_json(out, "oracle_ou_summary.json")["cases"][0]
        assert case["closed_form_rate"] == pytest.approx(2e-9, rel=1e-15)

    @pytest.mark.parametrize("grid", [[1e4, 1e6, 1e9], [1e154]],
                             ids=["stiff", "largest"])
    def test_fit_recovers_stiff_rates(self, tmp_path, grid):
        # the slow mode decays like e^{-t/lam}; an e^{Ft} whose error grows
        # like eps ||F|| t fitted 7e-26 for 2e-9 at lam = 1e9, and at 1e154
        # the fit window reaches t = 1e155
        cfg = write_config(tmp_path, {"kind": "oracle-ou",
                                      "oracle": {"lambda_grid": grid}})
        out = str(tmp_path / "ou")
        assert main(["oracle-ou", "--config", cfg, "--out", out]) == 0
        cases = read_json(out, "oracle_ou_summary.json")["cases"]
        assert [c["lam"] for c in cases[:-1]] == grid
        assert all(c["relative_gap"] <= 1e-4 for c in cases)

    def test_empty_lambda_grid_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"oracle": {"lambda_grid": []}})
        code = main(["oracle-ou", "--config", cfg,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "oracle.lambda_grid" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        out = str(tmp_path / "ou")
        main(["oracle-ou", "--out", out])
        blobs = {}
        for name in ("oracle_ou.csv", "oracle_ou_summary.json", "config.json"):
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name] = fh.read()
        main(["oracle-ou", "--out", out])
        for name, blob in blobs.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert fh.read() == blob, name


class TestSimulate:
    def quad_config(self, tmp_path, **sim_overrides):
        sim = {"dt": 1e-3, "n_steps": 1000, "n_particles": 20000, "seed": 0,
               "record_every": 100, "init_q": [1.0], "init_p": [0.0]}
        sim.update(sim_overrides)
        return write_config(tmp_path, {
            "kind": "simulate",
            "potential": {"family": "quadratic_diagonal", "v": [1.0]},
            "friction": {"kind": "constant_scalar", "lam": 2.0},
            "simulation": sim,
        })

    def test_quadratic_moments_match_oracle(self, tmp_path):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", self.quad_config(tmp_path),
                     "--out", out]) == 0
        report = read_json(out, "simulate_report.json")
        assert report["chi2_proxy_target"] == "stationary"
        oracle = report["oracle"]
        assert oracle["max_mean_z"] < 2.0
        assert oracle["max_abs_cov_error"] < 0.05 * oracle["cov_scale"]
        assert report["final_time"] == pytest.approx(1.0, rel=1e-9)
        assert report["n_records"] == 11

    def test_tiny_final_time_runs(self, tmp_path):
        # the exact law 1e-8 after a point start has eigenvalues about
        # -eps max|C_inf| from roundoff, below GaussianMoments' slack
        cfg = write_config(tmp_path, {
            "kind": "simulate",
            "potential": {"v": [1.0, 4.0]},
            "friction": {"kind": "constant_scalar", "lam": 1.0},
            "simulation": {"dt": 1e-8, "n_steps": 1, "n_particles": 100,
                           "seed": 1, "record_every": 1},
        })
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "simulate_report.json")
        assert report["final_time"] == 1e-8
        w = np.linalg.eigvalsh(report["oracle"]["exact_cov"])
        assert w[0] >= -1e-10 * w[-1]

    def test_trajectory_csv_proxy_column(self, tmp_path):
        out = str(tmp_path / "sim")
        main(["simulate", "--config", self.quad_config(tmp_path),
              "--out", out])
        with open(os.path.join(out, "trajectory.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("time,mean_1,mean_2,cov_11")
        assert len(lines) == 1 + 11
        # point init: zero covariance at t=0, so the proxy cell is empty
        assert lines[1].endswith(",")
        for line in lines[2:]:
            assert float(line.split(",")[-1]) >= 0.0

    def test_rerun_byte_identical(self, tmp_path):
        out = str(tmp_path / "sim")
        cfg = self.quad_config(tmp_path, n_particles=2000)
        main(["simulate", "--config", cfg, "--out", out])
        with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
            first = fh.read()
        main(["simulate", "--config", cfg, "--out", out])
        with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
            assert fh.read() == first

    def test_blowup_reported_with_step_and_config(self, tmp_path, capsys):
        out = str(tmp_path / "blow")
        cfg = self.quad_config(tmp_path, dt=3.0, n_steps=300, n_particles=50,
                               seed=1)
        with pytest.warns(RuntimeWarning, match="unstable"):
            code = main(["simulate", "--config", cfg, "--out", out])
        assert code == 1
        assert "NumericalBlowup" in capsys.readouterr().err
        report = read_json(out, "simulate_report.json")
        err = report["error"]
        assert err["type"] == "NumericalBlowup"
        assert isinstance(err["step_index"], int) and 1 <= err["step_index"] <= 300
        assert report["config"]["simulation"]["dt"] == 3.0
        assert "oracle" not in report

    def test_init_length_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "simulate",
            "potential": {"family": "quadratic_diagonal", "v": [1.0, 2.0]},
            "simulation": {"seed": 0, "init_q": [1.0]},
        })
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "simulation.init_q" in capsys.readouterr().err

    def test_log_cosh_proxy_trends_down(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kind": "simulate",
            "potential": {"family": "perturbed_diagonal", "v": [1.0],
                          "eps": 0.1},
            "friction": {"kind": "hessian_sqrt", "s": 2.0},
            "simulation": {"dt": 2e-3, "n_steps": 1500, "n_particles": 10000,
                           "seed": 3, "record_every": 50, "init_q": [2.0],
                           "init_p": [0.0]},
        })
        out = str(tmp_path / "lch")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "simulate_report.json")
        assert report["oracle"] is None
        assert report["chi2_proxy_target"] == "curvature_matched_proxy"
        with open(os.path.join(out, "trajectory.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        proxies = [float(l.split(",")[-1]) for l in lines
                   if l.split(",")[-1] != ""]
        assert len(proxies) == 30
        # relax toward the curvature-matched reference from a far start
        assert proxies[-1] < 0.05 * proxies[0]
        assert proxies[-1] < 1.0
        smoothed = np.convolve(proxies, np.ones(5) / 5.0, mode="valid")
        assert smoothed[-1] < smoothed[0]


class TestCertify:
    def test_quadratic_certificate_and_table(self, tmp_path):
        out = str(tmp_path / "cert")
        assert main(["certify", "--out", out]) == 0
        report = read_json(out, "certificate.json")
        cert = report["certificate"]
        assert cert["coefficients"] == {"a": 4.0, "b": 20.0, "c": 1.0,
                                        "s": 2.0}
        assert cert["m1"] == pytest.approx(0.5, abs=1e-12)
        assert cert["original_rate"] == pytest.approx(0.5, abs=1e-12)
        assert cert["valid"] is True
        comparison = report["comparison"]
        assert comparison["applicable"] is True
        assert comparison["all_dominated"] is True
        assert comparison["min_margin"] > 0.3
        assert comparison["sufficient_condition_ratio"] == 0.0

        with open(os.path.join(out, "optimizer_table.csv"),
                  encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ("s,x0,m1,m2,rescaled_rate,original_rate,"
                            "valid,error")
        assert len(lines) == 1 + 5 * 4
        # row-major ordering: s outer, x0 inner
        first_cols = [l.split(",")[0] for l in lines[1:]]
        assert first_cols == [s for s in
                              ("1.0", "1.5", "2.0", "3.0", "4.0")
                              for _ in range(4)]

    def test_invalid_certificate_still_exits_zero(self, tmp_path):
        # no cell of the default grid is valid at eps = 0.5, so the report
        # falls back to the cell with the largest m1
        cfg = write_config(tmp_path, {
            "kind": "certify",
            "potential": {"family": "perturbed_diagonal", "v": [1.0],
                          "eps": 0.5},
        })
        out = str(tmp_path / "cert")
        assert main(["certify", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "certificate.json")
        assert report["certificate"]["valid"] is False
        rows = read_csv(out, "optimizer_table.csv")[1:]
        assert all(r[6] == "false" for r in rows)
        assert report["certificate"]["m1"] == max(float(r[2]) for r in rows)
        comparison = report["comparison"]
        assert comparison["applicable"] is False
        assert comparison["dominates"] is None
        assert "reason" in comparison

    @pytest.mark.parametrize("v, eps", [([1.0, 2.0], 0.1), ([1.0], 0.3)])
    def test_best_valid_rate_chosen(self, tmp_path, v, eps):
        # the largest m1 (s = 2, x0 = 1) is invalid here; valid cells with
        # smaller m1 certify a positive rate that dominates the baseline
        cfg = write_config(tmp_path, {
            "kind": "certify",
            "potential": {"family": "perturbed_diagonal", "v": v, "eps": eps},
        })
        out = str(tmp_path / "cert")
        assert main(["certify", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "certificate.json")
        cert = report["certificate"]
        assert cert["valid"] is True
        assert report["comparison"]["all_dominated"] is True
        rows = read_csv(out, "optimizer_table.csv")[1:]
        rates = [float(r[5]) for r in rows if r[6] == "true"]
        assert cert["original_rate"] == max(rates) > 0
        assert any(r[6] == "false" and float(r[2]) > cert["m1"] for r in rows)

    def test_small_perturbation_dominates(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kind": "certify",
            "potential": {"family": "perturbed_diagonal", "v": [1.0],
                          "eps": 0.01},
        })
        out = str(tmp_path / "cert")
        assert main(["certify", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "certificate.json")
        assert report["certificate"]["valid"] is True
        comparison = report["comparison"]
        assert comparison["all_dominated"] is True
        assert comparison["sufficient_condition_ratio"] < 1e-3


    def test_infeasible_cells_counted_by_error_type(self, tmp_path):
        out = str(tmp_path / "cert0")
        assert main(["certify", "--out", out]) == 0
        assert read_json(out, "certificate.json")["infeasible_cells"] == {}

        # x0 = 0.5 is below s / sqrt(s^2 + 4) for s = 2 and 4, not for s = 1
        cfg = write_config(tmp_path, {
            "kind": "certify",
            "certificate": {"s_grid": [1.0, 2.0, 4.0],
                            "x0_grid": [0.5, 1.0, 10.0]},
        })
        out = str(tmp_path / "cert")
        assert main(["certify", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "certificate.json")
        assert report["infeasible_cells"] == {"ValueError": 2}
        rows = read_csv(out, "optimizer_table.csv")[1:]
        assert sum(1 for r in rows if r[-1]) == 2

    def test_overflowing_cell_is_infeasible(self, tmp_path):
        # s^-5 overflows at s = 1e-100; the sweep goes on past that row
        cfg = write_config(tmp_path, {
            "kind": "certify",
            "certificate": {"s_grid": [1e-100, 2.0], "x0_grid": [10.0]},
        })
        out = str(tmp_path / "cert")
        assert main(["certify", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "certificate.json")
        assert report["infeasible_cells"] == {"OverflowError": 1}
        assert report["certificate"]["coefficients"]["s"] == 2.0


    def test_rows_keep_header_width(self, tmp_path):
        # both infeasible kinds of cell have an error message with a comma
        cfg = write_config(tmp_path, {
            "kind": "certify",
            "certificate": {"s_grid": [1e-100, 2.0], "x0_grid": [0.5, 10.0]},
        })
        out = str(tmp_path / "cert")
        assert main(["certify", "--config", cfg, "--out", out]) == 0
        header, *rows = read_csv(out, "optimizer_table.csv")
        assert [len(r) for r in rows] == [len(header)] * 4
        overflow = "the certificate arithmetic overflows at s = 1e-100, x0 = "
        assert [r[-1] for r in rows] == [
            overflow + "0.5", overflow + "10.0",
            "x0 must exceed 0.707107 for s = 2 to keep S positive definite, "
            "got 0.5",
            ""]


class TestCompare:
    def test_reference_comparison(self, tmp_path):
        out = str(tmp_path / "cmp")
        assert main(["compare", "--out", out]) == 0
        comparison = read_json(out, "comparison.json")["comparison"]
        assert comparison["applicable"] is True
        assert comparison["certificate_rate"] == pytest.approx(0.5,
                                                               abs=1e-12)
        assert len(comparison["baseline_rates"]) == len(
            comparison["lambda_grid"])
        assert comparison["all_dominated"] is True

    def test_large_friction_baselines(self, tmp_path):
        # 2 lam sup lambda_dms tends to 8 alpha^2 / (1 + alpha)^2
        cfg = write_config(tmp_path, {"kind": "compare", "certificate": {
            "lambda_grid": [1e8, 1e12]}})
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "comparison.json")
        alpha = report["certificate"]["constants"]["alpha"]
        limit = 8.0 * alpha * alpha / ((1.0 + alpha) * (1.0 + alpha))
        assert report["comparison"]["baseline_rates"] == [
            pytest.approx(limit / lam, rel=1e-6) for lam in (1e8, 1e12)]

    @pytest.mark.parametrize("v", [[1e-25, 1e100], [1.0, 1e80]])
    def test_zero_gamma_has_no_nan(self, tmp_path, v):
        # a quadratic has gamma = 0: its rate is m1, also where m2 or
        # kappa^2 is inf, and the smallness ratio is 0
        cfg = write_config(tmp_path, {"kind": "compare",
                                      "potential": {"v": v}})
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        # m2 is inf for the first potential: read Infinity as data
        with open(os.path.join(out, "comparison.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
        cert = report["certificate"]
        assert cert["rescaled_rate"] == cert["m1"] > 0.0
        assert cert["valid"] is True
        assert report["comparison"]["sufficient_condition_ratio"] == 0.0
        assert report["comparison"]["applicable"] is True

    def test_infeasible_x0_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "compare",
                                      "certificate": {"x0": 0.5}})
        assert main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "certificate.x0" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        ("certify", "certificate.json"), ("compare", "comparison.json")])
    def test_huge_eps_ratio_is_infinite(self, tmp_path, command, name):
        # beta^2 gamma^2 overflows a float at eps = 1e160: the ratio is
        # data (Infinity), not an OverflowError
        cfg = write_config(tmp_path, {
            "kind": command,
            "potential": {"family": "perturbed_diagonal", "v": [1.0],
                          "eps": 1e160},
        })
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["certificate"]["valid"] is False
        assert report["comparison"]["sufficient_condition_ratio"] == math.inf


class TestAudit:
    def test_reference_audit_and_witness_sweep(self, tmp_path):
        out = str(tmp_path / "audit")
        assert main(["audit", "--out", out]) == 0
        report = read_json(out, "audit.json")
        main_part = report["main"]
        assert main_part["certificate"]["coefficients"] == {
            "a": 4.0, "b": 20.0, "c": 1.0, "s": 2.0}
        assert main_part["certificate"]["original_rate"] == pytest.approx(0.5)
        audit = main_part["audit"]
        assert audit["all_passed"] is True
        assert audit["monotone_nonincreasing"] is True
        assert audit["bound_satisfied"] is True
        assert len(audit["values"]) == 200

        rates = [e["rate"] for e in report["witness_sweep"]]
        assert rates == pytest.approx([1.0, 1.5, 1.9])
        for entry in report["witness_sweep"]:
            assert entry["audit"]["all_passed"] is True
        assert report["all_passed"] is True

    def test_default_audit_inverts_nothing(self, tmp_path, monkeypatch):
        # A^-1 and G^-1 come from the eigh that checks each matrix
        real_inv = np.linalg.inv
        calls = []

        def inv(m):
            calls.append(m)
            return real_inv(m)

        monkeypatch.setattr(np.linalg, "inv", inv)
        assert main(["audit", "--out", str(tmp_path / "audit")]) == 0
        assert calls == []

    def test_three_dimensional_audit(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kind": "audit",
            "potential": {"family": "quadratic_diagonal",
                          "v": [1.0, 2.0, 3.0]},
            "certificate": {"eps_rates": [0.5]},
            "audit": {"t_max": 6.0, "n_times": 60, "init_cov_scale": 0.5},
        })
        out = str(tmp_path / "audit3")
        assert main(["audit", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "audit.json")
        assert report["main"]["audit"]["all_passed"] is True
        witness = report["witness_sweep"][0]["witness"]
        assert (witness["a"], witness["x"], witness["y"]) == (32.0, 4.0, 2.0)
        assert report["witness_sweep"][0]["audit"]["all_passed"] is True

    def test_divergent_points_counted(self, tmp_path):
        out = str(tmp_path / "audit0")
        assert main(["audit", "--out", out]) == 0
        report = read_json(out, "audit.json")
        assert report["main"]["audit"]["divergent_points"] == 0

        # a start wider than twice the Gibbs covariance: chi2 diverges early
        cfg = write_config(tmp_path, {
            "kind": "audit",
            "certificate": {"eps_rates": [0.5]},
            "audit": {"t_max": 6.0, "n_times": 60, "init_cov_scale": 3.0},
        })
        out = str(tmp_path / "audit")
        assert main(["audit", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "audit.json")
        audits = [report["main"]["audit"]] + [
            e["audit"] for e in report["witness_sweep"]]
        for audit in audits:
            flags = audit["divergent_flags"]
            assert audit["divergent_points"] == sum(flags)
            assert 0 < audit["divergent_points"] < len(flags)

    def test_witness_sweep_errors_reported(self, tmp_path, monkeypatch):
        # no config that audit accepts leaves the default eps_rates without
        # a witness, so the search is made to fail; the main audit still runs
        def not_found(v, eps_rate):
            raise WitnessNotFound(f"none for eps_rate = {eps_rate}")

        monkeypatch.setattr(cli, "diag_quadratic_certificate", not_found)
        out = str(tmp_path / "audit")
        assert main(["audit", "--out", out]) == 0
        report = read_json(out, "audit.json")
        assert len(report["witness_sweep"]) == 3
        for entry in report["witness_sweep"]:
            assert entry["error"] == (
                f"WitnessNotFound: none for eps_rate = {entry['eps_rate']}")
            assert entry["rate"] is None and entry["audit"] is None
        assert report["main"]["audit"]["all_passed"] is True
        assert report["all_passed"] is False

    @pytest.mark.parametrize("v, rates", [
        ([0.5], [0.5, 0.75, 0.95]),
        ([2.0], [2.0, 3.0, 3.8]),
        ([0.5, 3.0], [0.5, 0.75, 0.95]),
        ([1e-3, 1e-2], [1e-3, 1.5e-3, 1.9e-3]),
    ])
    def test_witness_rates_scale_with_min_v(self, tmp_path, v, rates):
        # the search runs on v / min v, and its rate 2 - eps_rate maps back
        # to min v (2 - eps_rate), which approaches the exact 2 min v
        cfg = write_config(tmp_path, {"kind": "audit",
                                      "potential": {"v": v}})
        out = str(tmp_path / "audit")
        assert main(["audit", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "audit.json")
        sweep = report["witness_sweep"]
        assert [e["rate"] for e in sweep] == pytest.approx(rates, rel=1e-15)
        assert all(e["audit"]["all_passed"] for e in sweep)
        assert report["all_passed"] is True

    def test_non_quadratic_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "audit",
            "potential": {"family": "perturbed_diagonal", "v": [1.0],
                          "eps": 0.1},
        })
        assert main(["audit", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "potential.family" in capsys.readouterr().err

    def test_out_of_range_eps_rate_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "audit",
                                      "certificate": {"eps_rates": [2.0]}})
        assert main(["audit", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "certificate.eps_rates" in capsys.readouterr().err


#: an x0 a few ulp above x_min(2): the s = 2 weights form a degenerate S
DEGENERATE_X0 = 0.7071067811865477

#: (command, config, the field the error names); the test ids are the
#: command and the row index, as they were before the field column
CONFIG_ERRORS = [
    ("certify", {"potential": {"v": [-1.0]}}, "potential.v"),
    ("compare", {"potential": {"v": [-1.0]}}, "potential.v"),
    ("simulate", {"potential": {"v": [-1.0]}}, "potential.v"),
    ("compare", {"certificate": {"x0": 0.1}}, "certificate.x0"),
    ("audit", {"audit": {"x0": 0.1}}, "audit.x0"),
    ("simulate", {"simulation": {"init_q": [1.0, 2.0]}}, "simulation.init_q"),
    ("certify", {"certificate": {"s_grid": [1.0], "x0_grid": [0.1]}},
     "certificate.s_grid, certificate.x0_grid"),
    ("audit", {"potential": {"family": "perturbed_diagonal", "v": [1.0],
                             "eps": 0.1}}, "potential.family"),
    # friction strengths whose square overflows
    ("certify", {"certificate": {"lambda_grid": [1.0, 1e155]}},
     "certificate.lambda_grid"),
    ("compare", {"certificate": {"lambda_grid": [1e155]}},
     "certificate.lambda_grid"),
    ("oracle-ou", {"oracle": {"lambda_grid": [1e200]}}, "oracle.lambda_grid"),
    # friction.s is checked whatever the kind, before the rule that these
    # commands take the hessian_sqrt friction alone
    ("oracle-ou", {"friction": {"kind": "constant_scalar", "lam": 1.0,
                                "s": -1.0}}, "friction.s"),
    ("compare", {"friction": {"kind": "constant_scalar", "lam": 1.0,
                              "s": -1.0}}, "friction.s"),
    # a 2 x 2 friction against the 1-d default potential
    ("simulate", {"friction": {"kind": "constant_matrix",
                               "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
     "friction.matrix"),
    ("certify", {"certificate": {"s_grid": [-1.0]}}, "certificate.s_grid"),
    ("certify", {"certificate": {"s_grid": [-1.0, 2.0]}},
     "certificate.s_grid"),
    ("certify", {"certificate": {"x0_grid": [2.0, -1.0]}},
     "certificate.x0_grid"),
    # w^2 or a closed-form rate that underflows leaves no finite fit window
    ("oracle-ou", {"oracle": {"w": 1e-160}}, "oracle.w"),
    ("oracle-ou", {"oracle": {"w": 1e-154}}, "oracle.w"),
    ("oracle-ou", {"oracle": {"w": 1e-100, "lambda_grid": [1e150]}},
     "oracle.w"),
    ("oracle-ou", {"oracle": {"w": 1e-200}}, "oracle.w"),
    # certificate arithmetic that overflows: s^2 is checked with the
    # config, s^-5 and a^2 when the certificate is taken
    ("compare", {"friction": {"s": 1e160}}, "friction.s"),
    ("audit", {"friction": {"s": 1e300}}, "friction.s"),
    ("compare", {"friction": {"s": 1e-100}}, "friction.s, certificate.x0"),
    ("audit", {"friction": {"s": 1e-100}}, "friction.s, audit.x0"),
    ("certify", {"certificate": {"s_grid": [1e300]}}, "certificate.s_grid"),
    ("certify", {"certificate": {"s_grid": [1e-100]}},
     "certificate.s_grid, certificate.x0_grid"),
    ("compare", {"certificate": {"x0": 1e300}}, "friction.s, certificate.x0"),
    ("audit", {"audit": {"x0": 1e300}}, "friction.s, audit.x0"),
    # a frequency whose square overflows
    ("certify", {"potential": {"v": [1e200]}}, "potential.v"),
    ("compare", {"potential": {"v": [1e200]}}, "potential.v"),
    ("simulate", {"potential": {"v": [1e200]}}, "potential.v"),
    ("audit", {"potential": {"v": [1e200]}}, "potential.v"),
    # frequencies whose alpha = beta = v^2 lies outside the range in which
    # certificates are taken
    ("certify", {"potential": {"v": [1e-55]}}, "potential.v"),
    ("compare", {"potential": {"v": [1e-55]}}, "potential.v"),
    ("audit", {"potential": {"v": [1e-55]}}, "potential.v"),
    ("certify", {"potential": {"v": [1e150]}}, "potential.v"),
    ("compare", {"potential": {"v": [1e150]}}, "potential.v"),
    ("audit", {"potential": {"v": [1e150]}}, "potential.v"),
    # x0 just above x_min(2) = 1/sqrt(2): b c - a^2 rounds to 0
    ("compare", {"certificate": {"x0": DEGENERATE_X0}},
     "friction.s, certificate.x0"),
    ("audit", {"audit": {"x0": DEGENERATE_X0}}, "friction.s, audit.x0"),
    # every command that reads friction.s as the hessian_sqrt scale takes
    # that friction alone
    ("oracle-ou", {"friction": {"kind": "constant_scalar", "lam": 1.0}},
     "friction.kind"),
    ("compare", {"friction": {"kind": "constant_scalar", "lam": 1.0}},
     "friction.kind"),
    ("compare", {"friction": {"kind": "constant_matrix", "matrix": [[2.0]]}},
     "friction.kind"),
    ("audit", {"friction": {"kind": "constant_scalar", "lam": 1.0}},
     "friction.kind"),
    # oracle.w is judged with the config, as friction.s is
    ("oracle-ou", {"oracle": {"w": 1e155}}, "oracle.w"),
    ("oracle-ou", {"oracle": {"w": -1.0}}, "oracle.w"),
    # a Hessian or friction matrix inside the certificate range that the
    # linearized oracle's SPD rule rejects: kappa(Hess V) = 1e10, whose
    # root hessian_sqrt takes, and kappa(Gamma) = 1e11
    ("audit", {"potential": {"v": [1.0, 1e5]}}, "potential.v"),
    ("simulate", {"potential": {"v": [1.0, 1e5]}}, "potential.v"),
    ("simulate", {"potential": {"v": [1.0, 1.0]},
                  "friction": {"kind": "constant_matrix",
                               "matrix": [[1.0, 0.0], [0.0, 1e-11]]}},
     "friction.matrix"),
]


class TestEntryPoint:
    def test_config_kinds_are_the_subcommands(self):
        # the config's kinds and the CLI's subcommands are one list
        assert set(KINDS) == set(_COMMANDS)

    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_config_echo_written_for_every_command(self, tmp_path):
        for command in ("oracle-ou", "certify", "compare", "audit"):
            out = str(tmp_path / command)
            assert main([command, "--out", out]) == 0
            echo = read_json(out, "config.json")
            assert echo["format_version"] == FORMAT_VERSION
            assert echo["config"]["kind"] == command

    @pytest.mark.parametrize("command, payload, field", CONFIG_ERRORS, ids=[
        f"{command}-payload{i}" for i, (command, _, _) in enumerate(CONFIG_ERRORS)
    ])
    def test_config_error_leaves_no_output(self, tmp_path, capsys, command,
                                           payload, field):
        # an error found while building the run comes before the config echo
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not out.exists()

    def test_failed_cell_is_a_config_error_everywhere(self, tmp_path, capsys):
        # certify's one-cell grid, compare and audit judge the same cell
        # alike: exit 2, a message naming fields, nothing written
        runs = [
            ("certify", {"certificate": {"s_grid": [2.0],
                                         "x0_grid": [DEGENERATE_X0]}},
             "certificate.s_grid, certificate.x0_grid"),
            ("compare", {"certificate": {"x0": DEGENERATE_X0}},
             "friction.s, certificate.x0"),
            ("audit", {"audit": {"x0": DEGENERATE_X0}}, "friction.s, audit.x0"),
        ]
        for command, payload, fields in runs:
            out = tmp_path / command
            assert main([command, "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                f"config error: {fields}: ")
            assert not out.exists()

    def test_runtime_error_writes_report(self, tmp_path, capsys):
        # at w = 1e5 rho stays more than twice pi's width in whitened q
        # over the whole fit window, so every chi2 there is +inf and the
        # log-linear fit names the first one
        cfg = write_config(tmp_path, {"kind": "oracle-ou",
                                      "oracle": {"w": 1e5}})
        out = str(tmp_path / "out")
        assert main(["oracle-ou", "--config", cfg, "--out", out]) == 1
        assert ("error: NonPositiveValues: chi2[0] = inf at t = "
                in capsys.readouterr().err)
        assert sorted(os.listdir(out)) == ["config.json",
                                           "oracle_ou_summary.json"]
        report = read_json(out, "oracle_ou_summary.json")
        assert report["error"]["type"] == "NonPositiveValues"
        assert report["error"]["step_index"] is None
        assert report["error"]["message"]
        assert report["config"] == read_json(out, "config.json")["config"]

    @pytest.mark.parametrize("module", ["scipy.optimize", "scipy.linalg"])
    def test_import_leaves_scipy_out(self, module):
        # every CLI process pays the package import; scipy.optimize alone
        # would add about 240 modules to it, and scipy.linalg, which only
        # expm needs, about 0.3 s
        src = os.path.dirname(os.path.dirname(os.path.abspath(kinlang.__file__)))
        script = ("import sys, kinlang, kinlang.cli\n"
                  "print(sorted(m for m in sys.modules\n"
                  f"             if m.startswith({module!r})))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command, payload, loaded", [
        ("oracle-ou", {}, False),
        ("audit", {}, False),
        ("simulate", {}, False),
        ("simulate", {"potential": {"v": [1.0, 2.0]},
                      "friction": {"kind": "constant_matrix",
                                   "matrix": [[2.0, 0.5], [0.5, 3.0]]}}, True),
        # A = I: every basis is an eigenbasis, and the modes are Gamma's
        ("simulate", {"potential": {"v": [1.0, 1.0]},
                      "friction": {"kind": "constant_matrix",
                                   "matrix": [[1.0, 0.5], [0.5, 1.0]]}}, False),
    ], ids=["oracle-ou", "audit", "simulate", "simulate-non-commuting",
            "simulate-repeated-eigenvalue"])
    def test_run_loads_scipy_only_for_expm(self, tmp_path, command, payload,
                                           loaded):
        # the default oracles, and any friction that commutes with A,
        # propagate in closed form over the modes of A and Gamma; a friction
        # that does not commute with A takes linalg.expm, which loads
        # scipy.linalg on its first call
        src = os.path.dirname(os.path.dirname(os.path.abspath(kinlang.__file__)))
        cfg = write_config(tmp_path, {"kind": command, **payload})
        script = ("import sys, kinlang.cli\n"
                  f"code = kinlang.cli.main([{command!r}, '--config', {cfg!r},\n"
                  "                          '--out', 'out', '--seed', '1'])\n"
                  "print(code, any(m.startswith('scipy') for m in sys.modules))\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", str(loaded)]


#: small configs, one per command, for the report-schema snapshot
SCHEMA_CONFIGS = {
    "oracle-ou": {"oracle": {"lambda_grid": [1.0, 3.0], "v": [1.0, 2.0],
                             "n_times": 8}},
    "simulate": {"simulation": {"n_steps": 4, "n_particles": 16,
                                "record_every": 2, "seed": 1}},
    "certify": {"certificate": {"s_grid": [2.0], "x0_grid": [10.0],
                                "lambda_grid": [1.0]}},
    "compare": {"certificate": {"lambda_grid": [1.0]}},
    "audit": {"certificate": {"eps_rates": [0.5]}, "audit": {"n_times": 5}},
}

_CERTIFICATE_KEYS = (
    "certificate certificate.L1 certificate.L2 certificate.coefficients "
    "certificate.coefficients.a certificate.coefficients.b "
    "certificate.coefficients.c certificate.coefficients.s "
    "certificate.constants certificate.constants.alpha "
    "certificate.constants.beta certificate.constants.dim "
    "certificate.constants.gamma certificate.constants.kappa certificate.m1 "
    "certificate.m2 certificate.original_rate certificate.rescaled_rate "
    "certificate.valid")
_COMPARISON_KEYS = (
    "comparison comparison.all_dominated comparison.applicable "
    "comparison.baseline_rates comparison.certificate_rate "
    "comparison.dominates comparison.lambda_grid comparison.min_margin "
    "comparison.sufficient_condition_ratio")
_AUDIT_KEYS = (
    "audit audit.all_passed audit.bound_margins audit.bound_satisfied "
    "audit.derivative_satisfied audit.divergent_flags audit.divergent_points "
    "audit.initial_time audit.initial_value audit.monotone_nonincreasing "
    "audit.rate audit.times audit.tol audit.values")

#: the key paths of every JSON report at FORMAT_VERSION 3, with list
#: indices collapsed to []; each report embeds config.json's config, whose
#: keys are listed once, under config.json
REPORT_KEYS = {
    "config.json": " ".join(
        ["config config.kind config.out_dir format_version tool"]
        + [f"config.{section} " + " ".join(f"config.{section}.{f}"
                                           for f in fields.split())
           for section, fields in (
               ("audit", "init_cov_scale init_q_mean n_times t_max x0"),
               ("certificate", "eps_rates lambda_grid s_grid x0 x0_grid"),
               ("friction", "kind lam matrix s"),
               ("oracle", "lambda_grid n_times v w"),
               ("potential", "eps family matrix perturbation v"),
               ("simulation", "dt init_p init_q n_particles n_steps "
                              "record_every seed"))]),
    "oracle_ou_summary.json": (
        "cases cases[].closed_form_rate cases[].fitted_rate cases[].friction "
        "cases[].lam cases[].relative_gap cases[].s cases[].w config "
        "dominance dominance.hessian_sqrt_maximal dominance.hessian_sqrt_rate "
        "dominance.s dominance.table dominance.table[].constant_scalar_rate "
        "dominance.table[].dominated dominance.table[].hessian_sqrt_rate "
        "dominance.table[].lam dominance.v format_version max_relative_gap "
        "tool"),
    "simulate_report.json": (
        "chi2_proxy_target config final_chi2_proxy final_time format_version "
        "n_records oracle oracle.cov_scale oracle.exact_cov oracle.exact_mean "
        "oracle.max_abs_cov_error oracle.max_abs_mean_error oracle.max_mean_z "
        "oracle.sample_cov oracle.sample_mean tool"),
    "certificate.json": " ".join([
        _CERTIFICATE_KEYS, _COMPARISON_KEYS,
        "config format_version infeasible_cells tool"]),
    "comparison.json": " ".join([
        _CERTIFICATE_KEYS, _COMPARISON_KEYS, "config format_version tool"]),
    "audit.json": " ".join(
        ["all_passed config format_version main tool witness_sweep "
         "witness_sweep[].eps_rate witness_sweep[].rate witness_sweep[].witness "
         "witness_sweep[].witness.a witness_sweep[].witness.b "
         "witness_sweep[].witness.c witness_sweep[].witness.eps_rate "
         "witness_sweep[].witness.x witness_sweep[].witness.y"]
        + [f"main.{k}" for k in (_AUDIT_KEYS + " " + _CERTIFICATE_KEYS).split()]
        + [f"witness_sweep[].{k}" for k in _AUDIT_KEYS.split()]),
}


def key_paths(node, prefix=""):
    """Every dict key in node as a dotted path; list indices become []."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | key_paths(value, path)
    elif isinstance(node, list):
        for value in node:
            paths |= key_paths(value, prefix + "[]")
    return paths


class TestReportSchema:
    def test_key_paths_frozen(self, tmp_path):
        # a key comes or goes only together with a FORMAT_VERSION bump,
        # which must update REPORT_KEYS
        assert FORMAT_VERSION == 3
        seen = set()
        for command, payload in SCHEMA_CONFIGS.items():
            cfg = write_config(tmp_path, {"kind": command, **payload},
                               name=f"{command}.json")
            out = str(tmp_path / command)
            assert main([command, "--config", cfg, "--out", out]) == 0
            for name in sorted(os.listdir(out)):
                if not name.endswith(".json"):
                    continue
                report = read_json(out, name)
                if name != "config.json":
                    report["config"] = {}
                assert sorted(key_paths(report)) == sorted(
                    REPORT_KEYS[name].split()), (command, name)
                seen.add(name)
        assert seen == set(REPORT_KEYS)


#: sha256 of every file the five default commands write (``--seed 1`` for
#: simulate), each run with the relative ``--out`` named after the command
GOLDEN_DIGESTS = {
    "oracle-ou/config.json":
        "70a5b09c1b7e08830ccb0d6346c6c48f4aedec8bd7c578d39d93fff60cd4c89e",
    "oracle-ou/oracle_ou.csv":
        "ebdaeea0e07368f0418af43f6c9f54ae8fbd1aa41a5c6cbbecd9fb2b6b396e8f",
    "oracle-ou/oracle_ou_summary.json":
        "a5fd35a92ab5631c36dba9393f9d6121b1f7abb1316b1504d4dadfafaa689a6a",
    "simulate/config.json":
        "d5e9c9c2e739d5a0483bdbc2b52279dabad43f73a24c42ee2e51cbf4f70ad9c8",
    "simulate/simulate_report.json":
        "4c8c92abe872a0c1bddf395b85d40fb3e2eab598c4f5d3bdf842eb853c2f045f",
    "simulate/trajectory.csv":
        "affd474a1213621dfe4c9a9a0212a0192f1333cce855f9778ab30992309676e6",
    "certify/certificate.json":
        "6b8a1c729936b1982cf8fb953c1c9825006149b8c6d78cc43b7abf4c53d86afe",
    "certify/config.json":
        "ea16428f13a06c2b6923f01cb2ed7525c3e8f0ba5247c01b9c99f60d3956b26b",
    "certify/optimizer_table.csv":
        "f0b2a590780ac4f8ca1c0a0c74af1e7f3eb02998e11844564c6104887cb1b3a0",
    "compare/comparison.json":
        "2553250d64b6f7ea3d6d740eccda595523d23364a7444ebdbb7f2616a635f614",
    "compare/config.json":
        "98ca5dae2060f8183d9a73ac5253bb2964a1f61e0ea8ef7697075f051d6ba03f",
    "audit/audit.json":
        "723b62e924565610726c58a6ac9f3a4508d8b65b68a15c913c79d6c9c83515a4",
    "audit/config.json":
        "9129be26ee21c75cce119907aaa768f070ba63d04532b076a394b0326d7328c4",
}


class TestGoldenDigests:
    def test_default_outputs_frozen(self, tmp_path, monkeypatch):
        """The bytes of the default outputs, frozen.

        The digests belong to the NumPy/LAPACK build they were frozen on;
        another build may move last bits.  An intended bit change freezes
        them again and says so in the change log.  The runs use a fixed
        relative ``--out`` from a temporary working directory, because every
        report embeds its ``out_dir``.
        """
        monkeypatch.chdir(tmp_path)
        digests = {}
        for command in ("oracle-ou", "simulate", "certify", "compare", "audit"):
            seed = ["--seed", "1"] if command == "simulate" else []
            assert main([command, "--out", command, *seed]) == 0
            for name in sorted(os.listdir(command)):
                with open(os.path.join(command, name), "rb") as fh:
                    digests[f"{command}/{name}"] = hashlib.sha256(
                        fh.read()).hexdigest()
        # pytest's dict diff truncates; the message names every moved file
        moved = sorted(name for name in set(digests) | set(GOLDEN_DIGESTS)
                       if digests.get(name) != GOLDEN_DIGESTS.get(name))
        assert digests == GOLDEN_DIGESTS, f"moved: {', '.join(moved)}"
