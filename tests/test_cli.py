"""Command-line harness: config validation, artifacts, determinism, exits."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import kinlang
from kinlang.cli import FORMAT_VERSION, main
from kinlang.config import (
    PotentialConfig,
    SimulationConfig,
    build_friction,
    build_potential,
    config_from_dict,
    load_config,
)
from kinlang.errors import ConfigError

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


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        # also when --seed overrides the file's seed
        for section, field_name in [
            ({"seed": 0, "dt": "fast"}, "simulation.dt"),
            ({"n_steps": 2.7}, "simulation.n_steps"),
            ({"seed": True}, "simulation.seed"),
            (5, "simulation"),
        ]:
            cfg = write_config(tmp_path, {"kind": "simulate",
                                          "simulation": section})
            assert main(["simulate", "--config", cfg, "--seed", "1",
                         "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field_name}: expected "), err

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
        cfg = write_config(tmp_path, {
            "kind": "certify",
            "potential": {"family": "perturbed_diagonal", "v": [1.0],
                          "eps": 0.3},
        })
        out = str(tmp_path / "cert")
        assert main(["certify", "--config", cfg, "--out", out]) == 0
        report = read_json(out, "certificate.json")
        assert report["certificate"]["valid"] is False
        comparison = report["comparison"]
        assert comparison["applicable"] is False
        assert comparison["dominates"] is None
        assert "reason" in comparison

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
        with open(os.path.join(out, "optimizer_table.csv"),
                  encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        assert sum(1 for r in rows if r.split(",")[-1]) == 2


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

    def test_infeasible_x0_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "compare",
                                      "certificate": {"x0": 0.5}})
        assert main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "certificate.x0" in capsys.readouterr().err


class TestAudit:
    def test_reference_audit_and_witness_sweep(self, tmp_path):
        out = str(tmp_path / "audit")
        assert main(["audit", "--out", out]) == 0
        report = read_json(out, "audit.json")
        main_part = report["main"]
        assert main_part["coefficients"] == {"a": 4.0, "b": 20.0, "c": 1.0,
                                             "s": 2.0}
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

    def test_non_quadratic_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "audit",
            "potential": {"family": "perturbed_diagonal", "v": [1.0],
                          "eps": 0.1},
        })
        assert main(["audit", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 1
        assert "UnsupportedPotential" in capsys.readouterr().err

    def test_out_of_range_eps_rate_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "audit",
                                      "certificate": {"eps_rates": [2.0]}})
        assert main(["audit", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "certificate.eps_rates" in capsys.readouterr().err


class TestEntryPoint:
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
