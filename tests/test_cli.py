"""End-to-end runs of the command-line entry point on temp directories.

Every subcommand is driven through main(argv) with small configurations;
assertions cover output schemas, the manifest contract, byte-level
determinism, and the exit-code protocol (0/2/3/4).
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import alber_lab.cli as cli
from alber_lab.dynamics import DivergenceError


def write_config(tmp_path: Path, payload: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def simulate_config(out_dir: Path, **extra) -> dict:
    cfg = {
        "output_dir": str(out_dir),
        "seed": 11,
        "grid": {"N": 8},
        "physics": {"p": 1.0, "q": 1.0},
        "time": {"dt": 0.01, "T": 0.05, "record_every": 1},
        "state": {"preset": "random-smooth", "rank": 2, "band": 3, "decay": 3.0},
    }
    cfg.update(extra)
    return cfg


class TestSimulate:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out))])
        assert code == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == list(cli.TRAJECTORY_HEADER)
        assert len(rows) == 6  # t = 0 plus five recorded steps
        assert float(rows[0][0]) == 0.0
        mass0, mass_end = float(rows[0][1]), float(rows[-1][1])
        assert abs(mass_end - mass0) < 1e-10 * mass0
        spectra = json.loads((out / "density_spectra.json").read_text())
        assert len(spectra["t"]) == 6
        assert len(spectra["abs_rho_hat"][0]) == len(spectra["k"])
        assert (out / "final_state.json").exists()

    def test_crlf_line_endings(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out))])
        raw = (out / "trajectory.csv").read_bytes()
        assert b"\r\n" in raw
        assert raw.count(b"\n") == raw.count(b"\r\n")

    def test_manifest_contract(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out))])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "alber-lab/manifest-v1"
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 11
        names = [o["path"] for o in manifest["outputs"]]
        assert "manifest.json" not in names
        assert set(names) == {"trajectory.csv", "density_spectra.json", "final_state.json"}
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_deterministic_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out_a), "a.json")])
        cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out_b), "b.json")])
        for name in ("trajectory.csv", "density_spectra.json", "final_state.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, simulate_config(out_a))
        cli.main(["simulate", "--config", cfg])
        cli.main(["simulate", "--config", cfg, "--seed", "99", "--out", str(out_b)])
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        assert manifest_b["seed"] == 99
        assert (out_a / "trajectory.csv").read_bytes() != (out_b / "trajectory.csv").read_bytes()

    def test_divergence_exit_code(self, tmp_path, monkeypatch):
        # unitary stepping cannot diverge; force the defensive path
        def explode(state, cfg):
            raise DivergenceError(0.02, [])

        monkeypatch.setattr(cli, "evolve", explode)
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out))])
        assert code == 3
        assert (out / "trajectory.csv").exists()
        assert not (out / "final_state.json").exists()

    def test_state_from_file(self, tmp_path):
        out1 = tmp_path / "first"
        cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out1), "one.json")])
        cfg = simulate_config(tmp_path / "second")
        cfg["state"] = {"file": str(out1 / "final_state.json")}
        code = cli.main(["simulate", "--config", write_config(tmp_path, cfg, "two.json")])
        assert code == 0


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["simulate", "--config", str(bad)]) == 2

    def test_missing_output_dir(self, tmp_path):
        cfg = simulate_config(tmp_path / "x")
        del cfg["output_dir"]
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2

    def test_missing_grid(self, tmp_path):
        cfg = simulate_config(tmp_path / "x")
        del cfg["grid"]
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2

    def test_zero_coupling_rejected(self, tmp_path):
        cfg = simulate_config(tmp_path / "x", physics={"p": 1.0, "q": 0.0})
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2

    def test_bad_state_preset(self, tmp_path):
        cfg = simulate_config(tmp_path / "x")
        cfg["state"] = {"preset": "nonsense"}
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2

    def test_fractional_horizon_rejected(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path / "x", time={"dt": 0.03, "T": 0.05})
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert "whole number of steps" in capsys.readouterr().err

    def test_missing_cli_args(self):
        with pytest.raises(SystemExit):
            cli.main(["simulate"])
        with pytest.raises(SystemExit):
            cli.main(["nonsense", "--config", "x.json"])


class TestPenrose:
    def penrose_config(self, out_dir, background, **section):
        sec = {"background": background, "k_max": 2, "n_eta": 10, "c_bilinear": 2.0}
        sec.update(section)
        return {"output_dir": str(out_dir), "seed": 5, "penrose": sec}

    def test_unstable_preset(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.penrose_config(out, "remark-5-2-unstable")
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 0
        header, rows = read_csv(out / "margins.csv")
        assert header == ["k", "margin", "argmin_re", "argmin_im", "zeros"]
        assert len(rows) == 2
        assert float(rows[0][1]) <= 1e-6  # k = 1 carries the instability
        assert rows[0][4] != ""
        consts = json.loads((out / "constants.json").read_text())
        assert consts["stable_in_scan"] is False
        assert "constants" not in consts
        assert consts["kappa_scanned"] <= 1e-6

    def test_stable_preset(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.penrose_config(out, "stable-broad")
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 0
        consts = json.loads((out / "constants.json").read_text())
        assert consts["stable_in_scan"] is True
        assert consts["kappa_scanned"] > 0.01
        assert consts["constants"]["t_star"] > 0.0
        assert consts["constants"]["c_star"] > 0.0
        _, rows = read_csv(out / "margins.csv")
        assert all(row[4] == "" for row in rows)

    def test_zero_background_margin_one(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.penrose_config(out, {"symbol": [0.0]})
        cfg["physics"] = {"p": 1.0, "q": 1.0}
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 0
        _, rows = read_csv(out / "margins.csv")
        assert all(float(row[1]) == 1.0 for row in rows)

    def test_symbol_background_needs_physics(self, tmp_path):
        cfg = self.penrose_config(tmp_path / "x", {"symbol": [0.1, 1.0, 0.1]})
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 2

    def test_bad_symbol_rejected(self, tmp_path):
        cfg = self.penrose_config(tmp_path / "x", {"symbol": [1.0, -0.5, 1.0]})
        cfg["physics"] = {"p": 1.0, "q": 1.0}
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 2


class TestPerturb:
    def perturb_config(self, out_dir, epsilon, **section):
        sec = {
            "background": "stable-broad",
            "epsilon": epsilon,
            "kappa": 0.03,
            "c_bilinear": 2.0,
            "T": 0.2,
            "dt": 0.01,
            "record_every": 5,
            "seed_band": 2,
        }
        sec.update(section)
        return {
            "output_dir": str(out_dir),
            "seed": 7,
            "grid": {"N": 6},
            "perturb": sec,
        }

    def test_small_perturbation(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.perturb_config(out, 1e-3, fit_window=[0.05, 0.2])
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 0
        header, rows = read_csv(out / "deviation.csv")
        assert header == ["t", "deviation_h1s1", "linearized_h1s1", "bound", "fit_rate"]
        assert float(rows[0][0]) == 0.0
        devs = [float(r[1]) for r in rows]
        bounds = [float(r[3]) for r in rows]
        assert all(d <= b for d, b in zip(devs, bounds))
        assert 0.0 < max(devs) < 0.1  # deviation stays at the epsilon scale
        summary = json.loads((out / "summary.json").read_text())
        for key in ("constants", "epsilon", "horizon", "fit_rate", "kappa", "max_deviation"):
            assert key in summary
        assert summary["kappa"] == 0.03
        assert math.isfinite(summary["fit_rate"])

    def test_linearized_column_tracks_nonlinear(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.perturb_config(out, 1e-4)
        cli.main(["perturb", "--config", write_config(tmp_path, cfg)])
        _, rows = read_csv(out / "deviation.csv")
        for row in rows[1:]:
            dev, lin = float(row[1]), float(row[2])
            assert abs(dev - lin) < 0.2 * max(dev, lin)

    def test_zero_epsilon_is_steady(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.perturb_config(out, 0.0)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 0
        _, rows = read_csv(out / "deviation.csv")
        assert max(float(r[1]) for r in rows) < 1e-10

    def test_zero_epsilon_requires_horizon(self, tmp_path):
        cfg = self.perturb_config(tmp_path / "x", 0.0)
        del cfg["perturb"]["T"]
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2

    def test_negative_epsilon_rejected(self, tmp_path):
        cfg = self.perturb_config(tmp_path / "x", -0.5)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2

    def test_shares_the_evolution_loop(self, tmp_path, monkeypatch):
        import alber_lab.dynamics as dyn

        def forbidden(*args, **kwargs):
            raise AssertionError("perturb must not step with the reference composition")

        for name in ("strang_step", "free_step", "potential_step"):
            monkeypatch.setattr(dyn, name, forbidden)
        loops = []

        def counting(state, cfg):
            loops.append(cfg)
            return dyn.iter_evolve(state, cfg)

        monkeypatch.setattr(cli, "iter_evolve", counting)
        assert not hasattr(cli, "strang_step")
        out = tmp_path / "run"
        assert cli.main(["perturb", "--config", write_config(tmp_path, self.perturb_config(out, 1e-3))]) == 0
        _, rows = read_csv(out / "deviation.csv")
        assert len(loops) == 1
        assert len(rows) == loops[0].steps // loops[0].record_every + 1

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.inf])
    def test_bad_step_rejected(self, tmp_path, dt):
        cfg = self.perturb_config(tmp_path / "x", 1e-3, dt=dt)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2

    def test_oversized_epsilon_rejected(self, tmp_path):
        # datum gamma + eps u0 leaves the nonnegative cone
        cfg = self.perturb_config(tmp_path / "x", 5.0)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2


class TestInequalities:
    def ineq_config(self, out_dir, **section):
        sec = {"n_samples": 6, "N": 8, "checks": ["bessel", "gn"], "apriori": False}
        sec.update(section)
        return {"output_dir": str(out_dir), "seed": 3, "ensemble": sec}

    def test_happy_path(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.ineq_config(out)
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 0
        header, rows = read_csv(out / "checks.csv")
        assert header == ["name", "n_samples", "violations", "worst_ratio", "empirical_constant", "seed"]
        assert [r[0] for r in rows] == ["bessel", "gn"]
        assert all(int(r[2]) == 0 for r in rows)

    def test_apriori_appended(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.ineq_config(out, n_samples=3, apriori=True)
        cfg["physics"] = {"p": 1.0, "q": -1.0}
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 0
        _, rows = read_csv(out / "checks.csv")
        assert rows[-1][0] == "apriori"
        assert int(rows[-1][2]) == 0

    def test_unknown_check_rejected(self, tmp_path):
        cfg = self.ineq_config(tmp_path / "x", checks=["bessel", "nonsense"])
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 2

    def test_bad_ensemble_rejected(self, tmp_path):
        cfg = self.ineq_config(tmp_path / "x", n_samples=0)
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 2

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        # no genuine violator is known; force one through the check table
        from alber_lab.inequalities import CheckResult

        def fake_run_checks(cfg, s, names):
            return [CheckResult("bessel", 5, 1, 2.0, offender={"marker": 1})]

        monkeypatch.setattr(cli, "run_checks", fake_run_checks)
        out = tmp_path / "run"
        cfg = self.ineq_config(out)
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 4
        offender = json.loads((out / "offender_bessel.json").read_text())
        assert offender == {"marker": 1}


class TestConvergence:
    def conv_config(self, out_dir, section):
        return {
            "output_dir": str(out_dir),
            "seed": 13,
            "grid": {"N": 6},
            "physics": {"p": 1.0, "q": 1.0},
            "state": {"preset": "random-smooth", "rank": 2, "band": 6, "decay": 2.0},
            "convergence": section,
        }

    def test_dt_mode(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.conv_config(out, {"mode": "dt", "T": 0.1, "dts": [0.02, 0.01], "dt_ref": 0.00125})
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 0
        header, rows = read_csv(out / "errors.csv")
        assert header == ["dt", "error_s2", "ratio"]
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > 0.0
        assert float(rows[1][2]) > 2.0  # second-order refinement trend

    def test_dt_mode_reference_in_list(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.conv_config(out, {"mode": "dt", "T": 0.1, "dts": [0.01, 0.005], "dt_ref": 0.005})
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 0
        _, rows = read_csv(out / "errors.csv")
        assert float(rows[1][1]) == 0.0  # identical run, identical matrix

    def test_n_mode(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.conv_config(out, {"mode": "N", "T": 0.05, "dt": 0.01, "Ns": [2, 4, 6]})
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 0
        header, rows = read_csv(out / "errors.csv")
        assert header == ["N", "error_s2", "ratio"]
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-8  # N' = N reproduces the reference run

    def test_n_exceeding_grid_rejected(self, tmp_path):
        cfg = self.conv_config(tmp_path / "x", {"mode": "N", "Ns": [8]})
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 2

    def test_fractional_horizon_rejected(self, tmp_path):
        out = tmp_path / "x"
        cfg = self.conv_config(out, {"mode": "dt", "T": 0.1, "dts": [0.02, 0.03], "dt_ref": 0.005})
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 2
        assert not (out / "errors.csv").exists()

    def test_bad_mode_rejected(self, tmp_path):
        cfg = self.conv_config(tmp_path / "x", {"mode": "banana"})
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 2
