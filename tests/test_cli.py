"""End-to-end runs of the command-line entry point on temp directories.

Every subcommand is driven through main(argv) with small configurations;
assertions cover output schemas, the manifest contract, byte-level
determinism, and the exit-code protocol (0/2/3/4).
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import tempfile
import time
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import alber_lab as al
import alber_lab.cli as cli
import alber_lab.dynamics as dyn
import alber_lab.penrose as penrose
from alber_lab.presets import background_preset
from alber_lab.states import STATE_SCHEMA, to_matrix
from alber_lab.dynamics import DivergenceError, _trusted


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

    @pytest.mark.filterwarnings("error")
    def test_huge_mass_diverges_without_numpy_warning(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = simulate_config(out)
        cfg["state"]["mass"] = 1e200
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert "divergence at t=0" in err
        assert "Warning" not in err

    def test_state_from_file(self, tmp_path):
        out1 = tmp_path / "first"
        cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out1), "one.json")])
        cfg = simulate_config(tmp_path / "second")
        cfg["state"] = {"file": str(out1 / "final_state.json")}
        code = cli.main(["simulate", "--config", write_config(tmp_path, cfg, "two.json")])
        assert code == 0


def state_file_on_another_grid(tmp_path, command, capsys, **section) -> list[str]:
    """stderr lines of command on a grid N=16 from a state.file saved at N=8, checking no file was written."""
    saved = tmp_path / "saved"
    assert cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(saved), "saved.json")]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    cfg = simulate_config(out, grid={"N": 16}, state={"file": str(saved / "final_state.json")}, **section)
    if command == "convergence":
        del cfg["time"]
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert not out.exists() or list(out.iterdir()) == []
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "command, section",
    [
        ("simulate", {}),
        ("convergence", {"convergence": {"mode": "dt", "T": 0.02, "dts": [0.01], "dt_ref": 0.005}}),
        ("convergence", {"convergence": {"mode": "N", "T": 0.02, "dt": 0.01, "Ns": [4, 8]}}),
    ],
)
def test_state_file_on_another_grid_rejected(tmp_path, capsys, command, section):
    # simulate once wrote density spectra of two sizes, and convergence raised a traceback
    err = state_file_on_another_grid(tmp_path, command, capsys, **section)
    assert len(err) == 1 and err[0].startswith("config error: state.file: ")
    assert "N=8, M=" in err[0] and "N=16, M=" in err[0]


NOT_A_STATE = {
    "list": [1, 2],
    "null grid": {"schema": STATE_SCHEMA, "grid": None, "weights": [], "orbitals": []},
    "list N": {"schema": STATE_SCHEMA, "grid": {"N": [1], "M": 6}, "weights": [], "orbitals": []},
    "dict weights": {"schema": STATE_SCHEMA, "grid": {"N": 1, "M": 6}, "weights": {"a": 1}, "orbitals": []},
    "fractional N": {"schema": STATE_SCHEMA, "grid": {"N": 1.5, "M": 6}, "weights": [], "orbitals": []},
    "bool N": {"schema": STATE_SCHEMA, "grid": {"N": True, "M": 6}, "weights": [], "orbitals": []},
}


def state_file_errors(tmp_path, capsys, command, document) -> list[str]:
    """stderr lines of command on a grid N=1 from a state.file holding document, checking exit 2 and no data file."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "run"
    cfg = simulate_config(out, grid={"N": 1}, state={"file": str(path)})
    if command == "convergence":
        del cfg["time"]
        cfg["convergence"] = {"mode": "dt", "T": 0.02, "dts": [0.01], "dt_ref": 0.005}
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert not out.exists() or list(out.iterdir()) == []
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command", ["simulate", "convergence"])
@pytest.mark.parametrize("shape", NOT_A_STATE)
def test_state_file_not_a_state_rejected(tmp_path, capsys, command, shape):
    # valid JSON that is no state document once ended in an AttributeError or TypeError traceback
    err = state_file_errors(tmp_path, capsys, command, NOT_A_STATE[shape])
    path = tmp_path / "state.json"
    assert len(err) == 1 and err[0].startswith(f"config error: state.file: cannot load {path}: state "), err


@pytest.mark.parametrize("command", ["simulate", "convergence"])
def test_state_file_nested_weights_rejected(tmp_path, capsys, command):
    # (2, 1) weights once ended in a matmul traceback (simulate) or named convergence.matmul
    orbitals = [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]]  # modes 0 and 1 of N = 1
    document = {"schema": STATE_SCHEMA, "grid": {"N": 1, "M": 6}, "weights": [[0.5], [0.5]], "orbitals": orbitals}
    err = state_file_errors(tmp_path, capsys, command, document)
    path = tmp_path / "state.json"
    assert len(err) == 1 and err[0].startswith(f"config error: state.file: cannot load {path}: weights "), err


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

    def test_huge_grid_refused(self, tmp_path, capsys):
        # more modes than numpy can index: one config error line naming grid.N
        cfg = simulate_config(tmp_path / "x", grid={"N": 1e300})
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: grid.N=")

    def test_missing_cli_args(self):
        with pytest.raises(SystemExit):
            cli.main(["simulate"])
        with pytest.raises(SystemExit):
            cli.main(["nonsense", "--config", "x.json"])


class TestPenrose:
    def penrose_config(self, out_dir, background, **section):
        sec = {"background": background, "k_max": 2, "c_bilinear": 2.0}
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

    def test_nan_symbol_rejected(self, tmp_path):
        cfg = self.penrose_config(tmp_path / "x", {"symbol": [0.1, math.nan, 0.1]})
        cfg["physics"] = {"p": 1.0, "q": 1.0}
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 2

    # retired scan-grid keys
    @pytest.mark.parametrize("key", ["s_padding", "s_density", "refine_iters", "eta_max", "n_eta"])
    def test_retired_scan_key_rejected(self, tmp_path, capsys, key):
        cfg = self.penrose_config(tmp_path / "x", "stable-broad", **{key: 10})
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"penrose.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", [{"eta_min": 0.0}, {"eta_min": -1.0}, {"eta_min": 1e308}])
    def test_bad_eta_grid_rejected(self, tmp_path, capsys, eta):
        cfg = self.penrose_config(tmp_path / "x", "stable-broad", **eta)
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 2
        assert "penrose.eta_min" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("eta", -5.0), ("epsilon", -1.0), ("c_bilinear", -3.0)])
    def test_window_inputs_checked_whatever_the_verdict(self, tmp_path, capsys, key, value):
        # an unstable background takes no constants, yet its bad inputs once exited 0
        out = tmp_path / "run"
        cfg = self.penrose_config(out, "remark-5-2-unstable", **{key: value})
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"config error: penrose.{key} must be positive, got {value}\n"
        assert not out.exists() or list(out.iterdir()) == []

    def test_margin_taken_on_eta_min(self, tmp_path):
        # eta_min above the old grid's default top of 10 once moved the line to 10
        out = tmp_path / "run"
        cfg = self.penrose_config(out, "stable-broad", eta_min=20.0)
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 0
        _, rows = read_csv(out / "margins.csv")
        assert [float(row[2]) for row in rows] == [20.0, 20.0]


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

    def test_horizon_is_whole_steps(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = self.perturb_config(out, 1e-3, T=0.205, dt=0.01)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 0
        _, rows = read_csv(out / "deviation.csv")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["horizon"] == float(rows[-1][0]) == 0.2
        assert "T=0.2 " in capsys.readouterr().out

    # retired scan-grid keys
    @pytest.mark.parametrize("key", ["s_padding", "s_density", "refine_iters", "eta_max", "n_eta"])
    def test_retired_scan_key_rejected(self, tmp_path, capsys, key):
        cfg = self.perturb_config(tmp_path / "x", 1e-3, **{key: 10})
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"perturb.{key}" in capsys.readouterr().err

    def test_negative_epsilon_rejected(self, tmp_path):
        cfg = self.perturb_config(tmp_path / "x", -0.5)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize(
        "background, physics, section",
        [
            ("remark-5-2-unstable", {}, {"c_bilinear": 0.3}),  # the scan's residual there is 0.0
            ({"symbol": [6.0]}, {"p": 1.0, "q": 0.9}, {"seed_band": 0}),  # and 1.1e-16 here
        ],
    )
    def test_unstable_background_needs_kappa(self, tmp_path, capsys, background, physics, section):
        # a growing zero leaves no Penrose margin to default kappa to; a given kappa runs
        # (seed 4 draws a perturbation that keeps the datum of remark-5-2-unstable a state)
        out = tmp_path / "run"
        cfg = {"output_dir": str(out), "seed": 4, "grid": {"N": 6}, "physics": physics,
               "perturb": {"background": background, "epsilon": 1e-4, "T": 1.0, **section}}
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: perturb.kappa: ")
        assert "growing zero" in err[0] and "k=1" in err[0] and "pass kappa" in err[0]
        assert not (out / "deviation.csv").exists()
        cfg["perturb"]["kappa"] = 0.1
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 0
        assert json.loads((out / "summary.json").read_text())["kappa"] == 0.1

    def test_shares_the_evolution_loop(self, tmp_path, monkeypatch):
        import alber_lab.dynamics as dyn

        def forbidden(*args, **kwargs):
            raise AssertionError("perturb must not step with the reference composition")

        for name in ("strang_step", "free_step", "potential_step"):
            monkeypatch.setattr(dyn, name, forbidden)
        loops = []

        def counting(grid, mu, orbitals, cfg):
            loops.append(cfg)
            return dyn._split_step(grid, mu, orbitals, cfg)

        monkeypatch.setattr(penrose, "_split_step", counting)
        assert not hasattr(penrose, "strang_step")
        out = tmp_path / "run"
        assert cli.main(["perturb", "--config", write_config(tmp_path, self.perturb_config(out, 1e-3))]) == 0
        _, rows = read_csv(out / "deviation.csv")
        assert len(loops) == 1
        assert len(rows) == loops[0].steps // loops[0].record_every + 1

    def test_hermitian_checks_do_not_grow_with_records(self, tmp_path, monkeypatch):
        # the run's fixed inputs (datum, perturbation) are checked one by one, and the recorded
        # differences gamma(t) - Gamma once per block of records, here 32 on the grid N=6
        import alber_lab.states as states

        block = 32
        monkeypatch.setattr(dyn, "BLOCK_ENTRIES", block * 25 * 13)  # a record's diagonal stack at N=6 is 25 x 13

        calls = {states: [], penrose: []}

        def counting(module):
            original = module._check_hermitian

            def check(entries):
                calls[module].append(entries.shape)
                return original(entries)

            return check

        for module in calls:
            monkeypatch.setattr(module, "_check_hermitian", counting(module))
        counts = []
        for record_every in (1, 10):
            for seen in calls.values():
                seen.clear()
            out = tmp_path / f"every{record_every}"
            cfg = self.perturb_config(out, 1e-3, dt=1e-3, record_every=record_every)
            assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 0
            _, rows = read_csv(out / "deviation.csv")
            assert len(calls[penrose]) == math.ceil(len(rows) / block)
            counts.append((len(rows), len(calls[states])))
        (many, fixed_many), (few, fixed_few) = counts
        assert many > block and few > 1
        assert fixed_many == fixed_few > 0

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.inf])
    def test_bad_step_rejected(self, tmp_path, dt):
        cfg = self.perturb_config(tmp_path / "x", 1e-3, dt=dt)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2

    def test_oversized_epsilon_rejected(self, tmp_path):
        # datum gamma + eps u0 leaves the nonnegative cone
        cfg = self.perturb_config(tmp_path / "x", 5.0)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2

    def test_linearized_overflow_exits_3(self, tmp_path, capsys):
        # at this coupling the explicit midpoint step of the linearized flow
        # is unstable: its matrices overflow while the nonlinear deviation stays bounded
        out = tmp_path / "run"
        cfg = {
            "output_dir": str(out),
            "seed": 3,
            "grid": {"N": 6},
            "physics": {"p": 1.0, "q": 1e8},
            "perturb": {"background": "stable-broad", "epsilon": 1e-3, "kappa": 0.1,
                        "c_bilinear": 0.18, "T": 0.5, "dt": 1e-2},
        }
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("divergence at t=")
        _, rows = read_csv(out / "deviation.csv")
        assert 1 <= len(rows) < 51
        assert all(_trusted(float(row[1]), float(row[2])) for row in rows)

    def run_against_dense_norms(self, tmp_path, cfg):
        """deviation.csv of cfg and, per record of the same two flows rebuilt through the public
        iter_evolve and linearized_evolve, the dense route's norms: one sobolev_schatten_norm
        of gamma(t) - Gamma and of the linearized matrix."""
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 0
        out = Path(cfg["output_dir"])
        _, rows = read_csv(out / "deviation.csv")
        sec = cfg["perturb"]
        grid = al.SpectralGrid(cfg["grid"]["N"])
        bg, p, q = background_preset(sec["background"])
        gamma = al.background_to_matrix(bg, grid).entries
        u0 = al.random_hermitian_perturbation(grid, sec["seed_band"], np.random.default_rng(cfg["seed"]))
        u0 = sec["epsilon"] * u0.entries
        datum = al.eigendecompose(al.OperatorMatrix(grid, gamma + u0, hermitian=True), drop_tol=1e-12)
        horizon = json.loads((out / "summary.json").read_text())["horizon"]
        record_every = sec.get("record_every") or max(1, round(horizon / sec["dt"]) // 200)
        run_cfg = al.EvolveConfig(p, q, sec["dt"], horizon, record_every)
        lin = al.linearized_evolve(al.OperatorMatrix(grid, u0, hermitian=True), bg, run_cfg, matrix_every=1)
        dense = []
        for (t, state), lin_u in zip(al.iter_evolve(datum, run_cfg), lin.matrices, strict=True):
            diff = al.OperatorMatrix(grid, to_matrix(state).entries - gamma)
            dense.append((al.sobolev_schatten_norm(diff, 1.0), al.sobolev_schatten_norm(lin_u, 1.0)))
        assert len(dense) == len(rows)
        got = np.array([[float(r[1]), float(r[2])] for r in rows])
        return got, np.array(dense), bg

    def test_norms_match_dense_route_on_readme_config(self, tmp_path):
        # at N = 24 the linearized flow's mode box (J + 2 seed_band = 6) is far smaller than the
        # grid, while the dense route takes the full grid
        for n in (12, 24):
            cfg = {
                "output_dir": str(tmp_path / f"run{n}"),
                "seed": 7,
                "grid": {"N": n},
                "perturb": {"background": "stable-broad", "epsilon": 1e-3, "dt": 1e-3, "seed_band": 2,
                            "fit_window": [0.5, 2.0], "c_bilinear": 0.18},
            }
            got, dense, _ = self.run_against_dense_norms(tmp_path, cfg)
            assert (dense > 0.0).all()
            assert (np.abs(got - dense) <= 1e-12 * dense).all()

    def test_norms_match_dense_route_at_zero_epsilon(self, tmp_path):
        # gamma(t) - Gamma is rounding only, so the two routes are held to the scale of
        # the terms whose difference they take, ||Gamma||_{H1 S1}, not to each other's rounding
        cfg = self.perturb_config(tmp_path / "run", 0.0)
        got, dense, bg = self.run_against_dense_norms(tmp_path, cfg)
        assert (got[:, 1] == 0.0).all() and (dense[:, 1] == 0.0).all()
        assert got[:, 0].max() < 1e-10 and dense[:, 0].max() < 1e-10
        assert np.abs(got[:, 0] - dense[:, 0]).max() <= 1e-12 * bg.h1s1_norm()


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

    def test_apriori_divergence_exits_3(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.ineq_config(out, n_samples=3, apriori=True)
        cfg["physics"] = {"p": 1.0, "q": 1e300}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["inequalities", "--config", write_config(tmp_path, cfg)])
        assert code == 3
        assert err.getvalue() == "divergence at t=0; no data file written\n"
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_one_draw_serves_checks_and_apriori(self, tmp_path, monkeypatch):
        # 70 samples with pairs are 140 states, two blocks: one run_checks call evolves
        # the states 0..69 of the checks' draw, and gets the results of separate calls
        import alber_lab.inequalities as ineq

        draws, calls = [], []

        def counting(*args, **kwargs):
            draws.append(args[1:3])
            return original(*args, **kwargs)

        def recording(*args):
            calls.append(args[1:])
            return run_checks(*args)

        original, run_checks = ineq._draw, cli.run_checks
        monkeypatch.setattr(ineq, "_draw", counting)
        monkeypatch.setattr(cli, "run_checks", recording)
        out = tmp_path / "run"
        names = ["bessel", "trace", "gn"]
        cfg = self.ineq_config(out, n_samples=70, checks=names, apriori=True)
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 0
        apriori = (1.0, 1.0, cli.APRIORI_T, cli.APRIORI_DT)
        assert calls == [(1.0, tuple(names), apriori)]
        assert draws == [(140, ineq.STATE_BLOCK)]
        ens = cli.EnsembleConfig(70, cli.SpectralGrid(8), seed=3)
        expected = [*run_checks(ens, 1.0, tuple(names)), *run_checks(ens, 1.0, (), apriori)]
        _, rows = read_csv(out / "checks.csv")
        assert rows == [
            [r.name, str(r.n_samples), str(r.violations), cli._fmt(r.worst_ratio), cli._fmt(r.empirical_constant), "3"]
            for r in expected
        ]

    def test_unknown_check_rejected(self, tmp_path):
        cfg = self.ineq_config(tmp_path / "x", checks=["bessel", "nonsense"])
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 2

    def test_repeated_check_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        cfg = self.ineq_config(out, checks=["bessel", "gn", "bessel"])
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 2
        assert "ensemble.checks: repeated checks ['bessel']" in capsys.readouterr().err
        assert not (out / "checks.csv").exists()

    def test_bad_ensemble_rejected(self, tmp_path):
        cfg = self.ineq_config(tmp_path / "x", n_samples=0)
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 2

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        # no genuine violator is known; force one through the check table
        from alber_lab.inequalities import CheckResult

        def fake_run_checks(cfg, s, names, apriori):
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

    @pytest.mark.parametrize(
        "T, dts, dt_ref",
        [(0.1, [1e-3, 2e-3, 2e-3], 1e-2), (0.06, [0.02, 0.01], 0.015)],  # coarser than all, or than one
    )
    def test_dt_ref_coarser_than_a_step_rejected(self, tmp_path, capsys, T, dts, dt_ref):
        out = tmp_path / "run"
        cfg = self.conv_config(out, {"mode": "dt", "T": T, "dts": dts, "dt_ref": dt_ref})
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "convergence.dt_ref" in err
        assert not (out / "errors.csv").exists()

    @pytest.mark.parametrize(
        "section, key",
        [
            ({"mode": "dt", "T": 0.1, "dts": [], "dt_ref": 0.005}, "convergence.dts"),
            ({"mode": "N", "Ns": []}, "convergence.Ns"),
        ],
    )
    def test_empty_refinement_list_rejected(self, tmp_path, capsys, monkeypatch, section, key):
        def no_evolution(*args, **kwargs):
            raise AssertionError("an evolution ran before the empty list was rejected")

        monkeypatch.setattr(dyn, "evolve", no_evolution)
        out = tmp_path / "run"
        cfg = self.conv_config(out, section)
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err and "empty" in err
        assert not (out / "errors.csv").exists()

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

    def test_divergence_exit_code(self, tmp_path, capsys):
        # a mass far above the divergence limit trips the reference run's first record
        out = tmp_path / "run"
        cfg = self.conv_config(out, {"mode": "dt", "T": 0.01, "dts": [2e-3, 1e-3], "dt_ref": 5e-4})
        cfg["grid"] = {"N": 8}
        cfg["state"]["mass"] = 1e200
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 3
        assert "divergence at t=" in capsys.readouterr().err
        assert not (out / "errors.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_divergence_prints_no_numpy_warning(self, tmp_path, capsys):
        # the energy of a mass-1e200 state overflows to inf without numpy's overflow warning
        out = tmp_path / "run"
        cfg = self.conv_config(out, {"mode": "dt", "T": 0.01, "dts": [2e-3, 1e-3], "dt_ref": 5e-4})
        cfg["grid"] = {"N": 8}
        cfg["state"]["mass"] = 1e200
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert err == "divergence at t=0; no data file written\n"
        assert [p.name for p in out.iterdir()] == ["manifest.json"]


def perturb_input(out_dir: Path, **section) -> dict:
    sec = {"background": "stable-broad", "epsilon": 1e-3, "kappa": 0.03, "c_bilinear": 2.0, "T": 0.02, "dt": 0.01}
    sec.update(section)
    return {"output_dir": str(out_dir), "seed": 1, "grid": {"N": 4}, "perturb": sec}


class TestInputErrors:
    """Bad values in a config exit 2 with a message, not a traceback."""

    def run(self, tmp_path, capsys, command, cfg) -> str:
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
        return capsys.readouterr().err

    def test_unknown_penrose_background(self, tmp_path, capsys):
        cfg = {"output_dir": str(tmp_path / "x"), "penrose": {"background": "nope"}}
        assert "'nope'" in self.run(tmp_path, capsys, "penrose", cfg)

    def test_unknown_state_background(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path / "x", state={"preset": "background", "name": "nope"})
        assert "'nope'" in self.run(tmp_path, capsys, "simulate", cfg)

    def test_state_band_above_grid(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path / "x", state={"preset": "random-smooth", "band": 9})
        assert "state.band" in self.run(tmp_path, capsys, "simulate", cfg)

    def test_state_rank_above_modes(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path / "x", state={"preset": "random-smooth", "rank": 18, "band": 3})
        assert "state.rank" in self.run(tmp_path, capsys, "simulate", cfg)

    def test_seed_band_above_grid(self, tmp_path, capsys):
        cfg = perturb_input(tmp_path / "x", seed_band=5)
        assert "perturb.seed_band" in self.run(tmp_path, capsys, "perturb", cfg)

    def test_perturb_grid_below_background_support(self, tmp_path, capsys):
        # seed_band 0 passes its own check, so the background alone must not fit
        cfg = perturb_input(tmp_path / "x", seed_band=0)
        cfg["grid"] = {"N": 1}
        err = self.run(tmp_path, capsys, "perturb", cfg)
        assert "grid.N=1" in err and "J=2" in err

    def test_state_grid_below_background_support(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path / "x", grid={"N": 1}, state={"preset": "background", "name": "stable-broad"})
        err = self.run(tmp_path, capsys, "simulate", cfg)
        assert "grid.N=1" in err and "J=2" in err

    def test_perturb_k_max_zero(self, tmp_path, capsys):
        cfg = perturb_input(tmp_path / "x", k_max=0)
        del cfg["perturb"]["kappa"]
        assert "perturb.k_max" in self.run(tmp_path, capsys, "perturb", cfg)

    def test_bessel_order_too_small(self, tmp_path, capsys):
        cfg = {"output_dir": str(tmp_path / "x"), "ensemble": {"n_samples": 2, "N": 4, "checks": ["bessel"], "s": 0.3}}
        assert "ensemble.s" in self.run(tmp_path, capsys, "inequalities", cfg)

    def test_ensemble_rank_above_modes(self, tmp_path, capsys):
        cfg = {"output_dir": str(tmp_path / "x"), "ensemble": {"n_samples": 2, "N": 1, "checks": ["bessel"]}}
        assert "ensemble.rank_range" in self.run(tmp_path, capsys, "inequalities", cfg)

    @pytest.mark.parametrize("command", ["penrose", "perturb"])
    def test_unresolved_zero(self, tmp_path, capsys, command):
        # the unstable preset scaled by 1e15: its k=1 zero is left unresolved, so no stable verdict is written
        bg, p, q = background_preset("remark-5-2-unstable")
        background = {"symbol": (bg.symbol * 1e15).tolist()}
        out = tmp_path / "x"
        if command == "penrose":
            cfg = {"output_dir": str(out), "penrose": {"background": background, "k_max": 2, "c_bilinear": 0.18}}
        else:
            cfg = perturb_input(out, background=background, k_max=2)
            del cfg["perturb"]["kappa"]
        cfg["physics"] = {"p": p, "q": q}
        err = self.run(tmp_path, capsys, command, cfg).splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {command}.background: at k=1 ")
        assert "ZERO_RESIDUAL" in err[0]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("p", [1e306, 1e307])
    @pytest.mark.parametrize("command", ["penrose", "perturb"])
    def test_overflowing_frequencies(self, tmp_path, capsys, command, p):
        # p * k * (2j + k) past the float range at k_max 8: once a warning and
        # a stable verdict on infinite poles (1e306), or a LAPACK error (1e307)
        out = tmp_path / "x"
        if command == "penrose":
            cfg = {"output_dir": str(out), "penrose": {"background": "stable-broad", "k_max": 8, "c_bilinear": 0.18}}
        else:
            cfg = perturb_input(out, k_max=8)
            del cfg["perturb"]["kappa"]
        cfg["physics"] = {"p": p}
        err = self.run(tmp_path, capsys, command, cfg).splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: physics.p = {p:g} ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["penrose", "perturb"])
    def test_unresolved_eta_min(self, tmp_path, capsys, command):
        # at eta_min = 1e-17 the line minimum of k = 1 is within 512 times the
        # rounding bound of |F_1| there, at p = 1 as at any p (once p = 1e12
        # was refused here for the float spacing of its frequencies)
        out = tmp_path / "x"
        section = {"background": "stable-broad", "k_max": 8, "eta_min": 1e-17}
        if command == "penrose":
            cfg = {"output_dir": str(out), "penrose": {**section, "c_bilinear": 0.18}}
        else:
            cfg = perturb_input(out, **section)
            del cfg["perturb"]["kappa"]
        cfg["physics"] = {"p": 1.0}
        err = self.run(tmp_path, capsys, command, cfg).splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: {command}.eta_min = 1e-17 is below what double precision resolves")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("q", [1e150, 1e200])
    @pytest.mark.parametrize("command", ["penrose", "perturb"])
    def test_overflowing_constants(self, tmp_path, capsys, command, q):
        # at p = -q and eta_min = 1e-3 q stable-broad scans as its preset
        # (p = 1, q = -1; only q/|p|, eta_min/|p| and sign(p) enter the scan),
        # so the constants are taken, and c_star**2 (1e150) or c_star (1e200)
        # passes the float range; at p = 1 the scan refuses these couplings,
        # whose pole terms cancel below their rounding
        out = tmp_path / "x"
        if command == "penrose":
            section = {"background": "stable-broad", "k_max": 2, "c_bilinear": 0.18, "eta_min": 1e-3 * q}
            cfg = {"output_dir": str(out), "penrose": section}
        else:
            cfg = perturb_input(out, eta_min=1e-3 * q)
        cfg["physics"] = {"p": -q, "q": q}
        err = self.run(tmp_path, capsys, command, cfg).splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {command}.constants are not finite")
        assert f"q={q:g}," in err[0]
        assert list(out.iterdir()) == []

    def test_convergence_cutoff_zero(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path / "x", convergence={"mode": "N", "Ns": [0], "T": 0.02, "dt": 0.01})
        del cfg["time"]
        assert "Ns [0]" in self.run(tmp_path, capsys, "convergence", cfg)
        assert not (tmp_path / "x" / "errors.csv").exists()


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "extra, named",
        [
            ({"time": {"dt": 0.01, "T": 0.05, "recordevery": 2}}, "time.recordevery"),
            ({"tme": {"dt": 0.01}}, "'tme'"),
            ({"ensemble": {"n_samples": 2}}, "'ensemble'"),  # a section of another subcommand
            ({"time": 5}, "time must be a JSON object"),
        ],
    )
    def test_rejected_and_named(self, tmp_path, capsys, extra, named):
        cfg = simulate_config(tmp_path / "x", **extra)
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
        assert named in capsys.readouterr().err

    def test_readme_examples_pass(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
        sections = {"time": "simulate", "penrose": "penrose", "perturb": "perturb",
                    "ensemble": "inequalities", "convergence": "convergence"}
        seen = set()
        for cfg in blocks:
            command = next(sections[k] for k in cfg if k in sections)
            cli.check_keys(cfg, command)
            seen.add(command)
        assert seen == set(cli.HANDLERS)


def penrose_input(out_dir: Path, **section) -> dict:
    sec = {"background": "stable-broad", "k_max": 2, "c_bilinear": 2.0}
    sec.update(section)
    return {"output_dir": str(out_dir), "seed": 5, "penrose": sec}


def ensemble_input(out_dir: Path, **section) -> dict:
    sec = {"n_samples": 2, "N": 4, "checks": ["bessel"], "apriori": False}
    sec.update(section)
    return {"output_dir": str(out_dir), "seed": 3, "ensemble": sec}


def convergence_input(out_dir: Path, **section) -> dict:
    sec = {"mode": "dt", "T": 0.1, "dts": [0.02, 0.01], "dt_ref": 0.005}
    sec.update(section)
    cfg = simulate_config(out_dir, convergence=sec)
    del cfg["time"]
    return cfg


# a small valid config per subcommand, and the builder of its one section
BASE_INPUTS = {
    "simulate": lambda out: simulate_config(out),
    "penrose": penrose_input,
    "perturb": perturb_input,
    "inequalities": ensemble_input,
    "convergence": convergence_input,
}


def with_value(cfg: dict, section, key: str, value) -> dict:
    """cfg with section.key (a top-level key when section is None) set to value."""
    if section is None:
        cfg[key] = value
    else:
        cfg.setdefault(section, {})[key] = value
    return cfg


# (subcommand, section, key, bad value): each once ended in a traceback or
# in an exit 0 with wrong or silently altered output
PROBES = [
    ("penrose", "penrose", "k_max", "abc"),
    ("penrose", "penrose", "eta", -1),
    ("penrose", "penrose", "eta", math.nan),
    ("penrose", "penrose", "epsilon", math.nan),
    ("penrose", "penrose", "c_bilinear", -1),
    ("perturb", "perturb", "kappa", -1),
    ("perturb", "perturb", "fit_window", 0.5),
    ("perturb", "perturb", "epsilon", math.nan),
    ("perturb", "perturb", "T", 0),
    ("simulate", "state", "mass", -1),
    ("simulate", "state", "decay", math.nan),
    ("simulate", "state", "rank", [2]),
    ("simulate", None, "seed", "abc"),
    ("simulate", None, "seed", -1),
    ("simulate", "grid", "N", 8.7),
    ("inequalities", "ensemble", "rank_range", 3),
    ("inequalities", "ensemble", "decay_exponent", math.nan),
    ("inequalities", "ensemble", "apriori", "false"),
    ("convergence", "convergence", "dts", 0.01),
    ("convergence", "convergence", "T", "x"),
    ("penrose", "penrose", "eta_min", 0),
    ("perturb", "perturb", "eta_min", 0),  # with perturb.kappa given, eta_min is never read
]


def run_bad_value(tmp_dir: Path, command: str, section, key: str, value):
    """Exit code, stderr and written files of command with section.key = value."""
    out = tmp_dir / "out"
    cfg = with_value(BASE_INPUTS[command](out), section, key, value)
    path = tmp_dir / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path)])
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    return code, err.getvalue(), written


class TestBadValues:
    @pytest.mark.parametrize("command, section, key, value", PROBES)
    def test_probe_exits_2_and_names_its_key(self, tmp_path, command, section, key, value):
        code, err, written = run_bad_value(tmp_path, command, section, key, value)
        assert code == 2
        assert (key if section is None else f"{section}.{key}") in err
        assert written == []

    @pytest.mark.parametrize(
        "command, section, key, value, extra",
        [
            ("simulate", "time", "dt", 1e-300, {"T": 1.0}),  # 1e300 steps
            ("simulate", "time", "dt", 1e-310, {"T": 1e10}),  # T/dt overflows
            ("perturb", "perturb", "dt", 1e-300, {}),
            ("simulate", "state", "decay", -1e300, {}),  # the falloff overflows
            ("inequalities", "ensemble", "s", -1.0, {}),
            ("inequalities", "ensemble", "s", 0.5, {}),
        ],
    )
    def test_extreme_value_exits_2_and_names_its_key(self, tmp_path, command, section, key, value, extra):
        out = tmp_path / "out"
        cfg = with_value(BASE_INPUTS[command](out), section, key, value)
        cfg[section].update(extra)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert f"{section}.{key}" in err.getvalue()
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "s, checks",
        [(200.0, ["bessel", "trace"]), (400.0, ["conjugation"]), (400.0, ["bilinear"]), (1e300, ["bessel"])],
    )
    def test_overflowing_s_exits_2(self, tmp_path, s, checks):
        # weights <2N>^(2s) or <N>^(2s) past the float range: an inf or 0 ratio, or a traceback, if run
        out = tmp_path / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["inequalities", "--config", write_config(tmp_path, ensemble_input(out, s=s, checks=checks))])
        assert code == 2
        assert err.getvalue().startswith(f"config error: ensemble.s={s}: ")
        assert err.getvalue().count("\n") == 1
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("dts", [1e-300, 0.01], "convergence.dts[0]=1e-300"),
            ("dts", [0.02, -0.01], "convergence.dts[1] must be positive"),
            ("dt_ref", 1e-300, "convergence.dt_ref=1e-300"),
            ("dt_ref", 0.0, "convergence.dt_ref must be positive"),
        ],
    )
    def test_convergence_step_errors_name_their_key(self, tmp_path, key, value, named):
        # the N mode's convergence.dt is a different key
        code, err, written = run_bad_value(tmp_path, "convergence", "convergence", key, value)
        assert code == 2
        assert named in err
        assert "convergence.dt=" not in err and "convergence.dt " not in err
        assert written == []

    @pytest.mark.parametrize("command", sorted(BASE_INPUTS))
    def test_base_inputs_run(self, tmp_path, command):
        cfg = BASE_INPUTS[command](tmp_path / "run")
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0

    def test_record_every_zero_is_not_the_default(self, tmp_path, capsys):
        cfg = perturb_input(tmp_path / "x", record_every=0)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2
        assert "perturb.record_every" in capsys.readouterr().err

    @pytest.mark.parametrize("fit_window", [[0.05], [0.05, 0.1, 0.2], [0.2, 0.05], [0.1, 0.1]])
    def test_fit_window_needs_two_ends(self, tmp_path, capsys, fit_window):
        cfg = perturb_input(tmp_path / "x", fit_window=fit_window)
        assert cli.main(["perturb", "--config", write_config(tmp_path, cfg)]) == 2
        assert "perturb.fit_window" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, missing", [("dt", "dts"), ("dt", "dt_ref"), ("N", "Ns")])
    def test_convergence_mode_needs_its_keys(self, tmp_path, capsys, mode, missing):
        section = {"mode": mode, "T": 0.02, "dt": 0.01, "dts": [0.01], "dt_ref": 0.005, "Ns": [2]}
        del section[missing]
        cfg = convergence_input(tmp_path / "x")
        cfg["convergence"] = section
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"convergence.{missing}" in capsys.readouterr().err

    def test_integral_float_is_an_int(self, tmp_path):
        cfg = simulate_config(tmp_path / "x", grid={"N": 8.0})
        assert cli.check_keys(cfg, "simulate")["grid"] == {"N": 8, "M": 0}

    def test_manifest_echoes_the_resolved_config(self, tmp_path):
        out = tmp_path / "run"
        cfg = penrose_input(out)
        assert cli.main(["penrose", "--config", write_config(tmp_path, cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == json.loads(json.dumps(cli.check_keys(cfg, "penrose")))
        assert manifest["config"]["penrose"]["eta_min"] == 1e-3
        assert manifest["config"]["penrose"]["epsilon"] == 1e-2
        assert manifest["config"]["physics"] == {"p": None, "q": None}


# the data files each BASE_INPUTS run writes
BASE_OUTPUTS = {
    "simulate": {"trajectory.csv", "density_spectra.json", "final_state.json"},
    "penrose": {"margins.csv", "constants.json"},
    "perturb": {"deviation.csv", "summary.json"},
    "inequalities": {"checks.csv"},
    "convergence": {"errors.csv"},
}


def manifest_outputs(out: Path, command: str, cfg: dict) -> set:
    """The data files out/manifest.json lists, after checking its schema,
    subcommand, seed, resolved config and the sha256 of each listed file."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == "alber-lab/manifest-v1"
    assert manifest["subcommand"] == command
    assert manifest["seed"] == cfg["seed"]
    assert manifest["config"] == json.loads(json.dumps(cli.check_keys(cfg, command)))
    names = [entry["path"] for entry in manifest["outputs"]]
    assert len(names) == len(set(names))
    for entry in manifest["outputs"]:
        assert entry["sha256"] == hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
    return set(names)


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


class TestManifest:
    @pytest.mark.parametrize("command", sorted(BASE_INPUTS))
    def test_json_files_are_strict(self, tmp_path, command):
        # the perturb input has no fit window, so its summary has no fit_rate
        out = tmp_path / "run"
        assert cli.main([command, "--config", write_config(tmp_path, BASE_INPUTS[command](out))]) == 0
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_no_constant)
        if command == "perturb":
            assert json.loads((out / "summary.json").read_text())["fit_rate"] is None

    @pytest.mark.parametrize("command", sorted(BASE_INPUTS))
    def test_contract(self, tmp_path, command):
        out = tmp_path / "run"
        cfg = BASE_INPUTS[command](out)
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0
        assert manifest_outputs(out, command, cfg) == BASE_OUTPUTS[command]
        assert {p.name for p in out.iterdir()} == BASE_OUTPUTS[command] | {"manifest.json"}

    def test_contract_on_violation(self, tmp_path, monkeypatch):
        from alber_lab.inequalities import CheckResult

        def fake_run_checks(cfg, s, names, apriori):
            return [CheckResult("bessel", 5, 1, 2.0, offender={"marker": 1})]

        monkeypatch.setattr(cli, "run_checks", fake_run_checks)
        out = tmp_path / "run"
        cfg = ensemble_input(out)
        assert cli.main(["inequalities", "--config", write_config(tmp_path, cfg)]) == 4
        assert manifest_outputs(out, "inequalities", cfg) == {"checks.csv", "offender_bessel.json"}

    def test_contract_on_divergence(self, tmp_path):
        # convergence diverges inside main's envelope, before any data file
        out = tmp_path / "run"
        cfg = convergence_input(out)
        cfg["state"]["mass"] = 1e200
        assert cli.main(["convergence", "--config", write_config(tmp_path, cfg)]) == 3
        assert manifest_outputs(out, "convergence", cfg) == set()
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_lists_only_this_runs_files(self, tmp_path):
        # a diverging run (exit 3) into the directory of a finished one
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out), "a.json")]) == 0
        cfg = simulate_config(out)
        cfg["state"]["mass"] = 1e200
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg, "b.json")]) == 3
        assert manifest_outputs(out, "simulate", cfg) == {"trajectory.csv", "density_spectra.json"}
        assert (out / "final_state.json").exists()  # the first run's file is left on disk

    def test_elapsed_covers_config_resolution(self, tmp_path, monkeypatch):
        def slow_check_keys(cfg, subcommand):
            time.sleep(0.2)
            return resolve(cfg, subcommand)

        resolve = cli.check_keys
        monkeypatch.setattr(cli, "check_keys", slow_check_keys)
        out = tmp_path / "run"
        assert cli.main(["penrose", "--config", write_config(tmp_path, penrose_input(out))]) == 0
        assert json.loads((out / "manifest.json").read_text())["elapsed_s"] >= 0.2

    def test_parser_built_once_across_calls(self, tmp_path, capsys):
        cli._parser.cache_clear()
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(sim), "a.json")]) == 0
        assert cli.main(["penrose", "--config", write_config(tmp_path, {"seed": 0}, "bad.json")]) == 2
        assert "missing key penrose" in capsys.readouterr().err
        pen = tmp_path / "pen"
        assert cli.main(["penrose", "--config", write_config(tmp_path, penrose_input(pen), "b.json")]) == 0
        assert json.loads((sim / "manifest.json").read_text())["subcommand"] == "simulate"
        assert json.loads((pen / "manifest.json").read_text())["subcommand"] == "penrose"
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_help_lines_are_handler_docstrings(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for handler in cli.HANDLERS.values():
            assert handler.__doc__ and " ".join(handler.__doc__.split()) in text


def schema_keys():
    """(subcommand, section or None, key, schema entry) for every key in CONFIG_SCHEMA."""
    for command, schema in cli.CONFIG_SCHEMA.items():
        for name, spec in schema.items():
            if isinstance(spec, dict):
                yield from ((command, name, key, entry) for key, entry in spec.items())
            else:
                yield command, None, name, spec


def kind_of(entry):
    """The type a schema entry states: itself, or its default's (a tuple is a list)."""
    if isinstance(entry, (type, types.UnionType, types.GenericAlias)):
        return entry
    return list[type(entry[0])] if isinstance(entry, tuple) else type(entry)


def options_of(kind) -> tuple:
    return typing.get_args(kind) if isinstance(kind, types.UnionType) else (kind,)


def wrong_values(kind):
    """JSON values of a type kind does not admit: strings, lists with a bad
    item, objects, bools, NaN and +-inf, and 8.5 for an int."""
    options = options_of(kind)
    odd_number = 8.5 if int in options else -math.inf
    bad_items = hst.sampled_from(["abc", True, {"x": 1}, math.nan, math.inf, odd_number])
    values = [hst.lists(bad_items, min_size=1, max_size=3), hst.sampled_from([math.nan, math.inf, -math.inf])]
    if str not in options:
        values.append(hst.sampled_from(["abc", "", "1"]))
    if dict not in options:
        values.append(hst.just({"x": 1}))
    if bool not in options:
        values.append(hst.booleans())
    if int in options:
        values.append(hst.just(8.5))
    return hst.one_of(values)


# pytest names a parameter it cannot print (a union type, a tuple default)
# by its position, entryNN, which renumbers whenever a key is added or
# removed.  The positional ids it gave are pinned here; any other key whose
# entry it cannot print is named command-section-key.
PINNED_ENTRY_IDS = {
    ("simulate", "state", "file"): "entry7",
    ("simulate", "state", "preset"): "entry8",
    ("simulate", "state", "band"): "entry10",
    ("simulate", "state", "name"): "entry13",
    ("penrose", "physics", "p"): "entry16",
    ("penrose", "physics", "q"): "entry17",
    ("penrose", "penrose", "background"): "entry18",
    ("penrose", "penrose", "c_bilinear"): "entry20",
    ("perturb", "physics", "p"): "entry28",
    ("perturb", "physics", "q"): "entry29",
    ("perturb", "perturb", "background"): "entry32",
    ("perturb", "perturb", "c_bilinear"): "entry34",
    ("perturb", "perturb", "kappa"): "entry38",
    ("perturb", "perturb", "T"): "entry39",
    ("perturb", "perturb", "seed_band"): "entry41",
    ("perturb", "perturb", "record_every"): "entry43",
    ("perturb", "perturb", "fit_window"): "entry44",
    ("inequalities", "ensemble", "rank_range"): "entry51",
    ("inequalities", "ensemble", "checks"): "entry54",
    ("convergence", "state", "file"): "entry60",
    ("convergence", "state", "preset"): "entry61",
    ("convergence", "state", "band"): "entry63",
    ("convergence", "state", "name"): "entry66",
    ("convergence", "convergence", "dts"): "entry71",
    ("convergence", "convergence", "dt_ref"): "entry72",
    ("convergence", "convergence", "Ns"): "entry73",
}


def schema_params():
    """schema_keys() as pytest params with ids that do not move when the schema changes."""
    for command, section, key, entry in schema_keys():
        if isinstance(entry, (type, str, int, float, bool)):  # pytest's id names the type or default
            yield pytest.param(command, section, key, entry)
        else:
            name = f"{command}-{section}-{key}"
            pinned = PINNED_ENTRY_IDS.get((command, section, key))
            yield pytest.param(command, section, key, entry, id=name if pinned is None else f"{name}-{pinned}")


class TestSchemaProperty:
    @pytest.mark.parametrize("command, section, key, entry", list(schema_params()))
    @settings(max_examples=12, deadline=None)
    @given(data=hst.data())
    def test_wrong_type_exits_2(self, command, section, key, entry, data):
        value = data.draw(wrong_values(kind_of(entry)))
        with tempfile.TemporaryDirectory() as tmp:
            code, err, written = run_bad_value(Path(tmp), command, section, key, value)
        assert code == 2
        assert (key if section is None else f"{section}.{key}") in err
        assert written == []

    def test_ids_stay_when_a_key_is_added(self, monkeypatch):
        def named():
            return {param.id for param in schema_params() if param.id is not None}

        before = named()
        assert len(before) == len(PINNED_ENTRY_IDS)
        monkeypatch.setitem(cli.CONFIG_SCHEMA, "simulate", {"extra": int | None, **cli.CONFIG_SCHEMA["simulate"]})
        assert named() == before | {"simulate-None-extra"}


def readme_reference() -> dict:
    """{subcommand: {key: (type, default)}} from the README's config tables;
    the table under "## Command line" lists the keys of every subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    body = readme[readme.index("## Command line"): readme.index("## Presets")]
    tables = {}
    for heading in re.split(r"^### ", body, flags=re.M):
        name = heading.split("\n", 1)[0].strip()
        rows = {}
        for line in heading.splitlines():
            cells = [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            if len(cells) == 4 and cells[0].startswith("`"):
                rows[cells[0].strip("`")] = (cells[1], cells[2])
        tables[name] = rows
    common = tables.pop(next(iter(tables)))  # the text before the first subcommand
    return {name: {**rows, **common} for name, rows in tables.items()}


class TestReadmeReference:
    def test_names_exactly_the_schema_keys(self):
        reference = readme_reference()
        assert set(reference) == set(cli.CONFIG_SCHEMA)
        keys = {command: set() for command in cli.CONFIG_SCHEMA}
        for command, section, key, _ in schema_keys():
            keys[command].add(key if section is None else f"{section}.{key}")
        assert {command: set(rows) for command, rows in reference.items()} == keys

    def test_types_and_defaults_match_the_schema(self):
        reference = readme_reference()
        for command, section, key, entry in schema_keys():
            type_cell, default_cell = reference[command][key if section is None else f"{section}.{key}"]
            kind = kind_of(entry)
            names = [str(k).removeprefix("<class '").removesuffix("'>") for k in options_of(kind)]
            assert type_cell == " or ".join(n for n in names if n != "NoneType"), (command, section, key)
            if kind is not entry:
                assert default_cell == f"`{json.dumps(entry)}`", (command, section, key)
            elif type(None) in options_of(kind):
                assert default_cell != "required", (command, section, key)
            else:
                assert default_cell == "required", (command, section, key)
