"""The benchmark's workloads: generated inputs, the jobs that run them
through alber_lab's public entry points, and the checks on every output.

A round is a list of jobs.  Each job has a ``run`` step, which calls the
program and returns what it produced (an output directory, or arrays for
the API oracles), and a ``check`` step, which raises ``CheckFailed`` when
that output breaks an acceptance-suite tolerance.  Keeping the two apart
lets the self-tests feed every checker a corrupted output.

Jobs look alber_lab functions up at call time (``al.evolve``, never a name
imported at module load), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import alber_lab as al
from alber_lab import cli

# Estimate of the bilinear constant (check_bilinear, 40 samples, N=16,
# seed 2024, as in acceptance criterion 8).  Passing it explicitly keeps
# the inequality layer idle in the penrose and perturb jobs.
C_BILINEAR = 0.18

ORACLE_DT = 2e-4
ORACLE_T = 2.0
ORACLE_STRIDE = 100
ORACLE_MODES = (1, 2)

# (support J, coupling q) of the random backgrounds; fixed per slot so
# every round does the same work on fresh symbols.
RANDOM_BACKGROUNDS = ((4, 1.0), (5, -1.0), (6, 1.0))
ALL_CHECKS = ["bessel", "gn", "hoffmann_ostenhof", "trace", "conjugation", "bilinear", "fourier_summation"]


class CheckFailed(Exception):
    """A job's output breaks an acceptance tolerance."""


@dataclass
class Job:
    name: str
    run: Callable[[Path], Any]
    check: Callable[[Any], None]


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index`` of a run started with ``seed``; no two
    rounds share random inputs, so no memo cache can skip their work."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def attempt(job: Job, work: Path) -> str | None:
    """Run one job and check its output; the failure message, or None."""
    try:
        job.check(job.run(work))
    except Exception as exc:  # a job that raises counts as failed, like a bad output
        return f"{job.name}: {type(exc).__name__}: {exc}"
    return None


def run_cli(subcommand: str, cfg: dict, out: Path) -> Path:
    """``alber-lab <subcommand>`` on a generated config; the output directory."""
    out.mkdir(parents=True, exist_ok=True)
    path = out.parent / f"{out.name}.config.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([subcommand, "--config", str(path), "--out", str(out)])
    if code != 0:
        raise CheckFailed(f"alber-lab {subcommand} exited with {code}")
    return out


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows: list[dict], key: str) -> np.ndarray:
    values = np.array([float(r[key]) for r in rows])
    if not np.isfinite(values).all():
        raise CheckFailed(f"non-finite {key}")
    return values


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---- simulate: one long split-step run plus a dt-refinement study ----

SIM_T = 5.0
SIM_DT = 1e-3
SIM_RECORD_EVERY = 100


def simulate_config(seed: int) -> dict:
    return {
        "seed": seed,
        "grid": {"N": 64},
        "physics": {"p": 1.0, "q": 1.0},
        "time": {"dt": SIM_DT, "T": SIM_T, "record_every": SIM_RECORD_EVERY},
        "state": {"preset": "random-smooth", "rank": 4, "band": 12, "decay": 3.0, "mass": 1.0},
    }


def convergence_config(seed: int) -> dict:
    return {
        "seed": seed,
        "grid": {"N": 16},
        "physics": {"p": 1.0, "q": 1.0},
        "state": {"preset": "random-smooth", "rank": 3, "band": 6, "decay": 2.5},
        "convergence": {"mode": "dt", "T": 0.5, "dts": [4e-3, 2e-3, 1e-3], "dt_ref": 6.25e-5},
    }


def check_trajectory(out: Path) -> None:
    """Criterion 1: mass and S2 drift <= 1e-10, energy drift <= 1e-6,
    gram_dev <= 1e-10, and the run reached its horizon."""
    rows = _rows(out / "trajectory.csv")
    _require(len(rows) == int(round(SIM_T / SIM_DT)) // SIM_RECORD_EVERY + 1, f"{len(rows)} records")
    t = _column(rows, "t")
    _require(abs(t[-1] - SIM_T) <= 1e-9, f"run ended at t={t[-1]}")
    for key in ("mass", "s2"):
        v = _column(rows, key)
        drift = float(np.abs(v - v[0]).max() / abs(v[0]))
        _require(drift <= 1e-10, f"{key} drift {drift:.3e}")
    energy = _column(rows, "energy")
    drift = float(np.abs(energy - energy[0]).max())
    _require(drift <= 1e-6, f"energy drift {drift:.3e}")
    gram = float(_column(rows, "gram_dev").max())
    _require(gram <= 1e-10, f"gram_dev {gram:.3e}")


def check_convergence(out: Path) -> None:
    """Criterion 5: error ratios of halved steps in [3.5, 4.5]."""
    rows = _rows(out / "errors.csv")
    _require(len(rows) == 3, f"{len(rows)} error rows")
    err = _column(rows, "error_s2")
    for ratio in err[:-1] / err[1:]:
        _require(3.5 <= ratio <= 4.5, f"error ratio {ratio:.4f}")


def simulate_round(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    sim_seed, conv_seed = (int(s) for s in rng.integers(0, 2**31, 2))
    return [
        Job("simulate", lambda w: run_cli("simulate", simulate_config(sim_seed), w / "simulate"), check_trajectory),
        Job("convergence", lambda w: run_cli("convergence", convergence_config(conv_seed), w / "convergence"),
            check_convergence),
    ]


# ---- stability: margin scans, the perturbation window, criterion-4 oracles ----


def random_symbol(rng: np.random.Generator, J: int) -> list[float]:
    """Symbol proportional to <n>^-4 * U(0.5, 1.5) on |n| <= J, mass 0.5."""
    n = np.arange(-J, J + 1, dtype=float)
    s = (1.0 + n * n) ** -2.0 * rng.uniform(0.5, 1.5, n.size)
    return (0.5 * s / s.sum()).tolist()


def dispersion(symbol: list[float], p: float, q: float, k: int, z: complex) -> complex:
    """F_k(z) = 1 - (iq/2pi) sum_j (G(j+k) - G(j)) / (z - i p k (2j+k)),
    written out here so the zero check does not trust the code it checks."""
    J = (len(symbol) - 1) // 2

    def g(n: int) -> float:
        return symbol[n + J] if abs(n) <= J else 0.0

    total = sum(
        (g(j + k) - g(j)) / (z - 1j * p * k * (2 * j + k)) for j in range(-J - abs(k), J + abs(k) + 1)
    )
    return 1.0 - 1j * q / (2.0 * math.pi) * total


def check_margins(out: Path, symbol: list[float], p: float, q: float, expect: str) -> None:
    """Every reported zero z has Re z > 0 and |F_k(z)| <= 1e-8.  The
    unstable preset must have its k=1 zero within 1e-6 of 1; the stable
    preset must have no zeros and kappa > 0."""
    rows = _rows(out / "margins.csv")
    _require([int(r["k"]) for r in rows] == list(range(1, 9)), "margins.csv does not cover k = 1..8")
    margins = _column(rows, "margin")
    _require(bool((margins >= 0.0).all()), "negative margin")
    zeros = {}
    for r in rows:
        k = int(r["k"])
        zeros[k] = [complex(z) for z in r["zeros"].split(";") if z]
        for z in zeros[k]:
            _require(z.real > 0.0, f"k={k}: zero {z} not in the right half-plane")
            res = abs(dispersion(symbol, p, q, k, z))
            _require(res <= 1e-8, f"k={k}: |F(z)| = {res:.3e} at reported zero {z}")
    if expect == "unstable":
        _require(any(abs(z - 1.0) <= 1e-6 for z in zeros[1]), f"k=1 zeros {zeros[1]} miss 1")
    if expect == "stable":
        _require(not any(zeros.values()), "zeros reported for the stable preset")
        consts = json.loads((out / "constants.json").read_text())
        _require(consts["stable_in_scan"] and consts["kappa_scanned"] > 0.0, "kappa <= 0")


def penrose_job(name: str, background, symbol: list[float], p: float, q: float, expect: str) -> Job:
    cfg = {
        "seed": 0,
        "physics": {"p": p, "q": q},
        "penrose": {"background": background, "k_max": 8, "c_bilinear": C_BILINEAR},
    }
    return Job(name, lambda w: run_cli("penrose", cfg, w / name),
               lambda out: check_margins(out, symbol, p, q, expect))


def perturb_config(seed: int) -> dict:
    return {
        "seed": seed,
        "grid": {"N": 12},
        "perturb": {
            "background": "stable-broad",
            "epsilon": 1e-3,
            "dt": 1e-3,
            "seed_band": 2,
            "fit_window": [0.5, 2.0],
            "c_bilinear": C_BILINEAR,
        },
    }


def check_deviation(out: Path) -> None:
    """Stable window: the nonlinear deviation stays below its bound on every row."""
    rows = _rows(out / "deviation.csv")
    _require(len(rows) >= 2, f"{len(rows)} deviation rows")
    dev, bound = _column(rows, "deviation_h1s1"), _column(rows, "bound")
    worst = int(np.argmax(dev / bound))
    _require(bool((dev <= bound).all()), f"deviation {dev[worst]:.3e} > bound {bound[worst]:.3e}")


def volterra_oracle(name: str, seed: int) -> dict:
    """Criterion 4, first pair: linearized_evolve against volterra_solve
    on the density modes k = 1, 2 of a random Hermitian perturbation."""
    bg, p, q = al.background_preset(name)
    grid = al.SpectralGrid(6)
    u0 = al.random_hermitian_perturbation(grid, 2, np.random.default_rng(seed))
    traj = al.linearized_evolve(u0, bg, al.EvolveConfig(p, q, ORACLE_DT, ORACLE_T, record_every=ORACLE_STRIDE))
    fine = np.arange(int(round(ORACLE_T / ORACLE_DT)) + 1) * ORACLE_DT
    modes = list(traj.k_modes)
    return {
        k: (al.volterra_solve(bg, u0, p, q, k, fine)[::ORACLE_STRIDE], traj.density_modes[:, modes.index(k)])
        for k in ORACLE_MODES
    }


def check_volterra(pairs: dict) -> None:
    for k, (vol, lin) in pairs.items():
        _require(vol.shape == lin.shape, f"k={k}: {vol.shape} Volterra vs {lin.shape} linearized samples")
        err = float(np.abs(vol - lin).max() / np.abs(vol).max())
        _require(err <= 1e-6, f"k={k}: Volterra vs linearized relative error {err:.3e}")


def picard_oracle(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Criterion 4, second pair: picard_solve against split-step evolve."""
    grid = al.SpectralGrid(16)
    st = al.random_smooth_state(grid, rank=2, band=5, decay=2.5, rng=np.random.default_rng(seed), total_mass=1.0)
    ref, _ = al.evolve(st, al.EvolveConfig(1.0, 1.0, 1e-3, 0.05, record_every=10**9))
    pic = al.picard_solve(al.to_matrix(st), 1.0, 1.0, 0.05)
    return pic.entries, al.to_matrix(ref).entries


def check_picard(pair: tuple[np.ndarray, np.ndarray]) -> None:
    err = float(np.sqrt(np.sum(np.abs(pair[0] - pair[1]) ** 2)))
    _require(err <= 1e-6, f"Picard vs split-step Frobenius error {err:.3e}")


def stability_round(seed: int) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for name in ("remark-5-2-unstable", "stable-broad"):
        bg, p, q = al.background_preset(name)
        expect = "unstable" if name == "remark-5-2-unstable" else "stable"
        jobs.append(penrose_job(f"penrose-{name}", name, bg.symbol.tolist(), p, q, expect))
    for J, q in RANDOM_BACKGROUNDS:
        symbol = random_symbol(rng, J)
        jobs.append(penrose_job(f"penrose-random-J{J}", {"symbol": symbol}, symbol, 1.0, q, "any"))
    pert_seed, vol_seed, pic_seed = (int(s) for s in rng.integers(0, 2**31, 3))
    jobs.append(Job("perturb", lambda w: run_cli("perturb", perturb_config(pert_seed), w / "perturb"),
                    check_deviation))
    for name in ("stable-broad", "remark-5-2-unstable"):
        jobs.append(Job(f"volterra-{name}", lambda w, name=name: volterra_oracle(name, vol_seed), check_volterra))
    jobs.append(Job("picard", lambda w: picard_oracle(pic_seed), check_picard))
    return jobs


# ---- ensemble: the randomized inequality lab ----

# 200 samples per round, as four calls of 50: the host changes speed every
# few seconds, and a call shorter than that can be scaled to reference speed
ENSEMBLE_CALLS = 4
ENSEMBLE_SAMPLES = 50


def inequalities_config(seed: int) -> dict:
    return {
        "seed": seed,
        "ensemble": {"n_samples": ENSEMBLE_SAMPLES, "N": 32, "checks": ALL_CHECKS, "apriori": True},
    }


def check_inequalities(out: Path) -> None:
    """Criterion 7 on one ensemble: every check ran on all samples with zero violations."""
    rows = _rows(out / "checks.csv")
    _require([r["name"] for r in rows] == ALL_CHECKS + ["apriori"], "checks.csv lacks a check")
    for r in rows:
        _require(int(r["n_samples"]) == ENSEMBLE_SAMPLES, f"{r['name']}: {r['n_samples']} samples")
        _require(int(r["violations"]) == 0, f"{r['name']}: {r['violations']} violations")


def ensemble_round(seed: int) -> list[Job]:
    seeds = np.random.default_rng(seed).integers(0, 2**31, ENSEMBLE_CALLS)
    return [
        Job(f"inequalities-{i}", lambda w, i=i, s=int(s): run_cli("inequalities", inequalities_config(s), w / f"ineq{i}"),
            check_inequalities)
        for i, s in enumerate(seeds)
    ]


ROUNDS = {"simulate": simulate_round, "stability": stability_round, "ensemble": ensemble_round}
