"""Command-line interface.

    alber-lab <simulate|penrose|perturb|inequalities|convergence>
              --config <path> [--seed <u64>] [--out <dir>]

Configuration is a single JSON document per run; --seed and --out
override the corresponding fields.  Every run writes its data files plus
a manifest.json echoing the resolved configuration, the seed, the tool
version, wall-clock time and a sha256 per output file.  Data files are
byte-identical across reruns with the same configuration and seed (the
manifest's wall-clock field is the one intentional exception).

Exit codes: 0 success, 2 configuration or input error, 3 numerical
divergence, 4 inequality-check violation.  A key the subcommand does not
read (CONFIG_KEYS) is an input error, so a typo cannot fall back to a default.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    EvolveConfig,
    TrajectoryRecord,
    evolve,
    iter_evolve,
    linearized_evolve,
)
from .inequalities import (
    ALL_CHECKS,
    CheckResult,
    EnsembleConfig,
    check_apriori_ensemble,
    check_bilinear,
    run_checks,
)
from .penrose import PenroseScan, penrose_margin, propagator_constants
from .presets import background_preset, random_hermitian_perturbation, random_smooth_state
from .spectral import SpectralGrid
from .states import (
    BackgroundSymbol,
    MixedState,
    NotNonNegativeError,
    OperatorMatrix,
    background_to_matrix,
    background_to_state,
    eigendecompose,
    galerkin_truncate,
    reorthonormalized,
    sobolev_schatten_norm,
    state_from_dict,
    state_to_dict,
    to_matrix,
)

TRAJECTORY_HEADER = ("t", "mass", "s2", "energy", "kinetic", "gram_dev", "h1s1")


class ConfigError(ValueError):
    """The configuration document is missing, malformed or inconsistent."""


# ---- small IO helpers ----


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # RFC 4180 line endings
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(out_dir: Path, subcommand: str, config: dict, seed: int, t0: float) -> None:
    outputs = sorted(p for p in out_dir.iterdir() if p.is_file() and p.name != "manifest.json")
    write_json(
        out_dir / "manifest.json",
        {
            "schema": "alber-lab/manifest-v1",
            "subcommand": subcommand,
            "config": config,
            "seed": seed,
            "version": __version__,
            "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "elapsed_s": round(time.perf_counter() - t0, 3),
            "outputs": [{"path": p.name, "sha256": _sha256(p)} for p in outputs],
        },
    )


# ---- config plumbing ----


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def load_config(path: str, seed_override, out_override) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if seed_override is not None:
        cfg["seed"] = seed_override
    if out_override is not None:
        cfg["output_dir"] = out_override
    cfg.setdefault("seed", 0)
    if "output_dir" not in cfg:
        raise ConfigError("missing key 'output_dir' (or pass --out)")
    return cfg


RETIRED_SCAN_KEYS = ("s_padding", "s_density", "refine_iters")
GRID_KEYS = ("N", "M")
PHYSICS_KEYS = ("p", "q")
STATE_KEYS = ("file", "preset", "rank", "band", "decay", "mass", "name")
# read by both the penrose and the perturb section
MARGIN_KEYS = ("background", "k_max", "eta", "epsilon", "c_bilinear", "eta_min", "eta_max", "n_eta")
# sections each subcommand reads, and their keys; output_dir and seed are common
CONFIG_KEYS = {
    "simulate": {
        "grid": GRID_KEYS,
        "physics": PHYSICS_KEYS,
        "time": ("dt", "T", "record_every"),
        "state": STATE_KEYS,
    },
    "penrose": {"physics": PHYSICS_KEYS, "penrose": MARGIN_KEYS},
    "perturb": {
        "grid": GRID_KEYS,
        "physics": PHYSICS_KEYS,
        "perturb": MARGIN_KEYS + ("kappa", "T", "dt", "seed_band", "drop_tol", "record_every", "fit_window"),
    },
    "inequalities": {
        "physics": PHYSICS_KEYS,
        "ensemble": ("n_samples", "N", "rank_range", "decay_exponent", "s", "checks", "apriori"),
    },
    "convergence": {
        "grid": GRID_KEYS,
        "physics": PHYSICS_KEYS,
        "state": STATE_KEYS,
        "convergence": ("mode", "T", "dts", "dt_ref", "Ns", "dt"),
    },
}


def check_keys(cfg: dict, subcommand: str) -> None:
    """Reject a key the subcommand does not read, so a typo cannot fall back to a default."""
    sections = CONFIG_KEYS[subcommand]
    for name, section in cfg.items():
        if name in ("output_dir", "seed"):
            continue
        if name not in sections:
            raise ConfigError(f"unknown key {name!r} for {subcommand}; sections: {', '.join(sections)}")
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be a JSON object")
        for key in section:
            if key in RETIRED_SCAN_KEYS and name in ("penrose", "perturb"):
                raise ConfigError(
                    f"{name}.{key} is retired: the margin comes from exact zeros and one "
                    "line, not from a scan grid; eta_min/eta_max/n_eta remain"
                )
            if key not in sections[name]:
                raise ConfigError(f"unknown key {name}.{key}; allowed: {', '.join(sections[name])}")


def _build_grid(cfg: dict) -> SpectralGrid:
    grid = _require(cfg, "grid")
    try:
        return SpectralGrid(int(_require(grid, "N", "grid")), int(grid.get("M", 0)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _physics(cfg: dict, default_p=None, default_q=None) -> tuple[float, float]:
    phys = cfg.get("physics", {})
    p = float(phys.get("p", default_p if default_p is not None else math.nan))
    q = float(phys.get("q", default_q if default_q is not None else math.nan))
    if not (math.isfinite(p) and math.isfinite(q)) or p * q == 0.0:
        raise ConfigError("physics.p and physics.q must be finite and nonzero")
    return p, q


def _evolve_config(p: float, q: float, dt: float, T: float, record_every: int = 10**9) -> EvolveConfig:
    """EvolveConfig with its input errors as ConfigError; by default only
    the endpoints are recorded."""
    try:
        return EvolveConfig(p=p, q=q, dt=dt, T=T, record_every=record_every)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _preset(name) -> tuple[BackgroundSymbol, float, float]:
    try:
        return background_preset(name)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc


def _background(section: dict) -> tuple[BackgroundSymbol, float | None, float | None]:
    bg_spec = _require(section, "background", "penrose/perturb section")
    if isinstance(bg_spec, str):
        return _preset(bg_spec)
    if isinstance(bg_spec, dict) and "symbol" in bg_spec:
        try:
            return BackgroundSymbol(np.asarray(bg_spec["symbol"], dtype=float)), None, None
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("background must be a preset name or {'symbol': [...]}")


def _build_state(cfg: dict, grid: SpectralGrid, rng: np.random.Generator) -> MixedState:
    spec = _require(cfg, "state")
    if "file" in spec:
        try:
            with open(spec["file"]) as fh:
                return state_from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot load state file {spec['file']}: {exc}") from exc
    preset = spec.get("preset")
    if preset == "random-smooth":
        rank, band = int(spec.get("rank", 4)), int(spec.get("band", min(12, grid.N)))
        if not 0 <= band <= grid.N:
            raise ConfigError(f"state.band={band} outside 0..{grid.N} (the grid N)")
        if not 0 <= rank <= grid.n_modes:
            raise ConfigError(f"state.rank={rank} outside 0..{grid.n_modes} (the modes of the grid)")
        return random_smooth_state(
            grid,
            rank=rank,
            band=band,
            decay=float(spec.get("decay", 3.0)),
            rng=rng,
            total_mass=float(spec.get("mass", 1.0)),
        )
    if preset == "background":
        bg, _, _ = _preset(spec.get("name", ""))
        return background_to_state(bg, grid)
    raise ConfigError("state must give 'file' or preset 'random-smooth'/'background'")


def _trajectory_rows(records: list[TrajectoryRecord]):
    for r in records:
        yield (r.t, r.mass, r.s2_norm, r.energy, r.kinetic, r.gram_dev, r.h1s1)


def _write_trajectory(out: Path, grid: SpectralGrid, records: list[TrajectoryRecord]) -> None:
    write_csv(out / "trajectory.csv", TRAJECTORY_HEADER, _trajectory_rows(records))
    write_json(
        out / "density_spectra.json",
        {
            "k": [int(k) for k in grid.modes()],
            "t": [r.t for r in records],
            "abs_rho_hat": [[float(v) for v in r.density_spectrum] for r in records],
        },
    )


# ---- subcommands ----


def cmd_simulate(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    grid = _build_grid(cfg)
    p, q = _physics(cfg)
    tsec = _require(cfg, "time")
    run_cfg = _evolve_config(
        p,
        q,
        dt=float(_require(tsec, "dt", "time")),
        T=float(_require(tsec, "T", "time")),
        record_every=int(tsec.get("record_every", 1)),
    )
    rng = np.random.default_rng(cfg["seed"])
    state = _build_state(cfg, grid, rng)
    code = 0
    try:
        final, records = evolve(state, run_cfg)
        write_json(out / "final_state.json", state_to_dict(final))
    except DivergenceError as exc:
        records = exc.records
        print(f"divergence at t={exc.t:.6g}; writing records up to the last good time", file=sys.stderr)
        code = 3
    _write_trajectory(out, grid, records)
    write_manifest(out, "simulate", cfg, cfg["seed"], t0)
    print(f"simulate: {len(records)} records -> {out}")
    return code


def _k_max(section: dict, where: str, default: int) -> int:
    k_max = int(section.get("k_max", default))
    if k_max < 1:
        raise ConfigError(f"{where}.k_max must be >= 1")
    return k_max


def _scan_from(section: dict, where: str) -> PenroseScan:
    if not ("eta_min" in section or "eta_max" in section or "n_eta" in section):
        return PenroseScan()
    try:
        return PenroseScan(
            np.geomspace(
                float(section.get("eta_min", 1e-3)),
                float(section.get("eta_max", 10.0)),
                int(section.get("n_eta", 40)),
            )
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: bad eta grid: {exc}") from exc


def _bilinear_constant(section: dict, seed: int) -> float:
    """The section's c_bilinear, else the empirical bilinear constant of a
    40-sample ensemble at N = 16."""
    c_bil = section.get("c_bilinear")
    if c_bil is None:
        return check_bilinear(EnsembleConfig(40, SpectralGrid(16), seed=seed), 1.0).empirical_constant
    return float(c_bil)


def cmd_penrose(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    section = _require(cfg, "penrose")
    bg, preset_p, preset_q = _background(section)
    p, q = _physics(cfg, preset_p, preset_q)
    k_max = _k_max(section, "penrose", 8)
    scan = _scan_from(section, "penrose")
    reports = [penrose_margin(bg, p, q, k, scan) for k in range(1, k_max + 1)]
    rows = []
    for r in reports:
        rows.append(
            (
                r.k,
                r.margin,
                r.argmin_lambda.real,
                r.argmin_lambda.imag,
                ";".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in r.zeros),
            )
        )
    write_csv(out / "margins.csv", ("k", "margin", "argmin_re", "argmin_im", "zeros"), rows)
    kappa = min(r.margin for r in reports)
    unstable = any(r.zeros for r in reports)
    payload = {
        "kappa_scanned": kappa,
        "stable_in_scan": not unstable,
        "per_mode": [r.to_dict() for r in reports],
        "note": "kappa_scanned is the minimum over k = 1..k_max of inf |F_k| on Re(lambda) >= eta_min",
    }
    if not unstable:
        consts = propagator_constants(
            bg.h1s1_norm(),
            bg.l1_norm(),
            kappa,
            q,
            float(section.get("eta", 1.0)),
            float(section.get("epsilon", 1e-2)),
            _bilinear_constant(section, int(cfg["seed"])),
        )
        payload["constants"] = consts.to_dict()
    write_json(out / "constants.json", payload)
    write_manifest(out, "penrose", cfg, cfg["seed"], t0)
    print(f"penrose: kappa={kappa:.6g} stable={not unstable} -> {out}")
    return 0


def cmd_perturb(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    section = _require(cfg, "perturb")
    bg, preset_p, preset_q = _background(section)
    p, q = _physics(cfg, preset_p, preset_q)
    grid = _build_grid(cfg)
    epsilon = float(_require(section, "epsilon", "perturb"))
    if epsilon < 0:
        raise ConfigError("perturb.epsilon must be nonnegative")
    if epsilon == 0 and not section.get("T"):
        raise ConfigError("perturb.T is required when epsilon is 0 (no intrinsic horizon)")
    seed_band = int(section.get("seed_band", max(bg.J, 1)))
    if not 0 <= seed_band <= grid.N:
        raise ConfigError(f"perturb.seed_band={seed_band} outside 0..{grid.N} (the grid N)")
    rng = np.random.default_rng(cfg["seed"])
    u0 = random_hermitian_perturbation(grid, seed_band, rng)

    scan = _scan_from(section, "perturb")
    kappa_cfg = section.get("kappa")
    if kappa_cfg is None:
        k_max = _k_max(section, "perturb", 6)
        kappa = min(penrose_margin(bg, p, q, k, scan).margin for k in range(1, k_max + 1))
    else:
        kappa = float(kappa_cfg)
    # epsilon = 0 has no intrinsic horizon; constants evaluated at a nominal
    # epsilon so c_star and friends are still reported
    consts = propagator_constants(
        bg.h1s1_norm(),
        bg.l1_norm(),
        kappa,
        q,
        float(section.get("eta", 1.0)),
        epsilon if epsilon > 0 else 1.0,
        _bilinear_constant(section, int(cfg["seed"])),
    )

    gamma_mat = background_to_matrix(bg, grid)
    datum_entries = gamma_mat.entries + epsilon * u0.entries
    try:
        datum = eigendecompose(
            OperatorMatrix(grid, datum_entries, hermitian=True),
            drop_tol=float(section.get("drop_tol", 1e-12)),
        )
    except NotNonNegativeError as exc:
        raise ConfigError(f"perturbed datum is not a state: {exc}") from exc

    horizon = float(section.get("T") or consts.t_star)
    dt = float(section.get("dt", 1e-3))
    if not (math.isfinite(horizon) and math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"perturb needs a finite horizon and a finite dt > 0, got T={horizon}, dt={dt}")
    # the run takes whole steps, so the horizon it reports is steps * dt
    steps = max(1, int(round(horizon / dt)))
    horizon = steps * dt
    record_every = int(section.get("record_every", max(1, steps // 200)))
    run_cfg = _evolve_config(p, q, dt, horizon, record_every)

    def deviation_of(st: MixedState) -> float:
        diff = to_matrix(st).entries - gamma_mat.entries
        return sobolev_schatten_norm(OperatorMatrix(grid, diff, hermitian=True), 1.0)

    code = 0
    times, deviations = [], []
    for t, state in iter_evolve(datum, run_cfg):
        dev = deviation_of(state)
        # the datum's own row is always kept, so there is a last good time
        if t > 0.0 and (not math.isfinite(dev) or dev > DIVERGENCE_LIMIT):
            print(f"divergence at t={t:.6g}; keeping records up to the last good time", file=sys.stderr)
            code = 3
            break
        times.append(t)
        deviations.append(dev)

    lin = linearized_evolve(
        OperatorMatrix(grid, epsilon * u0.entries, hermitian=True),
        bg,
        run_cfg,
        matrix_every=1,
    )
    lin_dev = {
        float(t): sobolev_schatten_norm(m, 1.0) for t, m in zip(lin.matrix_times, lin.matrices)
    }
    window = section.get("fit_window")
    fit_rate = math.nan
    usable = [(t, d) for t, d in zip(times, deviations) if d > 0]
    if window and len(usable) >= 2:
        lo, hi = float(window[0]), float(window[1])
        pts = [(t, math.log(d)) for t, d in usable if lo <= t <= hi]
        if len(pts) >= 2:
            ts, ys = zip(*pts)
            fit_rate = float(np.polyfit(ts, ys, 1)[0])
    rows = []
    for t, dev in zip(times, deviations):
        bound = 2.0 * consts.c_star * (1.0 + t * t) * epsilon
        rows.append((t, dev, lin_dev.get(float(t), math.nan), bound, fit_rate))
    write_csv(
        out / "deviation.csv",
        ("t", "deviation_h1s1", "linearized_h1s1", "bound", "fit_rate"),
        rows,
    )
    write_json(
        out / "summary.json",
        {
            "constants": consts.to_dict(),
            "epsilon": epsilon,
            "horizon": horizon,
            "fit_rate": fit_rate,
            "kappa": kappa,
            "max_deviation": max(deviations) if deviations else math.nan,
        },
    )
    write_manifest(out, "perturb", cfg, cfg["seed"], t0)
    print(f"perturb: eps={epsilon:g} T={horizon:.4g} max_dev={max(deviations):.4g} -> {out}")
    return code


def cmd_inequalities(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    section = _require(cfg, "ensemble")
    try:
        ens = EnsembleConfig(
            n_samples=int(_require(section, "n_samples", "ensemble")),
            grid=SpectralGrid(int(section.get("N", 32))),
            rank_range=tuple(section.get("rank_range", (1, 4))),
            decay_exponent=float(section.get("decay_exponent", 2.0)),
            seed=int(cfg["seed"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if ens.rank_range[1] > ens.grid.n_modes:
        raise ConfigError(f"ensemble.rank_range {ens.rank_range} exceeds the {ens.grid.n_modes} modes of N")
    s = float(section.get("s", 1.0))
    names = tuple(section.get("checks", ALL_CHECKS))
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {unknown}")
    if not (math.isfinite(s) and s >= 0.0):
        raise ConfigError(f"ensemble.s must be finite and >= 0, got {s}")
    if "bessel" in names and s <= 0.5:
        raise ConfigError(f"ensemble.s={s}: the bessel check needs s > 1/2")
    results = run_checks(ens, s, names)
    if section.get("apriori", True):
        p, q = _physics(cfg, 1.0, 1.0)
        results.append(check_apriori_ensemble(ens, p, q))
    rows = [
        (r.name, r.n_samples, r.violations, r.worst_ratio, r.empirical_constant, cfg["seed"])
        for r in results
    ]
    write_csv(
        out / "checks.csv",
        ("name", "n_samples", "violations", "worst_ratio", "empirical_constant", "seed"),
        rows,
    )
    violators = [r for r in results if r.violations]
    for r in violators:
        if r.offender is not None:
            write_json(out / f"offender_{r.name}.json", r.offender)
    write_manifest(out, "inequalities", cfg, cfg["seed"], t0)
    print(f"inequalities: {len(results)} checks, {sum(r.violations for r in violators)} violations -> {out}")
    return 4 if violators else 0


def cmd_convergence(cfg: dict, out: Path) -> int:
    t0 = time.perf_counter()
    section = _require(cfg, "convergence")
    mode = section.get("mode", "dt")
    grid = _build_grid(cfg)
    p, q = _physics(cfg)
    horizon = float(section.get("T", 1.0))
    rng = np.random.default_rng(cfg["seed"])
    state = _build_state(cfg, grid, rng)
    rows = []
    if mode == "dt":
        dts = [float(x) for x in _require(section, "dts", "convergence")]
        dt_ref = float(_require(section, "dt_ref", "convergence"))
        runs = [_evolve_config(p, q, dt, horizon) for dt in dts]
        ref, _ = evolve(state, _evolve_config(p, q, dt_ref, horizon))
        ref_mat = to_matrix(ref).entries
        errors = []
        for run_cfg in runs:
            final, _ = evolve(state, run_cfg)
            diff = to_matrix(final).entries - ref_mat
            errors.append(float(np.sqrt(np.sum(np.abs(diff) ** 2))))
        for i, (dt, err) in enumerate(zip(dts, errors)):
            ratio = errors[i - 1] / err if i and err else math.nan
            rows.append((dt, err, ratio))
        write_csv(out / "errors.csv", ("dt", "error_s2", "ratio"), rows)
    elif mode == "N":
        n_list = [int(x) for x in _require(section, "Ns", "convergence")]
        bad = [n for n in n_list if not 1 <= n <= grid.N]
        if bad:
            raise ConfigError(f"convergence Ns {bad} outside 1..{grid.N} (the grid N)")
        dt = float(section.get("dt", 1e-3))
        run_cfg = _evolve_config(p, q, dt, horizon)
        ref, _ = evolve(state, run_cfg)
        ref_mat = to_matrix(ref)
        for n_prime in n_list:
            small_grid = SpectralGrid(n_prime)
            sel = np.abs(grid.modes()) <= n_prime
            sub = MixedState(
                small_grid,
                state.weights,
                state.orbitals[:, sel],
                gram_tol=math.inf,
            )
            sub = reorthonormalized(sub)
            final, _ = evolve(sub, run_cfg)
            fin_mat = to_matrix(final).entries
            embedded = np.zeros_like(ref_mat.entries)
            embedded[np.ix_(sel, sel)] = fin_mat
            diff = embedded - galerkin_truncate(ref_mat, grid.N).entries
            err = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
            rows.append((n_prime, err, math.nan))
        write_csv(out / "errors.csv", ("N", "error_s2", "ratio"), rows)
    else:
        raise ConfigError(f"convergence.mode must be 'dt' or 'N', got {mode!r}")
    write_manifest(out, "convergence", cfg, cfg["seed"], t0)
    print(f"convergence ({mode}): {len(rows)} rows -> {out}")
    return 0


HANDLERS = {
    "simulate": cmd_simulate,
    "penrose": cmd_penrose,
    "perturb": cmd_perturb,
    "inequalities": cmd_inequalities,
    "convergence": cmd_convergence,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alber-lab",
        description="Simulation and stability analysis of mixed-state cubic NLS dynamics on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "split-step evolution of a mixed state; trajectory CSV + density spectra",
        "penrose": "dispersion zeros and Penrose margin of a background per mode; per-mode CSV + constants",
        "perturb": "nonlinear vs linearized deviation from a background; deviation CSV",
        "inequalities": "randomized verification of the functional estimates; results CSV",
        "convergence": "integrator and truncation refinement studies; error CSV",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="path to the JSON configuration")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="override the config output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out)
        check_keys(cfg, args.command)
        out = Path(cfg["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        return HANDLERS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
