"""Command-line interface.

    alber-lab <simulate|penrose|perturb|inequalities|convergence>
              --config <path> [--seed <u64>] [--out <dir>]

Configuration is a single JSON document per run, resolved against
CONFIG_SCHEMA (each key's type and default); --seed and --out override the
corresponding fields.  main is the one run envelope: it times the run and
writes a manifest.json echoing the resolved configuration, the seed, the
tool version, wall-clock time and a sha256 per data file the run wrote (on
exit 3 and 4 too).  Data files are byte-identical across reruns with the
same configuration and seed (the manifest's clock fields are the one
intentional exception).

Exit codes: 0 success, 2 configuration or input error (the message names
the key), 3 numerical divergence, 4 inequality-check violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import math
import sys
import time
import types
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .dynamics import (
    DivergenceError,
    EvolveConfig,
    TrajectoryRecord,
    _trusted,
    evolve,
    iter_evolve,
    linearized_evolve,
)
from .inequalities import (
    ALL_CHECKS,
    APRIORI_DT,
    APRIORI_T,
    EnsembleConfig,
    run_checks,
)
from .penrose import check_eta_min, penrose_margin, propagator_constants
from .presets import background_preset, random_hermitian_perturbation, random_smooth_state
from .spectral import SpectralGrid
from .states import (
    BackgroundSymbol,
    MixedState,
    NotNonNegativeError,
    OperatorMatrix,
    _check_hermitian,
    _factored_trace_norm,
    background_to_matrix,
    background_to_state,
    eigendecompose,
    reorthonormalized,
    state_from_dict,
    state_to_dict,
    to_matrix,
)

TRAJECTORY_HEADER = ("t", "mass", "s2", "energy", "kinetic", "gram_dev", "h1s1")
# records of perturb's two flows per stack of norms
PERTURB_BLOCK = 32


class ConfigError(ValueError):
    """The configuration document is missing, malformed or inconsistent."""


# ---- small IO helpers ----


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# the data files the run in progress has written, for its manifest; main empties it
_written: list[Path] = []


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # RFC 4180 line endings
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    _written.append(path)


def write_json(path: Path, payload: dict) -> None:
    """payload as strict JSON (RFC 8259): a NaN or infinity in it is a ValueError."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _written.append(path)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(out_dir: Path, subcommand: str, config: dict, t0: float) -> None:
    """manifest.json of the run started at t0, listing the data files it wrote."""
    outputs = sorted(_written)
    write_json(
        out_dir / "manifest.json",
        {
            "schema": "alber-lab/manifest-v1",
            "subcommand": subcommand,
            "config": config,
            "seed": config["seed"],
            "version": __version__,
            "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "elapsed_s": round(time.perf_counter() - t0, 3),
            "outputs": [{"path": p.name, "sha256": _sha256(p)} for p in outputs],
        },
    )


# ---- config plumbing ----


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
    return cfg


# Each key a subcommand reads maps to its default, whose type is the key's type
# (a tuple default is a list of its first item's type), or, with no default, to
# its type; a key whose type admits None may be left out.
GRID = {"N": int, "M": 0}
PHYSICS = {"p": float, "q": float}
STATE = {"file": str | None, "preset": str | None, "rank": 4, "band": int | None, "decay": 3.0, "mass": 1.0,
         "name": str | None}
# read by both the penrose and the perturb section; physics.p/q default to the preset's
MARGIN = {"background": str | dict, "eta": 1.0, "c_bilinear": float | None, "eta_min": 1e-3}
PRESET_PHYSICS = {"p": float | None, "q": float | None}
COMMON = {"output_dir": str, "seed": 0}
CONFIG_SCHEMA = {
    "simulate": {"grid": GRID, "physics": PHYSICS, "time": {"dt": float, "T": float, "record_every": 1},
                 "state": STATE, **COMMON},
    "penrose": {"physics": PRESET_PHYSICS, "penrose": {**MARGIN, "k_max": 8, "epsilon": 1e-2}, **COMMON},
    "perturb": {"grid": GRID, "physics": PRESET_PHYSICS, **COMMON,
                "perturb": {**MARGIN, "k_max": 6, "epsilon": float, "kappa": float | None, "T": float | None,
                            "dt": 1e-3, "seed_band": int | None, "drop_tol": 1e-12,
                            "record_every": int | None, "fit_window": list[float] | None}},
    "inequalities": {"physics": {"p": 1.0, "q": 1.0}, **COMMON,
                     "ensemble": {"n_samples": int, "N": 32, "rank_range": (1, 4), "decay_exponent": 2.0,
                                  "s": 1.0, "checks": ALL_CHECKS, "apriori": True}},
    "convergence": {"grid": GRID, "physics": PHYSICS, "state": STATE, **COMMON,
                    "convergence": {"mode": "dt", "T": 1.0, "dts": list[float] | None, "dt_ref": float | None,
                                    "Ns": list[int] | None, "dt": 1e-3}},
}


def _checked(value, spec, where: str):
    """A value (None when absent) as its schema entry says, or the entry's
    default.  A dict entry is a section, or the whole config (where is ""):
    it allows no other key, so a typo cannot fall back to a default.  An int
    must be integral, a float finite and a bool a JSON bool; the items of a
    list are checked one by one."""
    if isinstance(spec, dict):
        prefix = f"{where}." if where else ""
        section = {} if value is None else value
        if not isinstance(section, dict):
            raise ConfigError(f"{where} must be a JSON object")
        for key in section:
            if key not in spec:
                raise ConfigError(f"unknown key {prefix + key!r}; allowed: {', '.join(spec)}")
        return {key: _checked(section.get(key), kind, prefix + key) for key, kind in spec.items()}
    kind = spec
    if not isinstance(spec, (type, types.UnionType, types.GenericAlias)):  # a default
        if value is None:
            return spec
        kind = list[type(spec[0])] if isinstance(spec, tuple) else type(spec)
    for option in get_args(kind) if isinstance(kind, types.UnionType) else (kind,):
        if get_origin(option) is list:
            if isinstance(value, list):
                return [_checked(item, get_args(option)[0], f"{where}[{i}]") for i, item in enumerate(value)]
        elif option is int and (type(value) is int or type(value) is float and value.is_integer()):
            return int(value)  # type(), not isinstance: a bool is not a number here
        elif option is float and type(value) in (int, float) and math.isfinite(value):
            return float(value)
        elif option not in (int, float) and isinstance(value, option):
            return value
    if value is None:
        raise ConfigError(f"missing key {where}")
    name = str(kind).removeprefix("<class '").removesuffix("'>").replace("float", "finite float")
    raise ConfigError(f"{where} must be {name}, got {value!r}")


def check_keys(cfg: dict, subcommand: str) -> dict:
    """cfg resolved against CONFIG_SCHEMA[subcommand]: every key checked and
    every default filled in."""
    resolved = _checked(cfg, CONFIG_SCHEMA[subcommand], "")
    if resolved["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']}")
    return resolved


def _call(section: str, api, *args, **kwargs):
    """api(*args, **kwargs), its ValueError as a ConfigError in section.  An
    API message starts with the name of the parameter at fault, and the CLI
    passes each key to the parameter of the same name, so it names the key."""
    try:
        return api(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _build_grid(cfg: dict) -> SpectralGrid:
    return _call("grid", SpectralGrid, cfg["grid"]["N"], cfg["grid"]["M"])


def _physics(cfg: dict, preset_p=None, preset_q=None) -> tuple[float, float]:
    phys = cfg["physics"]
    p = preset_p if phys["p"] is None else phys["p"]
    q = preset_q if phys["q"] is None else phys["q"]
    if p is None or q is None or p * q == 0.0:
        raise ConfigError("physics.p and physics.q must be nonzero (and given, with a symbol background)")
    return p, q


def _evolve_config(
    p: float, q: float, dt: float, T: float, where: str, record_every: int = 10**9, dt_key: str = "dt"
):
    """EvolveConfig with its input errors as ConfigError at the section where,
    an error about dt naming the key dt_key; by default only the endpoints
    are recorded."""
    try:
        return EvolveConfig(p=p, q=q, dt=dt, T=T, record_every=record_every)
    except ValueError as exc:
        msg = str(exc)
        if msg.startswith("dt"):
            msg = dt_key + msg[len("dt"):]
        raise ConfigError(f"{where}.{msg}") from exc


def _preset(name: str, where: str) -> tuple[BackgroundSymbol, float, float]:
    try:
        return background_preset(name)
    except KeyError as exc:
        raise ConfigError(f"{where}: {exc.args[0]}") from exc


def _background(section: dict, where: str) -> tuple[BackgroundSymbol, float | None, float | None]:
    bg_spec = section["background"]
    if isinstance(bg_spec, str):
        return _preset(bg_spec, f"{where}.background")
    if "symbol" in bg_spec:
        symbol = _checked(bg_spec["symbol"], list[float], f"{where}.background.symbol")
        return _call(f"{where}.background", BackgroundSymbol, np.asarray(symbol, dtype=float)), None, None
    raise ConfigError(f"{where}.background must be a preset name or {{'symbol': [...]}}")


def _build_state(cfg: dict, grid: SpectralGrid, rng: np.random.Generator) -> MixedState:
    spec = cfg["state"]
    if spec["file"] is not None:
        try:
            with open(spec["file"]) as fh:
                return state_from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
            raise ConfigError(f"state.file: cannot load {spec['file']}: {exc}") from exc
    if spec["preset"] == "random-smooth":
        # random_smooth_state checks rank and band against the grid; its mass is called total_mass
        if spec["mass"] < 0.0:
            raise ConfigError(f"state.mass must be >= 0, got {spec['mass']}")
        return _call(
            "state",
            random_smooth_state,
            grid,
            rank=spec["rank"],
            band=min(12, grid.N) if spec["band"] is None else spec["band"],
            decay=spec["decay"],
            rng=rng,
            total_mass=spec["mass"],
        )
    if spec["preset"] == "background":
        bg, _, _ = _preset(spec["name"], "state.name")
        if grid.N < bg.J:
            raise ConfigError(f"grid.N={grid.N} cannot hold the support J={bg.J} of state.name {spec['name']!r}")
        return background_to_state(bg, grid)
    raise ConfigError("state must give 'file' or state.preset 'random-smooth'/'background'")


def _write_trajectory(out: Path, grid: SpectralGrid, records: list[TrajectoryRecord]) -> None:
    rows = ((r.t, r.mass, r.s2_norm, r.energy, r.kinetic, r.gram_dev, r.h1s1) for r in records)
    write_csv(out / "trajectory.csv", TRAJECTORY_HEADER, rows)
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
    """split-step evolution of a mixed state; trajectory CSV + density spectra"""
    grid = _build_grid(cfg)
    p, q = _physics(cfg)
    tsec = cfg["time"]
    run_cfg = _evolve_config(
        p,
        q,
        dt=tsec["dt"],
        T=tsec["T"],
        where="time",
        record_every=tsec["record_every"],
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
    print(f"simulate: {len(records)} records -> {out}")
    return code


def _margins(section: dict, where: str, bg: BackgroundSymbol, p: float, q: float) -> list:
    """penrose_margin for k = 1..k_max, on the line Re(lambda) = the section's eta_min."""
    if section["k_max"] < 1:
        raise ConfigError(f"{where}.k_max must be >= 1, got {section['k_max']}")
    return [_call(where, penrose_margin, bg, p, q, k, section["eta_min"]) for k in range(1, section["k_max"] + 1)]


def _bilinear_constant(section: dict, seed: int) -> float:
    """The section's c_bilinear, else the empirical bilinear constant of a
    40-sample ensemble at N = 16."""
    c_bil = section.get("c_bilinear")
    if c_bil is None:
        return run_checks(EnsembleConfig(40, SpectralGrid(16), seed=seed), 1.0, ("bilinear",))[0].empirical_constant
    return float(c_bil)


def _constants(cfg: dict, where: str, bg: BackgroundSymbol, kappa: float, q: float, epsilon: float):
    """propagator_constants of the background of section where."""
    c_bilinear = _bilinear_constant(cfg[where], cfg["seed"])
    args = (bg.h1s1_norm(), bg.l1_norm(), kappa, q, cfg[where]["eta"], epsilon, c_bilinear)
    return _call(where, propagator_constants, *args)


def cmd_penrose(cfg: dict, out: Path) -> int:
    """dispersion zeros and Penrose margin of a background per mode; per-mode CSV + constants"""
    section = cfg["penrose"]
    bg, preset_p, preset_q = _background(section, "penrose")
    p, q = _physics(cfg, preset_p, preset_q)
    reports = _margins(section, "penrose", bg, p, q)
    kappa = min(r.margin for r in reports)
    unstable = any(r.zeros for r in reports)
    payload = {
        "kappa_scanned": kappa,
        "stable_in_scan": not unstable,
        "per_mode": [r.to_dict() for r in reports],
        "note": "kappa_scanned is the minimum over k = 1..k_max of inf |F_k| on Re(lambda) >= eta_min",
    }
    # the constants come before any file is written, so an input error they find leaves none
    if not unstable:
        payload["constants"] = _constants(cfg, "penrose", bg, kappa, q, section["epsilon"]).to_dict()
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
    write_json(out / "constants.json", payload)
    print(f"penrose: kappa={kappa:.6g} stable={not unstable} -> {out}")
    return 0


def _hermitian_trace_norm(stack: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices, the sums of their |eigenvalues|; a
    ValueError if one is not Hermitian (states._check_hermitian, one call per stack)."""
    _check_hermitian(stack)
    return np.abs(np.linalg.eigvalsh(stack)).sum(axis=-1)


def cmd_perturb(cfg: dict, out: Path) -> int:
    """nonlinear vs linearized deviation from a background; deviation CSV"""
    section = cfg["perturb"]
    bg, preset_p, preset_q = _background(section, "perturb")
    p, q = _physics(cfg, preset_p, preset_q)
    grid = _build_grid(cfg)
    epsilon, horizon, window = section["epsilon"], section["T"], section["fit_window"]
    if epsilon < 0:
        raise ConfigError(f"perturb.epsilon must be >= 0, got {epsilon}")
    if horizon is not None and horizon <= 0.0:
        raise ConfigError(f"perturb.T must be > 0, got {horizon}")
    if epsilon == 0 and horizon is None:
        raise ConfigError("perturb.T is required when epsilon is 0 (no intrinsic horizon)")
    if window is not None and not (len(window) == 2 and window[0] < window[1]):
        raise ConfigError(f"perturb.fit_window must be [t_lo, t_hi] with t_lo < t_hi, got {window}")
    if grid.N < bg.J:
        raise ConfigError(f"grid.N={grid.N} cannot hold the support J={bg.J} of perturb.background")
    _call("perturb", check_eta_min, section["eta_min"])  # also when a given kappa leaves it unread
    seed_band = max(bg.J, 1) if section["seed_band"] is None else section["seed_band"]
    if not 0 <= seed_band <= grid.N:
        raise ConfigError(f"perturb.seed_band={seed_band} outside 0..{grid.N} (the grid N)")
    rng = np.random.default_rng(cfg["seed"])
    u0 = random_hermitian_perturbation(grid, seed_band, rng)

    kappa = section["kappa"]
    if kappa is None:
        kappa = min(r.margin for r in _margins(section, "perturb", bg, p, q))
    # epsilon = 0 has no intrinsic horizon; constants evaluated at a nominal
    # epsilon so c_star and friends are still reported
    consts = _constants(cfg, "perturb", bg, kappa, q, epsilon if epsilon > 0 else 1.0)

    gamma_mat = background_to_matrix(bg, grid)
    datum_entries = gamma_mat.entries + epsilon * u0.entries
    try:
        datum = eigendecompose(
            OperatorMatrix(grid, datum_entries, hermitian=True),
            drop_tol=section["drop_tol"],
        )
    except NotNonNegativeError as exc:
        raise ConfigError(f"perturb.epsilon: the perturbed datum is not a state: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"perturb.{exc}") from exc

    horizon = consts.t_star if horizon is None else horizon
    dt = section["dt"]
    if not (dt > 0.0 and math.isfinite(horizon / dt)):
        raise ConfigError(f"perturb needs a finite number of steps dt > 0, got T={horizon}, dt={dt}")
    # the run takes whole steps, so the horizon it reports is steps * dt
    steps = max(1, int(round(horizon / dt)))
    horizon = steps * dt
    record_every = max(1, steps // 200) if section["record_every"] is None else section["record_every"]
    run_cfg = _evolve_config(p, q, dt, horizon, "perturb", record_every)

    lin = linearized_evolve(
        OperatorMatrix(grid, epsilon * u0.entries, hermitian=True),
        bg,
        run_cfg,
        matrix_every=1,
    )
    # <D>(gamma(t) - Gamma)<D> = F C F* with F = <D>[orbitals(t)^T | plane waves of Gamma] and
    # C = diag(mu, -Gamma_hat(supp)), whose trace norm is taken in factor space (rank r + |supp|)
    weight = grid.brackets_sq() ** 0.5
    bg_state = background_to_state(bg, grid)
    waves = weight[:, None] * bg_state.orbitals.T
    core = np.diag(np.concatenate([datum.weights, -bg_state.weights]))
    records = zip(iter_evolve(datum, run_cfg), lin.matrices)
    code = 0
    rows = []
    # both flows advance a block of records at a time; the norms of a block are two stacked calls,
    # and the block bounds the stacks, so their memory does not grow with the number of records
    while code == 0 and (block := list(itertools.islice(records, PERTURB_BLOCK))):
        times = [t for (t, _), _ in block]
        orbitals = np.stack([state.orbitals for (_, state), _ in block])
        factors = np.concatenate(
            [weight[:, None] * orbitals.swapaxes(-1, -2), np.broadcast_to(waves, (len(block), *waves.shape))], axis=-1
        )
        devs = _factored_trace_norm(factors, core)
        # the explicit linearized step can overflow, and a matrix that is not finite has no spectrum
        with np.errstate(over="ignore", invalid="ignore"):
            lin_weighted = weight[:, None] * np.stack([lin_u.entries for _, lin_u in block]) * weight
            finite = np.isfinite(lin_weighted).all(axis=(-2, -1))
            lin_devs = np.full(len(block), math.inf)
            lin_devs[finite] = _hermitian_trace_norm(lin_weighted[finite])
        for t, dev, lin_dev in zip(times, devs.tolist(), lin_devs.tolist()):
            # the datum's own row is always kept, so there is a last good time
            if t > 0.0 and not _trusted(dev, lin_dev):
                print(f"divergence at t={t:.6g}; keeping records up to the last good time", file=sys.stderr)
                code = 3
                break
            rows.append((t, dev, lin_dev, 2.0 * consts.c_star * (1.0 + t * t) * epsilon))
    fit_rate = None
    if window is not None:
        lo, hi = window
        pts = [(t, math.log(dev)) for t, dev, *_ in rows if dev > 0 and lo <= t <= hi]
        if len(pts) >= 2:
            ts, ys = zip(*pts)
            fit_rate = float(np.polyfit(ts, ys, 1)[0])
    write_csv(
        out / "deviation.csv",
        ("t", "deviation_h1s1", "linearized_h1s1", "bound", "fit_rate"),
        [(*row, math.nan if fit_rate is None else fit_rate) for row in rows],
    )
    max_deviation = max(dev for _, dev, *_ in rows)
    write_json(
        out / "summary.json",
        {
            "constants": consts.to_dict(),
            "epsilon": epsilon,
            "horizon": horizon,
            "fit_rate": fit_rate,
            "kappa": kappa,
            "max_deviation": max_deviation,
        },
    )
    print(f"perturb: eps={epsilon:g} T={horizon:.4g} max_dev={max_deviation:.4g} -> {out}")
    return code


def cmd_inequalities(cfg: dict, out: Path) -> int:
    """randomized verification of the functional estimates; results CSV"""
    section = cfg["ensemble"]
    ens = _call(
        "ensemble",
        EnsembleConfig,
        n_samples=section["n_samples"],
        grid=_call("ensemble", SpectralGrid, section["N"]),
        rank_range=tuple(section["rank_range"]),
        decay_exponent=section["decay_exponent"],
        seed=cfg["seed"],
    )
    apriori = (*_physics(cfg), APRIORI_T, APRIORI_DT) if section["apriori"] else None
    results = _call("ensemble", run_checks, ens, section["s"], tuple(section["checks"]), apriori)
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
    print(f"inequalities: {len(results)} checks, {sum(r.violations for r in violators)} violations -> {out}")
    return 4 if violators else 0


def _truncated(state: MixedState, n: int) -> MixedState:
    """state cut to the modes |k| <= n and re-orthonormalized."""
    sel = np.abs(state.grid.modes()) <= n
    cut = MixedState(SpectralGrid(n), state.weights, state.orbitals[:, sel], gram_tol=math.inf)
    return reorthonormalized(cut)


def cmd_convergence(cfg: dict, out: Path) -> int:
    """integrator and truncation refinement studies; error CSV"""
    section = cfg["convergence"]
    mode, horizon = section["mode"], section["T"]
    if mode not in ("dt", "N"):
        raise ConfigError(f"convergence.mode must be 'dt' or 'N', got {mode!r}")
    grid = _build_grid(cfg)
    p, q = _physics(cfg)
    rng = np.random.default_rng(cfg["seed"])
    state = _build_state(cfg, grid, rng)
    # (label, start state, EvolveConfig) per refinement, and the reference's EvolveConfig
    if mode == "dt":
        dts, dt_ref = section["dts"], section["dt_ref"]
        if dts is None or dt_ref is None:
            raise ConfigError("convergence.dts and convergence.dt_ref are required in mode 'dt'")
        if not dts:
            raise ConfigError("convergence.dts is empty; mode 'dt' needs at least one step")
        runs = [
            (dt, state, _evolve_config(p, q, dt, horizon, "convergence", dt_key=f"dts[{i}]"))
            for i, dt in enumerate(dts)
        ]
        ref_cfg = _evolve_config(p, q, dt_ref, horizon, "convergence", dt_key="dt_ref")
        if dt_ref > min(dts):
            raise ConfigError(
                f"convergence.dt_ref={dt_ref:g} is coarser than the finest step min(dts)={min(dts):g}; "
                "the reference must be at least as fine as every step it judges"
            )
    else:
        n_list = section["Ns"]
        if n_list is None:
            raise ConfigError("convergence.Ns is required in mode 'N'")
        if not n_list:
            raise ConfigError("convergence.Ns is empty; mode 'N' needs at least one cutoff")
        bad = [n for n in n_list if not 1 <= n <= grid.N]
        if bad:
            raise ConfigError(f"convergence Ns {bad} outside 1..{grid.N} (the grid N)")
        ref_cfg = _evolve_config(p, q, section["dt"], horizon, "convergence")
        runs = [(n, _truncated(state, n), ref_cfg) for n in n_list]
    ref, _ = evolve(state, ref_cfg)
    ref_mat = to_matrix(ref).entries
    rows = []
    for label, start, run_cfg in runs:
        final, _ = evolve(start, run_cfg)
        sel = np.abs(grid.modes()) <= start.grid.N
        embedded = np.zeros_like(ref_mat)  # the final matrix on the reference grid
        embedded[np.ix_(sel, sel)] = to_matrix(final).entries
        err = float(np.sqrt(np.sum(np.abs(embedded - ref_mat) ** 2)))
        ratio = rows[-1][1] / err if mode == "dt" and rows and err else math.nan
        rows.append((label, err, ratio))
    write_csv(out / "errors.csv", (mode, "error_s2", "ratio"), rows)
    print(f"convergence ({mode}): {len(rows)} rows -> {out}")
    return 0


HANDLERS = {
    "simulate": cmd_simulate,
    "penrose": cmd_penrose,
    "perturb": cmd_perturb,
    "inequalities": cmd_inequalities,
    "convergence": cmd_convergence,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="alber-lab",
        description="Simulation and stability analysis of mixed-state cubic NLS dynamics on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in HANDLERS.items():
        sp = sub.add_parser(name, help=handler.__doc__)
        sp.add_argument("--config", required=True, help="path to the JSON configuration")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="override the config output_dir")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    _written.clear()
    try:
        cfg = check_keys(load_config(args.config, args.seed, args.out), args.command)
        out = Path(cfg["output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        code = HANDLERS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence at t={exc.t:.6g}; no data file written", file=sys.stderr)
        code = 3
    write_manifest(out, args.command, cfg, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
