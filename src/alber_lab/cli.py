"""Command-line interface.

    alber-lab <simulate|penrose|perturb|inequalities|convergence>
              --config <path> [--seed <u64>] [--out <dir>]

Configuration is a single JSON document per run, resolved against
CONFIG_SCHEMA (each key's type and default); --seed and --out override the
corresponding fields.  The CLI only parses and writes: a subcommand makes
one call to the API function that runs its science and writes what it
returns.  main is the one run envelope: it times the run and
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
import io
import json
import math
import sys
import time
import types
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .dynamics import DivergenceError, EvolveConfig, TrajectoryRecord, convergence_study, evolve
from .inequalities import ALL_CHECKS, APRIORI_DT, APRIORI_T, EnsembleConfig, run_checks
from .penrose import margin_report, perturbation_run
from .presets import background_preset, random_smooth_state
from .spectral import SpectralGrid
from .states import BackgroundSymbol, MixedState, background_to_state, state_from_dict, state_to_dict

TRAJECTORY_HEADER = ("t", "mass", "s2", "energy", "kinetic", "gram_dev", "h1s1")


class ConfigError(ValueError):
    """The configuration document is missing, malformed or inconsistent."""


# ---- small IO helpers ----


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# the data files the run in progress has written, with the sha256 of their bytes, for its manifest; main empties it
_written: dict[Path, str] = {}


def _write(path: Path, data: bytes) -> None:
    path.write_bytes(data)
    _written[path] = hashlib.sha256(data).hexdigest()


def write_csv(path: Path, header, rows) -> None:
    text = io.StringIO()
    writer = csv.writer(text)  # RFC 4180 line endings
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    _write(path, text.getvalue().encode())


def write_json(path: Path, payload: dict) -> None:
    """payload as strict JSON (RFC 8259): a NaN or infinity in it is a ValueError."""
    _write(path, (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode())


def write_manifest(out_dir: Path, subcommand: str, config: dict, t0: float) -> None:
    """manifest.json of the run started at t0, listing the data files it wrote with the sha256 of their bytes."""
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
            "outputs": [{"path": p.name, "sha256": digest} for p, digest in sorted(_written.items())],
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
                            "dt": 1e-3, "seed_band": int | None,
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
    """api(*args, **kwargs), its ValueError as a ConfigError.  An API message
    starts with the name of the parameter at fault, and the CLI passes each key
    of section to the parameter of the same name (physics.p to p, and the grid
    to grid, whose messages name grid.N), so the message names the key."""
    try:
        return api(*args, **kwargs)
    except ValueError as exc:
        where = "physics." if str(exc).startswith("p ") else "" if str(exc).startswith("grid.") else f"{section}."
        raise ConfigError(f"{where}{exc}") from exc


def _build_grid(cfg: dict) -> SpectralGrid:
    return _call("grid", SpectralGrid, cfg["grid"]["N"], cfg["grid"]["M"])


def _physics(cfg: dict, preset_p=None, preset_q=None) -> tuple[float, float]:
    phys = cfg["physics"]
    p = preset_p if phys["p"] is None else phys["p"]
    q = preset_q if phys["q"] is None else phys["q"]
    if p is None or q is None or p * q == 0.0:
        raise ConfigError("physics.p and physics.q must be nonzero (and given, with a symbol background)")
    return p, q


def _preset(name: str, where: str) -> tuple[BackgroundSymbol, float, float]:
    try:
        return background_preset(name)
    except KeyError as exc:
        raise ConfigError(f"{where}: {exc.args[0]}") from exc


def _background(cfg: dict, where: str) -> tuple[BackgroundSymbol, float, float, dict]:
    """The background of section where, its physics p and q, and the section's other keys."""
    section = cfg[where]
    bg_spec = section["background"]
    if isinstance(bg_spec, str):
        bg, p, q = _preset(bg_spec, f"{where}.background")
    elif "symbol" in bg_spec:
        symbol = _checked(bg_spec["symbol"], list[float], f"{where}.background.symbol")
        bg, p, q = _call(f"{where}.background", BackgroundSymbol, np.asarray(symbol, dtype=float)), None, None
    else:
        raise ConfigError(f"{where}.background must be a preset name or {{'symbol': [...]}}")
    return bg, *_physics(cfg, p, q), {key: value for key, value in section.items() if key != "background"}


def _build_state(cfg: dict, grid: SpectralGrid) -> MixedState:
    spec = cfg["state"]
    if spec["file"] is not None:
        try:
            with open(spec["file"]) as fh:
                state = state_from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise ConfigError(f"state.file: cannot load {spec['file']}: {exc}") from exc
        if state.grid != grid:
            raise ConfigError(f"state.file: {spec['file']} holds a state on {state.grid}, not on the grid {grid}")
        return state
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
            rng=np.random.default_rng(cfg["seed"]),
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
    run_cfg = _call("time", EvolveConfig, p, q, **cfg["time"])
    state = _build_state(cfg, grid)
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


def cmd_penrose(cfg: dict, out: Path) -> int:
    """dispersion zeros and Penrose margin of a background per mode; per-mode CSV + constants"""
    bg, p, q, keys = _background(cfg, "penrose")
    report = _call("penrose", margin_report, bg, p, q, seed=cfg["seed"], **keys)
    payload = {
        "kappa_scanned": report.kappa,
        "stable_in_scan": report.stable,
        "per_mode": [r.to_dict() for r in report.reports],
        "note": "kappa_scanned is the minimum over k = 1..k_max of inf |F_k| on Re(lambda) >= eta_min",
    }
    if report.stable:
        payload["constants"] = report.constants.to_dict()
    rows = []
    for r in report.reports:
        zeros = ";".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in r.zeros)
        rows.append((r.k, r.margin, r.argmin_lambda.real, r.argmin_lambda.imag, zeros))
    write_csv(out / "margins.csv", ("k", "margin", "argmin_re", "argmin_im", "zeros"), rows)
    write_json(out / "constants.json", payload)
    print(f"penrose: kappa={report.kappa:.6g} stable={report.stable} -> {out}")
    return 0


def cmd_perturb(cfg: dict, out: Path) -> int:
    """nonlinear vs linearized deviation from a background; deviation CSV"""
    bg, p, q, keys = _background(cfg, "perturb")
    run = _call("perturb", perturbation_run, bg, p, q, _build_grid(cfg), seed=cfg["seed"], **keys)
    if run.diverged_at is not None:
        print(f"divergence at t={run.diverged_at:.6g}; keeping records up to the last good time", file=sys.stderr)
    fit_rate = math.nan if run.fit_rate is None else run.fit_rate
    write_csv(
        out / "deviation.csv",
        ("t", "deviation_h1s1", "linearized_h1s1", "bound", "fit_rate"),
        [(*row, fit_rate) for row in run.rows],
    )
    max_deviation = max(dev for _, dev, *_ in run.rows)
    write_json(
        out / "summary.json",
        {
            "constants": run.constants.to_dict(),
            "epsilon": keys["epsilon"],
            "horizon": run.horizon,
            "fit_rate": run.fit_rate,
            "kappa": run.constants.kappa,
            "max_deviation": max_deviation,
        },
    )
    print(f"perturb: eps={keys['epsilon']:g} T={run.horizon:.4g} max_dev={max_deviation:.4g} -> {out}")
    return 0 if run.diverged_at is None else 3


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


def cmd_convergence(cfg: dict, out: Path) -> int:
    """integrator and truncation refinement studies; error CSV"""
    grid = _build_grid(cfg)
    p, q = _physics(cfg)
    state = _build_state(cfg, grid)
    study = _call("convergence", convergence_study, state, p, q, **cfg["convergence"])
    write_csv(out / "errors.csv", (study.mode, "error_s2", "ratio"), study.rows)
    print(f"convergence ({study.mode}): {len(study.rows)} rows -> {out}")
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
