import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import alber_lab as al
import alber_lab.dynamics as dyn
from alber_lab import cli
from alber_lab.spectral import analyze_batch


@pytest.fixture
def grid8() -> al.SpectralGrid:
    return al.SpectralGrid(8)


@pytest.fixture
def grid16() -> al.SpectralGrid:
    return al.SpectralGrid(16)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_state(grid: al.SpectralGrid, rank: int, seed: int, band=None, decay=2.5):
    gen = np.random.default_rng(seed)
    return al.random_smooth_state(
        grid, rank=rank, band=grid.N if band is None else band, decay=decay, rng=gen
    )


def split_step_states(state: al.MixedState, cfg: al.EvolveConfig):
    """(t, state) per record of dynamics._split_step on one state, the given state itself at t = 0:
    the loop read record by record, outside the block reader dynamics._observed."""
    records = dyn._split_step(state.grid, state.weights, state.orbitals, cfg)
    next(records)
    yield 0.0, state
    for t, orbitals in records:
        yield t, al.MixedState(state.grid, state.weights, orbitals, gram_tol=math.inf)


def record_of(state: al.MixedState, cfg: al.EvolveConfig, t: float = 0.0) -> al.TrajectoryRecord:
    """The TrajectoryRecord of one state at t, its channels from one dynamics._record_scalars call."""
    *scalars, rho = dyn._record_scalars(state.grid, state.weights, state.orbitals, cfg.p, cfg.q)
    return al.TrajectoryRecord(t, *map(float, scalars), density_spectrum=np.abs(analyze_batch(state.grid, rho)))


def readme_example(section: str, out_dir) -> dict:
    """The README's example config of the subcommand that reads section, writing into out_dir."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    return {**next(b for b in blocks if section in b), "output_dir": str(out_dir)}


def run_cli(tmp_path, command: str, cfg: dict) -> Path:
    """The output directory of `alber-lab command` on cfg, which must exit 0."""
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path)]) == 0
    return Path(cfg["output_dir"])


def named_first(name: str) -> str:
    """A pytest.raises match for a message that starts with the parameter name."""
    return f"^{re.escape(name)}[ =.:]"
