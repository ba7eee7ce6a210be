import json
import re
from pathlib import Path

import numpy as np
import pytest

import alber_lab as al
from alber_lab import cli


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
