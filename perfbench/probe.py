"""Cold start: a fresh interpreter imports alber_lab (numpy and scipy
included), generates a round's inputs and makes one tiny first call into
each layer's public entry, so lazy imports or plan building show up in
``setup_s`` wherever a later change moves them.

    python3 perfbench/probe.py --workload simulate --seed 1 --work DIR

prints the elapsed seconds as its last line.  ``probe`` also runs inside
the traced run, so no layer reads exactly zero there.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import alber_lab as al  # noqa: E402
import workloads  # noqa: E402
from workloads import C_BILINEAR, Job, attempt, run_cli  # noqa: E402

TINY_STATE = {"preset": "random-smooth", "rank": 2, "band": 3, "decay": 2.5}


def probe(work: Path) -> list[str | None]:
    """One tiny call into every traced entry point: each CLI subcommand,
    which reaches spectral, states, dynamics, penrose and inequalities
    (one strang_step at N=8, penrose_margin k=1 on a preset, one-sample
    run_checks), plus the two API oracles.  Each job's failure message,
    or None."""
    physics = {"p": 1.0, "q": 1.0}
    cli_jobs = {
        "simulate": {"grid": {"N": 8}, "physics": physics, "state": TINY_STATE,
                     "time": {"dt": 1e-3, "T": 1e-3, "record_every": 1}},
        "convergence": {"grid": {"N": 8}, "physics": physics, "state": TINY_STATE,
                        "convergence": {"mode": "dt", "T": 4e-3, "dts": [2e-3, 1e-3], "dt_ref": 1e-3}},
        "penrose": {"penrose": {"background": "stable-broad", "k_max": 1, "c_bilinear": C_BILINEAR}},
        "perturb": {"grid": {"N": 4}, "perturb": {"background": "stable-broad", "epsilon": 1e-3, "T": 2e-3,
                                                  "dt": 1e-3, "k_max": 1, "c_bilinear": C_BILINEAR}},
        "inequalities": {"ensemble": {"n_samples": 1, "N": 8, "apriori": True}},
    }
    jobs = [
        Job(f"probe-{sub}", lambda w, sub=sub, cfg=cfg: run_cli(sub, {"seed": 1, **cfg}, w / sub), lambda out: None)
        for sub, cfg in cli_jobs.items()
    ]

    def oracles(w):
        bg, p, q = al.background_preset("stable-broad")
        u0 = al.random_hermitian_perturbation(al.SpectralGrid(2), 1, np.random.default_rng(1))
        al.volterra_solve(bg, u0, p, q, 1, np.arange(11) * 1e-3)
        al.picard_solve(u0, p, q, 1e-3, n_iter=1, n_quad=3)

    jobs.append(Job("probe-oracles", oracles, lambda out: None))
    return [attempt(job, work) for job in jobs]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    workloads.ROUNDS[args.workload](workloads.round_seed(args.seed, 0))
    failures = [error for error in probe(args.work) if error]
    if failures:
        sys.exit("\n".join(failures))
    print(f"{time.perf_counter() - _T0:.6f}")


if __name__ == "__main__":
    main()
