"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

- the tracer reaches every alias of a traced function and tolerates
  names deleted from the code;
- every output checker turns a corrupted output into a failed job;
- two traced rounds with the same seed give identical counts.
"""

import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import csv  # noqa: E402

import numpy as np  # noqa: E402

import alber_lab as al  # noqa: E402
import workloads  # noqa: E402
from probe import probe  # noqa: E402
from tracer import TARGETS, Tracer, metric_units  # noqa: E402
from workloads import Job, attempt  # noqa: E402


def test_one_strang_step_is_fully_traced():
    state = al.random_smooth_state(al.SpectralGrid(16), rank=3, band=5, decay=2.5, rng=np.random.default_rng(0))
    cfg = al.EvolveConfig(1.0, 1.0, 1e-3, 1e-3)
    with Tracer() as tracer:
        al.strang_step(state, cfg)
    values = tracer.metrics()
    expected = {"free_step": 2, "potential_step": 1, "synthesize_batch": 1, "analyze_batch": 1, "MixedState": 3}
    calls = {name: values[f"{module}.{name}.calls"] for module, name, _, _ in TARGETS if name in expected}
    assert calls == expected, calls
    assert al.dynamics.free_step.__module__ == "alber_lab.dynamics" and not hasattr(al.dynamics.free_step, "__wrapped__")


def test_deleted_names_report_zero():
    bg, p, q = al.background_preset("stable-broad")
    u0 = al.random_hermitian_perturbation(al.SpectralGrid(2), 1, np.random.default_rng(0))
    penrose_minimize, free_step = al.penrose.minimize, al.dynamics.free_step
    del al.penrose.minimize, al.dynamics.free_step
    try:
        with Tracer() as tracer:
            al.volterra_solve(bg, u0, p, q, 1, np.arange(5) * 1e-3)
        values = tracer.metrics()
    finally:
        al.penrose.minimize, al.dynamics.free_step = penrose_minimize, free_step
    assert values["penrose.minimize.calls"] == 0 and values["penrose.minimize.nfev"] == 0
    assert values["dynamics.free_step.calls"] == 0
    assert values["penrose.volterra_solve.calls"] == 1 and values["penrose.volterra_solve.points"] == 5
    assert set(values) | {"trace.coverage", "tracing_overhead_s"} == set(metric_units())


def _edit_csv(path: Path, row: int, column: str, edit) -> Path:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = edit(rows[row][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path.parent


def _bump_volterra(pairs):
    vol, lin = pairs[1]
    vol = vol.copy()
    vol[len(vol) // 2] += 1e-4 * np.abs(vol).max()
    return {**pairs, 1: (vol, lin)}


def _bump_picard(pair):
    pic = pair[0].copy()
    pic[0, 0] += 1e-5
    return pic, pair[1]


CORRUPT = {
    "simulate": lambda out: _edit_csv(out / "trajectory.csv", 3, "mass", lambda v: repr(float(v) * (1 + 1e-8))),
    "convergence": lambda out: _edit_csv(out / "errors.csv", 0, "error_s2", lambda v: repr(2 * float(v))),
    "penrose": lambda out: _edit_csv(out / "margins.csv", 1, "zeros", lambda v: ";".join(filter(None, [v, "0.5+0.5j"]))),
    "perturb": lambda out: _edit_csv(out / "deviation.csv", 5, "deviation_h1s1", lambda v: "1.0"),
    "volterra": _bump_volterra,
    "picard": _bump_picard,
    "inequalities": lambda out: _edit_csv(out / "checks.csv", 1, "violations", lambda v: "1"),
}


def test_checkers_reject_corrupted_outputs():
    covered = set()
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for workload in run.WORKLOADS:
            for job in workloads.ROUNDS[workload](workloads.round_seed(7, 0)):
                work = Path(tmp) / job.name
                output = job.run(work)
                assert attempt(Job(job.name, lambda w: output, job.check), work) is None, job.name
                kind = job.name.split("-")[0]
                corrupted = CORRUPT[kind](output)
                error = attempt(Job(job.name, lambda w: corrupted, job.check), work)
                assert error is not None, f"{job.name}: corrupted output passed its check"
                covered.add(kind)
    assert covered == set(CORRUPT), covered


def _traced_counts(workload: str, work: Path) -> dict:
    with Tracer() as tracer:
        probe(work / "probe")
        for job in workloads.ROUNDS[workload](workloads.round_seed(3, run.TRACE_INDEX)):
            assert attempt(job, work) is None
    units = metric_units()
    return {k: v for k, v in tracer.metrics().items() if units[k] in ("count", "bytes", "ratio")}


def test_counts_repeat_exactly():
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for workload in run.WORKLOADS:
            first = _traced_counts(workload, Path(tmp) / "a")
            second = _traced_counts(workload, Path(tmp) / "b")
            assert first == second, {k: (v, second[k]) for k, v in first.items() if second[k] != v}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
