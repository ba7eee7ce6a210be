"""Span tracing of alber_lab's layers from outside the package.

The tracer wraps public functions of each layer and rebinds every name in
every loaded ``alber_lab`` module (and every entry of a module-level dict,
such as the CLI's handler table) that *is* the target object, because the
modules import each other's functions by name.  A class is traced through
its ``__init__``.  A target missing from the code is skipped and reports
0 calls, so a later change may delete it without breaking the run.

Each call records a span [name, start, end, parent]; spans stay in memory
until ``dump``.  A span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _rows(args, index: int, kwargs: dict, key: str) -> int:
    arr = args[index] if len(args) > index else kwargs[key]
    return int(math.prod(getattr(arr, "shape", (1,))[:-1]))


def _fft_rows(name: str, index: int):
    def count(counters, args, kwargs, result):
        counters["spectral.fft_rows"] += _rows(args, index, kwargs, name)

    return count


def _nfev(counters, args, kwargs, result):
    counters["penrose.minimize.nfev"] += int(result.nfev)


def _points(counters, args, kwargs, result):
    t_grid = args[5] if len(args) > 5 else kwargs["t_grid"]
    counters["penrose.volterra_solve.points"] += len(t_grid)


def _bytes(counters, args, kwargs, result):
    # manifest.json carries the run's elapsed time, the one output that is
    # not byte-deterministic, so only data files are counted
    path = Path(args[0] if args else kwargs["path"])
    if path.name != "manifest.json":
        counters["cli.bytes_written"] += path.stat().st_size


# (module, name, metrics, extra counter) for every traced entry point
TARGETS = (
    ("spectral", "synthesize_batch", ("calls", "self_s"), _fft_rows("coeffs", 1)),
    ("spectral", "analyze_batch", ("calls", "self_s"), _fft_rows("samples", 1)),
    ("states", "MixedState", ("calls", "self_s"), None),
    ("states", "gram_deviation", ("calls", "self_s"), None),
    ("states", "to_matrix", ("calls", "self_s"), None),
    ("states", "sobolev_schatten_norm", ("calls", "self_s"), None),
    ("states", "eigendecompose", ("calls", "self_s"), None),
    ("states", "kinetic_energy", ("calls", "self_s"), None),
    ("dynamics", "evolve", ("calls", "total_s", "self_s"), None),
    ("dynamics", "strang_step", ("calls", "self_s"), None),
    ("dynamics", "free_step", ("calls", "self_s"), None),
    ("dynamics", "potential_step", ("calls", "self_s"), None),
    ("dynamics", "monitor", ("calls", "self_s"), None),
    ("dynamics", "linearized_evolve", ("calls", "total_s", "self_s"), None),
    ("dynamics", "diagonal_sums", ("calls", "self_s"), None),
    ("dynamics", "picard_solve", ("calls", "total_s"), None),
    ("penrose", "penrose_margin", ("calls", "total_s", "self_s"), None),
    ("penrose", "minimize", ("calls", "total_s"), _nfev),
    ("penrose", "volterra_solve", ("calls", "total_s", "self_s"), _points),
    ("penrose", "free_density", ("calls", "self_s"), None),
    ("penrose", "propagator_constants", ("calls",), None),
    ("inequalities", "check_bessel", ("total_s",), None),
    ("inequalities", "check_gn", ("total_s",), None),
    ("inequalities", "check_hoffmann_ostenhof", ("total_s",), None),
    ("inequalities", "check_trace_estimate", ("total_s",), None),
    ("inequalities", "check_conjugation", ("total_s",), None),
    ("inequalities", "check_bilinear", ("total_s",), None),
    ("inequalities", "check_fourier_summation", ("total_s",), None),
    ("inequalities", "check_apriori_ensemble", ("total_s",), None),
    ("cli", "cmd_simulate", ("total_s",), None),
    ("cli", "cmd_convergence", ("total_s",), None),
    ("cli", "cmd_penrose", ("total_s",), None),
    ("cli", "cmd_perturb", ("total_s",), None),
    ("cli", "cmd_inequalities", ("total_s",), None),
    ("cli", "write_csv", ("self_s",), _bytes),
    ("cli", "write_json", ("self_s",), _bytes),
    ("cli", "write_manifest", ("self_s",), None),
)
COUNTERS = ("spectral.fft_rows", "penrose.minimize.nfev", "penrose.volterra_solve.points", "cli.bytes_written")

# Root spans that make up a round: the CLI subcommands and the API oracles.
ROUND_ENTRIES = (
    "cli.cmd_simulate", "cli.cmd_convergence", "cli.cmd_penrose", "cli.cmd_perturb", "cli.cmd_inequalities",
    "dynamics.linearized_evolve", "penrose.volterra_solve", "dynamics.picard_solve", "dynamics.evolve",
)

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "nfev": "count", "points": "count"}


def metric_units() -> dict:
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {f"{m}.{n}.{k}": UNITS[k] for m, n, kinds, _ in TARGETS for k in kinds}
    units.update({
        "spectral.fft_rows": "count",
        "penrose.minimize.nfev": "count",
        "penrose.volterra_solve.points": "count",
        "cli.bytes_written": "bytes",
        "states.gram_checks_per_step": "ratio",
        "trace.coverage": "fraction",
        "tracing_overhead_s": "s",
    })
    return units


def _package_namespaces() -> list[dict]:
    spaces = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "alber_lab" or name.startswith("alber_lab.")):
            spaces.append(vars(mod))
            spaces.extend(v for v in vars(mod).values() if type(v) is dict)
    return spaces


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, count):
        spans, stack, counters = self.spans, self._open, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        spaces = _package_namespaces()
        for module, attr, _, count in TARGETS:
            mod = sys.modules.get(f"alber_lab.{module}")
            target = getattr(mod, attr, None)
            if target is None:
                continue
            name = f"{module}.{attr}"
            if isinstance(target, type):
                self._undo.append((target, "__init__", target.__dict__["__init__"]))
                setattr(target, "__init__", self._wrap(name, target.__init__, count))
                continue
            wrapper = self._wrap(name, target, count)
            for space in spaces:
                for key, value in list(space.items()):
                    if value is target:
                        self._undo.append((space, key, target))
                        space[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def per_name(self) -> dict:
        """name -> [calls, total_s, self_s] over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - inner
        return stats

    def root_time(self, names, first: int = 0) -> float:
        """Summed duration of root spans named in ``names`` from span ``first`` on."""
        return sum(e - s for n, s, e, p in self.spans[first:] if p < 0 and n in names)

    def metrics(self) -> dict:
        """Every per-layer metric; names absent from the code report 0."""
        stats = self.per_name()
        out = {}
        for module, attr, kinds, _ in TARGETS:
            calls, total, self_s = stats.get(f"{module}.{attr}", (0, 0.0, 0.0))
            values = {"calls": calls, "total_s": total, "self_s": self_s}
            out.update({f"{module}.{attr}.{k}": values[k] for k in kinds})
        out.update({c: self.counters[c] for c in COUNTERS})
        steps = stats.get("dynamics.strang_step", (0,))[0]
        checks = stats.get("states.gram_deviation", (0,))[0]
        out["states.gram_checks_per_step"] = checks / steps if steps else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON: names once, then [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {"names": names, "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
