"""Span tracing of mixsar's public functions, installed from outside the package.

Every public function defined in a mixsar module is wrapped once, and the
wrapper replaces each name bound to that function in any mixsar module. This
matters because ``mixsar.model`` and ``mixsar.simulation`` import functions by
name (``from .spatial import log_det_system``): patching only the defining
module would miss every call from ``fit``.

A span records its name, parent, start and end. Spans live in memory. In a
forked Monte Carlo worker each finished top-level span tree is appended to a
file under the trace directory; the parent reads those files back after each
operation, so worker spans are kept rather than lost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    op: int | None = None          # harness operation the span belongs to
    worker: bool = False           # recorded in a forked pool worker
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _log_det_attrs(rho, w, *args, **kwargs):
    return {"n": getattr(w, "shape", (None,))[0]}


def _monte_carlo_attrs(config, workers=1, *args, **kwargs):
    return {"workers": workers}


# Arguments recorded on spans of these functions, for computed per-layer rates.
_ATTRS = {
    "spatial.log_det_system": _log_det_attrs,
    "simulation.run_monte_carlo": _monte_carlo_attrs,
}


class Tracer:
    """Records spans around mixsar's public functions while ``active``."""

    def __init__(self, spool_dir: Path):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active = False
        self.op: int | None = None
        self.spool_dir = Path(spool_dir)
        self.in_worker = False
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------------

    def _after_fork(self):
        self.spans = []
        self.stack = []
        self.in_worker = True

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, parent, time.perf_counter(), op=self.op,
                               attrs=attrs or {}))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()
        if self.in_worker and not self.stack:
            self._spool_tree()

    def _spool_tree(self) -> None:
        rows = [[s.name, s.parent, s.start, s.end, s.attrs] for s in self.spans]
        with open(self.spool_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(rows) + "\n")
        self.spans = []

    def collect_workers(self) -> None:
        """Append the span trees spooled by forked workers."""
        # attach worker trees to the Monte Carlo call that started the pool
        anchor = next((i for i in range(len(self.spans) - 1, -1, -1)
                       if self.spans[i].name == "simulation.run_monte_carlo"), None)
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                base = len(self.spans)
                for name, parent, start, end, attrs in json.loads(line):
                    self.spans.append(Span(name, anchor if parent is None else base + parent,
                                           start, end, op=self.op, worker=True, attrs=attrs))
            path.unlink()

    # -- installation --------------------------------------------------------

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def install(self, package) -> list[str]:
        """Wrap every public function of ``package``'s modules where it is bound.

        Returns the span names of the wrapped functions.
        """
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = (f"{short}.{attr}", self._wrap(f"{short}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value][1])
        return sorted(name for name, _ in wrappers.values())

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []


# -- analysis ----------------------------------------------------------------


def _children(spans: list[Span]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    return children


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children of one span may overlap (pool workers run side by side), so the
    covered part is the length of the union of the clipped child intervals.
    """
    children = _children(spans)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted((spans[j] for j in children.get(i, [])), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], ops: list[int]) -> dict[str, float]:
    """Per-layer figures of a traced run.

    ``ops`` lists the traced operations. Totals (``calls``, ``evals``,
    ``self_s``) are per operation, median over ``ops``; ``<name>.s`` is the
    median inclusive seconds per call over every traced call, set-up included.
    """
    selfs = self_times(spans)
    children = _children(spans)

    def per_op(pred, value) -> float:
        totals = {op: 0.0 for op in ops}
        for i, s in enumerate(spans):
            if s.op in totals and pred(i, s):
                totals[s.op] += value(i, s)
        return _median(totals.values())

    def named(name):
        return lambda i, s: s.name == name

    def per_call(name) -> float:
        return _median(s.duration for s in spans if s.name == name)

    logdet = "spatial.log_det_system"
    ld_self = sum(selfs[i] for i, s in enumerate(spans) if s.name == logdet and s.op in ops)
    ld_flop = sum(2.0 * s.attrs["n"] ** 3 / 3.0 for s in spans
                  if s.name == logdet and s.op in ops and s.attrs.get("n"))

    mc_fits = [s.duration for i, s in enumerate(spans) if s.name == "model.fit"
               and (s.worker or _has_ancestor(spans, i, "simulation.run_monte_carlo"))]
    busy = wall = 0.0
    for i, s in enumerate(spans):
        if s.name == "simulation.run_monte_carlo" and s.op in ops:
            wall += s.attrs.get("workers", 1) * s.duration
            busy += sum(spans[j].duration for j in children.get(i, []))

    return {
        f"{logdet}.calls": per_op(named(logdet), lambda i, s: 1),
        f"{logdet}.self_s": per_op(named(logdet), lambda i, s: selfs[i]),
        f"{logdet}.gflop_s": ld_flop / ld_self / 1e9 if ld_self > 0 else 0.0,
        "model.optimize_rho.self_s": per_op(named("model.optimize_rho"), lambda i, s: selfs[i]),
        "model.optimize_rho.evals": per_op(
            lambda i, s: s.name == logdet and s.parent is not None
            and spans[s.parent].name == "model.optimize_rho", lambda i, s: 1),
        "model.wald_std_errors.self_s": per_op(named("model.wald_std_errors"),
                                               lambda i, s: selfs[i]),
        "model.full_loglik.calls": per_op(named("model.full_loglik"), lambda i, s: 1),
        "model.fit.self_s": per_op(named("model.fit"), lambda i, s: selfs[i]),
        **{f"{name}.s": per_call(name) for name in (
            "spatial.knn_inverse_distance", "spatial.rook_lattice",
            "functional.smooth_curves", "functional.derivative_curves",
            "functional.fpca", "functional.scores", "geometry.ilr",
            "model.assemble_design", "spatial.morans_i", "simulation.gen_response",
            "model.wald_std_errors",
        )},
        "simulation.fit_s_p50": _median(mc_fits),
        "simulation.worker_busy_frac": busy / wall if wall > 0 else 0.0,
    }
