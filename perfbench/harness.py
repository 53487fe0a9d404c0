"""Closed-loop measurement of one workload, its output check, and the run record."""

from __future__ import annotations

import importlib.metadata
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import checks

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Measurement:
    op_seconds: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    failures: dict[int, list[str]] = field(default_factory=dict)
    referenced: int = 0          # operations compared with a stored reference

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_output(workload, state, inputs, output, reference) -> list[str]:
    """Invariant problems, plus differences from ``reference`` when given."""
    problems = workload.invariant_problems(state, inputs, output)
    if reference is not None:
        problems += checks.compare(workload.estimates(output), reference)
    return problems


def measure(workload, state, seed: int, seconds: float, references=(), tracer=None,
            min_ops: int = 1) -> Measurement:
    """Run operations back to back for about ``seconds``.

    An operation is not started when the median operation so far would end
    past ``seconds``, so a run does not overshoot by a slow operation. Only
    ``workload.op`` is timed; drawing inputs and checking outputs happen
    between timed regions, within the ``seconds``. ``references[i]`` holds the expected estimates of
    operation ``i``. An operation that raises or fails its check is counted
    as failed and the loop goes on. With a tracer, even-numbered operations
    are traced and odd-numbered ones are not, so one run yields both.
    """
    m = Measurement()
    start = time.perf_counter()
    i = 0
    while i < min_ops or (time.perf_counter() - start
                          + (statistics.median(m.op_seconds) if m.op_seconds else 0.0) < seconds):
        inputs = workload.inputs(state, seed, i)
        traced = tracer is not None and i % 2 == 0
        if tracer is not None:
            tracer.op, tracer.active = i, traced
        t0 = time.perf_counter()
        try:
            output, problems = workload.op(state, inputs), None
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
            tracer.collect_workers()
        if problems is None:
            reference = references[i] if i < len(references) else None
            m.referenced += reference is not None
            try:
                problems = check_output(workload, state, inputs, output, reference)
            except Exception:
                problems = ["output check raised: " + traceback.format_exc(limit=3)]
        m.op_seconds.append(elapsed)
        m.traced.append(traced)
        if problems:
            m.failures[i] = problems
            print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)
        i += 1
    return m


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child (pool workers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end_metrics(m: Measurement, reps_per_op: int, setup_s: float) -> dict[str, float]:
    return {
        "op_s_p50": statistics.median(m.op_seconds),
        "reps_per_s": reps_per_op * m.attempted / sum(m.op_seconds),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (m.attempted - m.failed) / m.attempted,
    }


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from ``.git``, or None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "git_commit": git_commit(root),
    }
