"""Self-tests of the benchmark harness (run with PYTHONPATH=src)."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixsar
from mixsar import model, spatial
from perfbench import checks, harness, tracing
from perfbench.tracing import Span
from perfbench.workloads import WEIGHTS_ATOL, WORKLOADS, KnnFit, MonteCarlo, RookFit

BENCH_DIR = Path(__file__).resolve().parent.parent


def _leaves(value):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k])
    elif dataclasses.is_dataclass(value):
        yield from _leaves(dataclasses.asdict(value))
    else:
        yield value


def _same(a, b) -> bool:
    la, lb = list(_leaves(a)), list(_leaves(b))
    return len(la) == len(lb) and all(np.array_equal(x, y) for x, y in zip(la, lb))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    wl = WORKLOADS[name]()
    state = wl.setup()
    assert _same(wl.setup(), state)
    first = wl.inputs(state, 5, 1)
    assert _same(wl.inputs(state, 5, 1), first)
    assert not _same(wl.inputs(state, 6, 1), first)
    assert not _same(wl.inputs(state, 5, 2), first)


@pytest.mark.parametrize("locations", [
    np.random.default_rng(3).uniform([-20.0, 30.0], [20.0, 60.0], size=(50, 2)),
    # a plus sign on the equator: four neighbours of unit 0 tie at 1 degree
    np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [3.0, 3.0],
              [-3.0, 3.0], [3.0, -3.0]]),
])
def test_knn_reference_weights_match_the_library(locations):
    wl = KnnFit(len(locations), 20)
    expected = spatial.knn_inverse_distance(locations, k=wl.K, cutoff=wl.CUTOFF_DEG,
                                            metric="greatcircle")
    np.testing.assert_allclose(wl.reference_weights(locations), expected, rtol=0,
                               atol=WEIGHTS_ATOL)


class _ShiftedRho(RookFit):
    """Returns fits whose rho_hat is moved off the optimum by 1e-3."""

    def op(self, state, inputs):
        result = super().op(state, inputs)
        return dataclasses.replace(result, rho_hat=result.rho_hat + checks.RHO_PROBE)


def test_check_flags_shifted_rho_and_counts_it_as_failed():
    clean = RookFit(6, 6)
    state = clean.setup()
    ok = harness.measure(clean, state, seed=0, seconds=0)
    assert (ok.attempted, ok.failed) == (1, 0)

    shifted = _ShiftedRho(6, 6)
    bad = harness.measure(shifted, state, seed=0, seconds=0)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "profile log-likelihood" in " ".join(bad.failures[0])
    assert harness.end_to_end_metrics(bad, 1, 1.0)["ok_frac"] == 0.0

    # the same shift is also caught by the reference comparison alone
    reference = clean.estimates(clean.op(state, clean.inputs(state, 0, 0)))
    assert harness.measure(clean, state, 0, 0, references=[reference]).failed == 0
    shifted_est = dict(reference, rho_hat=[reference["rho_hat"][0] + checks.RHO_PROBE])
    assert checks.compare(shifted_est, reference) == [
        f"rho_hat[0] = {shifted_est['rho_hat'][0]!r}, reference {reference['rho_hat'][0]!r}"
    ]


def test_stored_references_cover_every_workload():
    refs = checks.load_references()
    for name in WORKLOADS:
        ops = refs[name]["ops"]
        assert refs[name]["seed"] == checks.DEFAULT_SEED and ops
        for est in ops:
            assert checks.compare(est, est) == []
    assert "std_errors" in refs["fit_knn_se400"]["ops"][0]


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("b", 0, 3.0, 6.0),      # overlaps a, as pool workers do
        Span("a.child", 1, 2.0, 3.0),
        Span("c", 0, 9.0, 12.0),     # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_wraps_names_where_bound(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    names = tracer.install(mixsar)
    try:
        assert {"spatial.log_det_system", "model.fit", "simulation.run_monte_carlo"} <= set(names)
        assert model.log_det_system is spatial.log_det_system
        assert model.log_det_system.__wrapped__ is not None
        wl = RookFit(5, 5)
        state = wl.setup()
        inputs = wl.inputs(state, 0, 0)
        tracer.op, tracer.active = 0, True
        wl.op(state, inputs)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert not hasattr(model.log_det_system, "__wrapped__")
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (fit_span,) = by_name["model.fit"]
    assert fit_span.parent is None
    metrics = tracing.layer_metrics(tracer.spans, [0])
    assert metrics["model.optimize_rho.evals"] > model._RHO_GRID_POINTS
    assert metrics["spatial.log_det_system.calls"] == metrics["model.optimize_rho.evals"] + 1
    assert metrics["model.wald_std_errors.self_s"] == 0.0
    assert metrics["spatial.log_det_system.gflop_s"] > 0


def test_tracer_gathers_spans_from_forked_workers(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    tracer.install(mixsar)
    try:
        wl = MonteCarlo(4, 4, n_reps=4, workers=2)
        m = harness.measure(wl, wl.setup(), seed=0, seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert m.failed == 0
    worker_fits = [s for s in tracer.spans if s.name == "model.fit" and s.worker]
    assert len(worker_fits) == 4
    assert not list(tmp_path.iterdir())
    metrics = tracing.layer_metrics(tracer.spans, [0])
    assert metrics["simulation.fit_s_p50"] > 0
    assert 0 < metrics["simulation.worker_busy_frac"] <= 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_rook900", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no mixsar package" in proc.stderr
