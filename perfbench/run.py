"""Benchmark entry point.

    python3 perfbench/run.py --workload fit_rook900 --seed 0 --seconds 30 --trace 0

Runs one workload against ``src/`` of the checkout that holds this file and
prints every metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` traces the package's public
functions and reports the per-layer metrics. The full record of the run,
with the environment, goes to ``.bench_out/`` in the checkout.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mixsar" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no mixsar package under {SRC} or no BENCHMARK.json beside it; "
              "run from a mixsar checkout", file=sys.stderr)
        return 2
    # Run against the checkout's sources (forked pool workers inherit the path).
    sys.path[:0] = [str(SRC), str(ROOT)]

    import mixsar
    from perfbench import checks, harness, tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    imported_s = time.perf_counter() - PROCESS_START

    spool = OUT_DIR / f"spool-{args.workload}-{args.seed}"
    tracer = None
    if args.trace:
        shutil.rmtree(spool, ignore_errors=True)
        spool.mkdir(parents=True)
        tracer = tracing.Tracer(spool)
        tracer.install(mixsar)

    # Set-up: shared inputs, the first operation's inputs, and a warm-up on
    # them at full size (traced only around the shared inputs), repeated for a
    # steady median.
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        state = workload.setup()
        if tracer is not None:
            tracer.active = False
        workload.warm_up(state, workload.inputs(state, args.seed, 0))
        setup_runs.append(time.perf_counter() - t0)
    setup_s = imported_s + statistics.median(setup_runs)

    references = ()
    if args.seed == checks.DEFAULT_SEED:
        references = checks.load_references()[args.workload]["ops"]
    try:
        m = harness.measure(workload, state, args.seed, args.seconds, references, tracer,
                            min_ops=2 if tracer is not None else 1)
    finally:
        if tracer is not None:
            tracer.uninstall()
            shutil.rmtree(spool, ignore_errors=True)

    if tracer is None:
        values = harness.end_to_end_metrics(m, workload.reps_per_op, setup_s)
    else:
        ops = [i for i, t in enumerate(m.traced) if t]
        values = tracing.layer_metrics(tracer.spans, ops)
        traced = [s for s, t in zip(m.op_seconds, m.traced) if t]
        untraced = [s for s, t in zip(m.op_seconds, m.traced) if not t]
        values["trace.op_s_p50"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.op_s_p50"] - statistics.median(untraced)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {d["name"]: d["unit"] for d in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are computed or declared "
              "but not both", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": harness.environment(ROOT),
        "setup_runs_s": setup_runs, "import_s": imported_s,
        "op_seconds": m.op_seconds, "op_traced": m.traced,
        "referenced_ops": m.referenced, "failures": m.failures,
        "failed_frac": m.failed / m.attempted, "metrics": values,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(record["environment"]))
    print(f"ops {m.attempted} (traced {sum(m.traced)}), failed {m.failed}, "
          f"compared with reference {m.referenced}; record in {out_file.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
