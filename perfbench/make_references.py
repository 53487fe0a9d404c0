"""Write ``references.json``: estimates of the first operations of each
workload at the default seed, as computed by the checked-out program.

    python3 perfbench/make_references.py

Run it only on a commit whose outputs are trusted; the benchmark compares
later commits against what it writes.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OPS_PER_WORKLOAD = 4


def main() -> int:
    seed = checks.DEFAULT_SEED
    out = {"environment": harness.environment(ROOT)}
    for name, make in WORKLOADS.items():
        workload = make()
        state = workload.setup()
        ops = []
        for i in range(OPS_PER_WORKLOAD):
            inputs = workload.inputs(state, seed, i)
            output = workload.op(state, inputs)
            problems = workload.invariant_problems(state, inputs, output)
            if problems:
                print(f"{name} op {i}: {problems}", file=sys.stderr)
                return 1
            ops.append(workload.estimates(output))
        out[name] = {"seed": seed, "ops": ops}
        print(f"{name}: {len(ops)} reference operations", flush=True)
    checks.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
