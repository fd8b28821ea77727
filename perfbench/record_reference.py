"""Record the reg-train reference ledgers that the benchmark's output
check compares against (within a rounding-level tolerance).

    python3 perfbench/record_reference.py [COMMIT_LABEL]

Runs the full reg-train bench-reg config once per reference seed and
writes perfbench/reference/reg_train.json.  Re-record only when a change
is meant to alter the ledgers beyond rounding level, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads
from run import THREAD_PINS, src_tree_hash


def main(argv) -> int:
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, workloads.SRC)
    doc = {"config": workloads.REG_CONFIG, "recorded_at": argv[0] if argv else "",
           "src_sha256": src_tree_hash(), "ledgers": {}}
    scratch = os.path.join(workloads.ROOT, ".perfbench_runs")
    os.makedirs(scratch, exist_ok=True)
    for seed in range(workloads.REFERENCE_SEEDS):
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            inputs = os.path.join(tmp, "inputs")
            workloads.make_inputs("reg-train", seed, inputs)
            out = os.path.join(tmp, "out")
            if workloads.run_op("reg-train", inputs, out, "full") != 0:
                print(f"seed {seed}: bench-reg failed", file=sys.stderr)
                return 1
            _, rows = workloads.read_csv(os.path.join(out, "ledger.csv"))
        doc["ledgers"][str(seed)] = rows
        print(f"seed {seed}: {len(rows)} rows", flush=True)
    os.makedirs(os.path.dirname(workloads.REFERENCE_FILE), exist_ok=True)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
