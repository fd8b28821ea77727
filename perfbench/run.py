"""qqual benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload reg-train --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times whole operations in fresh subprocesses,
checks what each wrote, and reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` it runs the workload's one-worker
operation twice in fresh subprocesses, plain and with spans around the
public calls of every qqual module, then the fixed-shape layer probes, and
reports the per-layer metrics.  The last line of standard output is the JSON result;
the full record (provenance, every operation, probe minima and repeat
counts) goes to .perfbench_runs/<run>/result.json and the spans to
spans.json beside it.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl

ROOT, SRC = wl.ROOT, wl.SRC
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS_PY = os.path.join(ROOT, "perfbench", "workloads.py")

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150.0
# stop starting operations past this point, whatever --seconds says, so
# that a run ends within three minutes
RUN_DEADLINE_S = 120.0


def metric_units(kind: str) -> dict:
    """name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares; a run reports exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class RunError(RuntimeError):
    """Set-up or the traced operation failed, so there is nothing to report."""


# ---------------------------------------------------------------------------
# provenance


def src_tree_hash() -> str:
    digest = hashlib.sha256()
    for path in _src_files():
        digest.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _src_files() -> list:
    found = []
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        found += [os.path.join(dirpath, f) for f in sorted(filenames)
                  if not f.endswith(".pyc")]
    return found


def src_line_count() -> int:
    """Lines of Python under src/, the size that the code-size aim tracks."""
    total = 0
    for path in _src_files():
        if path.endswith(".py"):
            with open(path, "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(seed: int, versions: dict) -> dict:
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), **versions,
            "git_commit": git_commit(), "src_sha256": src_tree_hash(),
            "src_lines": src_line_count(), "thread_pins": THREAD_PINS}


# ---------------------------------------------------------------------------
# subprocesses


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QQUAL_THREADS", None)
    return env


def run_child(argv: list, log_path: str) -> dict:
    """Run one subprocess in its own process group; returns its exit code,
    wall time and the peak RSS of its largest process (pool workers
    included, since the child reaps them)."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # a worker left behind by a crashed child
    return {"code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_user_s": usage.ru_utime, "cpu_sys_s": usage.ru_stime}


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def setup(workload: str, seed: int, input_dir: str, repeats: int):
    """Fresh-interpreter set-up, repeated; returns (times, versions)."""
    times = []
    versions = {}
    for r in range(repeats):
        shutil.rmtree(input_dir, ignore_errors=True)
        log = input_dir + f"-setup{r}.log"
        rec = run_child([WORKLOADS_PY, "setup", workload, str(seed), input_dir], log)
        if rec["code"] != 0:
            with open(log) as fh:
                raise RunError(f"set-up exited {rec['code']}: {fh.read()[-2000:]}")
        times.append(rec["wall_s"])
        with open(log) as fh:
            versions = json.loads(fh.read().strip().splitlines()[-1])
    return times, versions


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_op(workload: str, input_dir: str, out: str, part: str, label: str,
           traced_spans: str = "") -> dict:
    """One operation in a fresh process, with its output checks."""
    os.makedirs(out)
    argv = ([WORKLOADS_PY, "traced-op", workload, input_dir, out, part, traced_spans]
            if traced_spans else [WORKLOADS_PY, "op", workload, input_dir, out, part])
    rec = run_child(argv, os.path.join(out, "process.log"))
    rec.update(label=label, part=part, dir=out, items=wl.items_per_op(workload, part))
    rec["problems"] = (wl.check_op(workload, input_dir, out, part) if rec["code"] == 0
                       else [f"exit code {rec['code']}"])
    return rec


def run_untraced(workload: str, input_dir: str, run_dir: str, seconds: float):
    parts = wl.op_parts(workload)
    ops = []
    start = time.perf_counter()
    while len(ops) < wl.MIN_OPS[workload] or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > RUN_DEADLINE_S:
            break
        part = parts[len(ops) % len(parts)]
        label = f"{len(ops):02d}-{part}"
        rec = run_op(workload, input_dir, os.path.join(run_dir, "ops", label), part, label)
        # a repeated part must reproduce the first run of that part byte for byte
        first = next((o for o in ops if o["part"] == part), None)
        if first is not None and rec["code"] == 0:
            rec["problems"] += wl.same_outputs(workload, first["dir"], rec["dir"])
        ops.append(rec)
    if workload == "reg-train" and len({o["part"] for o in ops}) < len(parts):
        ops[-1]["problems"].append("run ended before the full 12-row ledger was made")
    return ops


def end_to_end(ops: list, setup_times: list) -> dict:
    ok = [o for o in ops if not o["problems"]]
    wall = statistics.median(o["wall_s"] for o in ops)
    return {
        # medians, not sums: a single operation can run 1.5x slower or faster
        # than its neighbours on a shared machine
        "items_per_s": sum(o["items"] for o in ok) / len(ops) / wall,
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in ops),
        "ok_frac": len(ok) / len(ops),
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def run_traced(workload: str, seed: int, input_dir: str, run_dir: str):
    """The one-worker operation plain and traced, each in a fresh process
    like the untraced run's operations, then the probes in this process."""
    import probes
    import tracing

    part = wl.TRACED_PART[workload]
    spans_path = os.path.join(run_dir, "spans.json")
    ops_dir = os.path.join(run_dir, "ops")
    plain = run_op(workload, input_dir, os.path.join(ops_dir, "plain"), part, "plain")
    traced = run_op(workload, input_dir, os.path.join(ops_dir, "traced"), part, "traced",
                    traced_spans=spans_path)
    if traced["code"] != 0:
        raise RunError(f"traced operation exited {traced['code']}")
    # tracing must not change a byte of the outputs, and neither may the pool
    traced["problems"] += wl.same_outputs(workload, plain["dir"], traced["dir"])
    ops = [plain, traced]
    if workload == "dvcs-campaign":
        pool = run_op(workload, input_dir, os.path.join(ops_dir, "pool-2w"), "2w", "pool-2w")
        if pool["code"] == 0:
            pool["problems"] += wl.same_outputs(workload, traced["dir"], pool["dir"])
        ops.append(pool)

    with open(spans_path) as fh:
        metrics = json.load(fh)["layer_metrics"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics["qsim.runs_per_grad"] = probes.runs_per_grad(tracing.Tracer())
    probe_results = probes.run_all(seed, os.path.join(run_dir, "probes"))
    for name, res in probe_results.items():
        metrics[name] = res["median"]
    return ops, metrics, probe_results


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qqual", "__init__.py")):
        print(f"error: no qqual package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before this process imports numpy
    sys.path.insert(0, SRC)

    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "ops"))
    input_dir = os.path.join(run_dir, "inputs")
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    try:
        setup_times, versions = setup(args.workload, args.seed, input_dir,
                                      SETUP_REPEATS if args.trace == 0 else 1)
        record.update(provenance=provenance(args.seed, versions), setup_times_s=setup_times)
        if args.trace == 0:
            ops = run_untraced(args.workload, input_dir, run_dir, args.seconds)
            values = end_to_end(ops, setup_times)
            units = metric_units("end_to_end")
        else:
            ops, values, record["probes"] = run_traced(args.workload, args.seed,
                                                        input_dir, run_dir)
            units = metric_units("per_layer")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(1 for o in ops if o["problems"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(ops=ops, metrics=metrics)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if failed == 0:
        shutil.rmtree(os.path.join(run_dir, "ops"), ignore_errors=True)

    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    for o in ops:
        status = "ok" if not o["problems"] else "FAILED: " + "; ".join(o["problems"])
        print(f"op {o['label']}: {o['wall_s']:.3f} s {status}")
    for name, res in record.get("probes", {}).items():
        print(f"probe {name}: median {res['median']:.4g} min {res['min']:.4g} "
              f"{res['unit']} over {res['repeats']} repeats")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
