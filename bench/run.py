"""stabpurity benchmark: ``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``.

Run from the root of a source checkout (the package is imported from
``src/``, it need not be installed).  Workloads: cli_processes,
oracle_verify (the two BENCHMARK.json lists), records_large (run by hand
only; see bench/README.md), or ``all`` to run the three in turn.  For each
workload it prints a human-readable block: every metric with its unit, the
tail percentile with its sample count, the failures by type and the
correctness verdict, then the environment.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer
metrics.  See bench/README.md for what each metric and workload means.

The workload runs in worker processes (bench/worker.py), started one after
another; set-up is timed in ``SETUPS`` of them and the last one goes on to the
timed phase.  Scratch files go to ``.bench_work/`` and spans to
``.bench_out/``, both under the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

from spans import LAYER_NAMES

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cli_processes", "records_large", "oracle_verify")
#: Set-ups timed per run; setup_s is their median.
SETUPS = 5
#: Seconds a whole run may take before its worker is stopped.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(values: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile, up to
    p99, that leaves at least ten samples beyond it.  Runs too short to
    have one above the median report their maximum."""
    ordered = sorted(values)
    beyond = max(10, math.ceil(len(ordered) / 100))
    if len(ordered) <= 2 * beyond:
        return ordered[-1], 100.0, 0
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), beyond


def _spawn_worker(cfg: dict):
    spawn_ns = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise BenchError(f"{cfg['workload']} worker exited with code {proc.returncode} during set-up")
    ready = json.loads(line)
    return proc, spawn_ns, ready


def _wait(proc, deadline: float) -> None:
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish before the deadline") from None
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    cfg = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "root": ROOT, "workdir": workdir, "result": os.path.join(workdir, "result.json"),
        "spans": os.path.join(ROOT, ".bench_out", f"spans-{name}-seed{seed}.jsonl"),
    }
    setups = []
    try:
        for i in range(SETUPS):
            proc, spawn_ns, ready = _spawn_worker(dict(cfg, setup_only=i < SETUPS - 1))
            setups.append({
                "setup_s": (ready["ready_ns"] - spawn_ns) / 1e9,
                "interpreter_s": (ready["start_ns"] - spawn_ns) / 1e9,
                "import_s": ready["import_ns"] / 1e9,
            })
            _wait(proc, deadline)
        with open(cfg["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setups"] = setups
    return result


def end_to_end(result: dict) -> dict:
    """Throughput and CPU are totals over the whole timed phase.  The machine's
    speed drifts between a fast and a slow state for seconds at a time; a
    total moves smoothly with the share of time spent in each, where a median
    over rounds jumps from one state to the other."""
    wall, cpu = result["wall_ms"], result["cpu_ms"]
    return {
        "setup_s": median(s["setup_s"] for s in result["setups"]),
        "ops_per_s": sum(result["ok"]) / (sum(wall) / 1e3),
        "op_ms_p50": median(wall),
        "op_ms_tail": tail(wall)[0],
        "cpu_ms_per_op": sum(cpu) / len(cpu),
        "peak_rss_mb": result["rss_kb"] / 1024.0,
        "success_ratio": sum(result["ok"]) / len(wall),
    }


def per_layer(result: dict) -> dict:
    traced = result["traced"]
    layers, counts = traced["layers"], traced["counts"]
    if traced["imports"]:  # cli_processes: one sample per traced child process
        interpreter = median(i[0] for i in traced["imports"]) / 1e9
        package = median(i[1] for i in traced["imports"]) / 1e9
    else:  # in-process workloads: one sample per worker set-up
        interpreter = median(s["interpreter_s"] for s in result["setups"])
        package = median(s["import_s"] for s in result["setups"])
    values = {"import.interpreter_s": interpreter, "import.stabpurity_s": package}
    for layer in LAYER_NAMES:
        values[f"{layer}.busy_s"] = layers["busy_s"].get(layer, 0.0)
        values[f"{layer}.calls"] = layers["calls"].get(layer, 0)
    values["cli.serialize.failed"] = layers["failed"].get("cli.serialize", 0)
    values["estimator.certificate_invalid"] = layers["certificate_invalid"]
    for key in ("cli.input_bytes", "cli.report_bytes", "oracle.qp.iterations", "oracle.rk4.steps"):
        values[key] = counts.get(key, 0)
    values["tracing.overhead_ratio"] = sum(traced["wall_ms"]) / sum(result["wall_ms"])
    return values


def _verdict(result: dict) -> tuple:
    """(correct, attempted, failed) over every timed operation, traced ones included."""
    runs = [result] + ([result["traced"]] if "traced" in result else [])
    attempted = sum(len(r["wall_ms"]) for r in runs)
    failed = attempted - sum(r["statuses"].get("ok", 0) for r in runs)
    mismatches = sum(r["statuses"].get("mismatch", 0) for r in runs)
    return mismatches == 0, attempted, failed


def _print_block(name: str, seed: int, result: dict, e2e: dict, units: dict) -> None:
    correct, attempted, failed = _verdict(result)
    wall = result["wall_ms"]
    _, pct, beyond = tail(wall)
    print(f"== {name}  seed {seed}  rounds {result['rounds']}  timed ops {len(wall)}  "
          f"correct: {'yes' if correct else 'NO'}")
    notes = {
        "setup_s": f"median of {len(result['setups'])} set-ups",
        "ops_per_s": f"{sum(result['ok'])} successful ops in {sum(wall) / 1e3:.3f} s inside ops",
        "op_ms_tail": f"p{pct:.2f}, {beyond} of {len(wall)} samples beyond it",
    }
    for key, value in e2e.items():
        print(f"  {key:<15} {value:>14.6g} {units.get(key, '1'):<5} {notes.get(key, '')}")
    print(f"  {'failed_ratio':<15} {1.0 - e2e['success_ratio']:>14.6g} {'1':<5} "
          f"{dict(result['statuses'])}")
    for example in result["examples"]:
        print(f"  failure: {example}")
    if "traced" in result:
        print(f"  traced ops {attempted - len(wall)}, statuses {dict(result['traced']['statuses'])}")


def environment() -> dict:
    """Facts about the machine and the code measured; nothing is pinned."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for fname in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, fname)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")},
        "pinned": None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs and one round (self-check)")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "stabpurity", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: run from a stabpurity checkout ({ROOT} lacks src/stabpurity or BENCHMARK.json)",
              file=sys.stderr)
        return 1
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            e2e = end_to_end(result)
            _print_block(name, args.seed, result, e2e, units)
            values = per_layer(result) if args.trace else e2e
            correct, attempted, failed = _verdict(result)
            env.update(result["environment"])
            lines.append((name, correct, attempted, failed,
                          {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(env, sort_keys=True))
    if len(lines) == 1:
        _, correct, attempted, failed, metrics = lines[0]
    else:
        correct = all(line[1] for line in lines)
        attempted, failed = sum(line[2] for line in lines), sum(line[3] for line in lines)
        metrics = {f"{line[0]}.{k}": v for line in lines for k, v in line[4].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
