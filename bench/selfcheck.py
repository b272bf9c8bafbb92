"""Fast self-check of the benchmark: ``python3 bench/selfcheck.py`` from the checkout root.

1. Runs all three workloads at tiny sizes, untraced and traced, and checks the
   result line: its keys, every metric of BENCHMARK.json present with its
   unit, the correctness verdict, and the failure count (a third of the
   operations on records_large, from the known n >= 14,285 serialization
   defect; none elsewhere).
2. Feeds the correctness gate deliberately wrong values, directly and through
   a records_large round with a package function that is off by 1e-9, and
   checks that every one is caught.

Exits 0 when everything holds and 1 with the first failed check otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cli_processes", "records_large", "oracle_verify")


class CheckFailed(Exception):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def check_runs(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            where = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
            expect(result["correct"] is True, f"{where}: correctness verdict {result['correct']}")
            wanted = spec["per_layer" if trace else "end_to_end"]
            expect(list(result["metrics"]) == [m["name"] for m in wanted], f"{where}: metric names differ")
            for m in wanted:
                got = result["metrics"][m["name"]]
                expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']!r}")
                expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                       f"{where}: {m['name']} value {got['value']!r}")
            expected_failed = result["attempted"] // 3 if workload == "records_large" else 0
            expect(result["failed"] == expected_failed,
                   f"{where}: {result['failed']} of {result['attempted']} failed, expected {expected_failed}")
            if trace:
                expect(result["metrics"]["tracing.overhead_ratio"]["value"] > 0, f"{where}: no overhead ratio")
            else:
                for name in ("op_ms_tail", "failed_ratio", "setup_s", "correct:"):
                    expect(any(name in line for line in lines[:-1]), f"{where}: summary lacks {name}")
            print(f"ok  {where}: {result['attempted']} ops, {result['failed']} failed")


def check_gate() -> None:
    import numpy as np

    import gate

    a = [0.95, -0.9, 0.97]
    want = gate.expected(a)
    good = {"n": 3, "p_min": want.p_min, "s_lower": want.s_lower, "s_max": want.s_max,
            "certificate": {"valid": want.optimal}}
    expect(gate.check_estimate(a, 0, good, True) is None, "gate rejects a right report")
    for key in ("p_min", "s_lower", "s_max"):
        expect(gate.check_estimate(a, 0, dict(good, **{key: good[key] + 1e-9}), True) is not None,
               f"gate misses a wrong {key}")
    expect(gate.check_estimate(a, 0, dict(good, certificate={"valid": not want.optimal}), True) is not None,
           "gate misses a wrong certificate verdict")
    expect(gate.check_estimate(a, 2, {"error": "infeasible"}, True) is not None,
           "gate misses an infeasible verdict on a feasible record")
    expect(gate.check_estimate([0.1, 0.1, 0.1], 0, good, True) is not None,
           "gate misses a report for an infeasible record")
    expect(gate.check_qp(a, want.p_min + 1e-5) is not None, "gate misses a wrong QP optimum")
    expect(gate.check_maxent(a, want.s_max + 1e-5) is not None, "gate misses a wrong numeric entropy")
    exact = np.exp(-0.1 * np.array([bin(i).count("1") for i in range(8)]))
    expect(gate.check_dephased(3, 0.1, exact) is None, "gate rejects right coefficients")
    expect(gate.check_dephased(3, 0.1, exact + 1e-7) is not None, "gate misses wrong coefficients")
    truth = {"purity_exact": ((1 + math.exp(-0.2)) / 2) ** 2, "entropy_exact": 0.0}
    expect(gate.check_simulation(2, 0.1, "exact", 0, {"n": 2, "a": [math.exp(-0.1)] * 2}, truth) is not None,
           "gate misses a wrong exact entropy")
    print("ok  gate rejects every wrong value fed to it")


def check_gate_in_a_round() -> None:
    """A package function that is off by 1e-9 turns every report into a mismatch."""
    import numpy as np

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from stabpurity import cli

    import workloads
    from worker import Samples

    real = cli.min_purity

    def off_by_a_little(record, graph=None):
        est = real(record, graph)
        return dataclasses.replace(est, p_min=est.p_min + 1e-9)

    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        wl = workloads.RecordsLarge(np.random.default_rng(0), workdir, ROOT, tiny=True)
        clean, broken = Samples(), Samples()
        clean.run_round(wl, 0)
        cli.min_purity = off_by_a_little
        try:
            broken.run_round(wl, 0)
        finally:
            cli.min_purity = real
    # the round's third record is above n = 14,285 and fails before any report exists
    expect(clean.statuses == {"ok": 2, "error:ValueError": 1}, f"real package: {dict(clean.statuses)}")
    expect(broken.statuses == {"mismatch": 2, "error:ValueError": 1}, f"broken package: {dict(broken.statuses)}")
    print("ok  gate flags both wrong reports of a records_large round")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        check_gate()
        check_gate_in_a_round()
        check_runs(spec)
    except CheckFailed as exc:
        print(f"FAILED: {exc}")
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
