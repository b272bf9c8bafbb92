"""The three workloads: seeded inputs, the operations of one round, and their checks.

A workload is built once per process (input generation and file writes are
set-up), warmed up, and then asked for the operations of round 0, 1, 2, ...
Every round holds the same mix, so runs of any length see the same shares.
An operation is a ``run`` thunk, timed by the caller, and a ``check`` that
turns its raw result into a status: ``ok``, ``error:<type>`` (exception,
traceback or undocumented exit code) or ``mismatch:<text>`` (wrong value).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional

import numpy as np

import gate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Op(NamedTuple):
    run: Callable[[], object]
    check: Callable[[object, Counter], str]


class ChildResult(NamedTuple):
    exit_code: int
    stdout: bytes
    stderr: bytes
    cpu_s: float
    rss_kb: int
    spawn_ns: int


# ---------------------------------------------------------------- records


def draw_record(rng, n: int, regime: str, flip: bool) -> np.ndarray:
    """Signed expectations a_k in one of three regimes, away from their borders.

    With deficits d_k = 1 - |a_k|, D = sum d and d1, d2 the two largest:
    ``domain`` has D + d1 + d2 <= 1.95 (closed form optimal), ``band`` has
    D <= 2 < D + d1 + d2 (feasible, closed form only an upper bound) and
    ``infeasible`` has D > 2.05 (sum|a| < n - 2; needs n >= 3).
    """
    while True:
        u = rng.uniform(0.0, 1.0, n)
        top2 = float(np.partition(u, n - 2)[n - 2:].sum())
        if regime == "domain":
            d = u * (rng.uniform(0.05, 1.95) / (u.sum() + top2))
        elif regime == "band":
            lo = 2.0 / (1.0 + top2 / u.sum())
            d = u * ((lo + rng.uniform(0.1, 0.9) * (2.0 - lo)) / u.sum())
        elif u.sum() > 2.05:
            d = u
        else:
            continue
        if d.max() <= 1.0:
            break
    a = 1.0 - d
    if flip:
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[rng.integers(n)] = True
        a[mask] = -a[mask]
    return a


def estimate_mix(rng, count: int, n_small: tuple, n_large: tuple) -> list:
    """(n, regime, flip) for ``count`` records: 70% domain, 20% band, 10%
    infeasible, half with sign flips, three in four with n in ``n_small``."""
    regimes = (["domain"] * 7 + ["band"] * 2 + ["infeasible"]) * math.ceil(count / 10)
    specs = []
    for i, regime in enumerate(rng.permutation(regimes[:count])):
        lo, hi = n_small if i % 4 != 3 else n_large
        n = int(rng.integers(lo, hi + 1))
        if regime == "infeasible" and n < 3:
            n = 3
        specs.append((n, str(regime), i % 2 == 0))
    return specs


def _write_measurement(path: str, a: np.ndarray, delta: np.ndarray) -> int:
    text = json.dumps({"n": int(a.size), "a": a.tolist(), "delta_a": delta.tolist()})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


def _error_type(stderr: bytes, exit_code: int) -> str:
    """Exception type from the last traceback line, else the exit code."""
    lines = stderr.decode("utf-8", "replace").strip().splitlines()
    if lines and lines[-1].split(":")[0].isidentifier():
        return lines[-1].split(":")[0]
    return f"exit{exit_code}"


def run_child(argv: list, env: dict, cwd: str, errpath: str) -> ChildResult:
    """One closed-loop child process; its CPU time and peak RSS come from wait4."""
    with open(errpath, "w+b") as err:
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(
            proc.returncode, out, err.read(), usage.ru_utime + usage.ru_stime, usage.ru_maxrss, spawn_ns
        )


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    #: Rounds a run makes even when --seconds is up; see the README on the tail.
    min_rounds = 1
    #: Whether each operation runs in a child process (CPU and RSS from wait4).
    children = False

    def warm_up(self) -> None:
        """Run a few operations untimed, so lazy set-up and cold caches land in set-up."""
        raise NotImplementedError

    def round(self, r: int, tracer=None) -> list:
        """The operations of round ``r``; with a tracer, the traced variant."""
        raise NotImplementedError


class CliProcesses(Workload):
    """Sequential ``python -m stabpurity.cli`` processes: 3 estimate, 1 simulate per round."""

    name = "cli_processes"
    children = True

    def __init__(self, rng, workdir: str, root: str, tiny: bool):
        self.workdir, self.root = workdir, root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.estimates = []
        for i, (n, regime, flip) in enumerate(estimate_mix(rng, 8 if tiny else 40, (2, 10), (11, 50))):
            a = draw_record(rng, n, regime, flip)
            path = os.path.join(workdir, f"est-{i}.json")
            size = _write_measurement(path, a, rng.uniform(0.0, 0.02, n))
            self.estimates.append((path, a, size))
        self.simulations = []
        for i in range(4 if tiny else 14):
            kind = ("path", "ring", "star")[i % 3]
            n = int(rng.integers(3 if kind == "ring" else 2, 17))
            shots = "exact" if i % 2 else int(rng.choice([100, 1000, 10000]))
            self.simulations.append((f"{kind}-{n}", n, float(rng.uniform(0.01, 0.5)), shots, int(rng.integers(2**31))))
        self.reference: dict = {}
        self.import_samples: list = []
        self.errpath = os.path.join(workdir, "child.err")

    def warm_up(self) -> None:
        ops = self.round(0)
        for op in (ops[0], ops[3]):
            op.check(op.run(), Counter())

    def _argv(self, cli_args: list, trace_path: Optional[str]) -> list:
        if trace_path is None:
            return [sys.executable, "-m", "stabpurity.cli", *cli_args]
        return [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), trace_path, *cli_args]

    def _op(self, key, cli_args, exit_codes, judge, tracer) -> Op:
        trace_path = os.path.join(self.workdir, f"spans-{key[0]}-{key[1]}.json") if tracer else None

        def run():
            return run_child(self._argv(cli_args, trace_path), self.env, self.root, self.errpath)

        def check(res: ChildResult, counts: Counter) -> str:
            if tracer is not None and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                os.remove(trace_path)
                self.import_samples.append((child["main_ns"] - res.spawn_ns, child["import_ns"]))
                tracer.extend(child["spans"], tracer.op)
            if res.exit_code not in exit_codes:
                return "error:" + _error_type(res.stderr, res.exit_code)
            status, produced = judge(res, counts)
            if tracer is None:
                self.reference[key] = produced
            elif self.reference.get(key, produced) != produced:
                return "mismatch:traced report bytes differ from the real CLI's"
            return status

        return Op(run, check)

    def round(self, r: int, tracer=None) -> list:
        ops = []
        for j in range(3):
            path, a, size = self.estimates[(3 * r + j) % len(self.estimates)]

            def judge(res, counts, a=a, size=size):
                counts["cli.input_bytes"] += size
                counts["cli.report_bytes"] += len(res.stdout)
                bad = gate.check_estimate(a, res.exit_code, json.loads(res.stdout), with_certificate=True)
                return ("mismatch:" + bad if bad else "ok"), res.stdout

            ops.append(self._op((r, j), ["estimate", "--input", path, "--json"], (0, 2), judge, tracer))
        graph, n, gamma_t, shots, seed = self.simulations[r % len(self.simulations)]
        out = os.path.join(self.workdir, f"sim-{r}-{'t' if tracer else 'u'}.json")
        truth = out[: -len(".json")] + ".truth.json"

        def judge_sim(res, counts):
            with open(out, "rb") as fh, open(truth, "rb") as th:
                produced = (fh.read(), th.read())
            counts["cli.report_bytes"] += len(produced[0]) + len(produced[1])
            bad = gate.check_simulation(n, gamma_t, shots, seed, *(json.loads(text) for text in produced))
            return ("mismatch:" + bad if bad else "ok"), produced

        args = ["simulate", "--graph", graph, "--gamma-t", repr(gamma_t), "--shots", str(shots),
                "--seed", str(seed), "--output", out]
        ops.append(self._op((r, 3), args, (0,), judge_sim, tracer))
        return ops


class RecordsLarge(Workload):
    """In-process ``cli.main(["estimate", ...])`` on n = 10^3, 10^4, 10^5, one each per round."""

    name = "records_large"
    #: The 10^5 share must fill the ten samples beyond the tail percentile.
    min_rounds = 11

    def __init__(self, rng, workdir: str, root: str, tiny: bool):
        from stabpurity import cli

        self.cli = cli
        self.workdir = workdir
        self.sizes = (10, 100, 15_000) if tiny else (1_000, 10_000, 100_000)
        self.min_rounds = 1 if tiny else RecordsLarge.min_rounds
        self.files = {}
        for size in self.sizes:
            for copy in range(2):
                a = draw_record(rng, size, "domain", flip=copy == 0)
                path = os.path.join(workdir, f"large-{size}-{copy}.json")
                self.files[size, copy] = (path, a, _write_measurement(path, a, rng.uniform(0.0, 0.002, size)))
        self.devnull = open(os.devnull, "w")

    def warm_up(self) -> None:
        op = self.round(0)[0]
        op.check(op.run(), Counter())

    def round(self, r: int, tracer=None) -> list:
        ops = []
        for size in self.sizes:
            path, a, in_bytes = self.files[size, r % 2]
            out = os.path.join(self.workdir, f"report-{size}.json")
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)

            def run(path=path, out=out):
                with contextlib.redirect_stdout(self.devnull):
                    return self.cli.main(["estimate", "--input", path, "--output", out])

            def check(exit_code, counts, a=a, out=out, in_bytes=in_bytes) -> str:
                counts["cli.input_bytes"] += in_bytes
                doc = None
                if exit_code == 0:
                    counts["cli.report_bytes"] += os.path.getsize(out)
                    with open(out, encoding="utf-8") as fh:
                        doc = json.load(fh)
                bad = gate.check_estimate(a, exit_code, doc, with_certificate=True)
                if bad is None:
                    return "ok"
                return ("error:" if exit_code not in (0, 2) else "mismatch:") + bad

            ops.append(Op(run, check))
        return ops


class OracleVerify(Workload):
    """The brute-force oracles against the closed forms: per round, a QP and
    max-entropy check of an in-domain and a band record at each n, and an RK4
    plus twirl check of each graph at each gamma*t."""

    name = "oracle_verify"
    #: Two 6-qubit RK4 checks per round must fill the ten samples beyond the tail.
    min_rounds = 6

    def __init__(self, rng, workdir: str, root: str, tiny: bool):
        from stabpurity import diagonal, oracle
        from stabpurity.estimator import MeasurementRecord
        from stabpurity.stabilizer import GraphSpec

        self.oracle, self.diagonal, self.record_cls = oracle, diagonal, MeasurementRecord
        self.min_rounds = 1 if tiny else OracleVerify.min_rounds
        sizes = (2, 3, 4) if tiny else (4, 6, 8)
        self.pairs = [
            [(n, [draw_record(rng, n, regime, flip=False) for regime in ("domain", "band")]) for n in sizes]
            for _ in range(8)
        ]
        names = ("path-2", "path-3", "ring-3") if tiny else ("path-4", "path-6", "ring-6")
        self.graphs = [(GraphSpec.preset(name), gamma_t) for name in names for gamma_t in (0.1, 0.5)]

    def warm_up(self) -> None:
        # the first BLAS-backed integration in a process is several times slower
        graph = self.graphs[-1][0]
        self.diagonal.twirl(self.oracle.master_equation_evolve(graph, 1.0, 0.02, steps=20), graph)
        self.oracle.qp_min_purity(self.record_cls(4, np.full(4, 0.9)))

    def round(self, r: int, tracer=None) -> list:
        oracle, diagonal = self.oracle, self.diagonal
        ops = []
        for n, records in self.pairs[r % len(self.pairs)]:

            def run(n=n, records=records):
                out = []
                for a in records:
                    record = self.record_cls(n, a)
                    out.append((a, oracle.qp_min_purity(record), oracle.max_entropy_numeric(record)[1]))
                return out

            def check(results, counts) -> str:
                for a, solution, s_numeric in results:
                    counts["oracle.qp.iterations"] += solution.iterations
                    bad = gate.check_qp(a, solution.objective) or gate.check_maxent(a, s_numeric)
                    if bad:
                        return "mismatch:" + bad
                return "ok"

            ops.append(Op(run, check))
        for graph, gamma_t in self.graphs:
            steps = max(100, math.ceil(1000.0 * gamma_t))  # the integrator's accuracy floor

            def run(graph=graph, gamma_t=gamma_t, steps=steps):
                rho = oracle.master_equation_evolve(graph, 1.0, gamma_t, steps=steps)
                return diagonal.twirl(rho, graph).values

            def check(values, counts, n=graph.n, gamma_t=gamma_t, steps=steps) -> str:
                counts["oracle.rk4.steps"] += steps
                bad = gate.check_dephased(n, gamma_t, values)
                return "mismatch:" + bad if bad else "ok"

            ops.append(Op(run, check))
        return ops


WORKLOADS = {w.name: w for w in (CliProcesses, RecordsLarge, OracleVerify)}
