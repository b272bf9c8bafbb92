"""One benchmark process: set a workload up, then time it (``python worker.py <config json>``).

Started by run.py, never by hand.  Set-up is everything before the first timed
operation: interpreter start, importing the package (and numpy), input
generation, file writes and warm-up.  When it ends the worker prints one JSON
line with its clock readings; a set-up-only worker exits there.  Otherwise it
runs whole rounds of operations, closed loop with one client, until
``seconds`` have passed and at least ``min_rounds`` rounds are done, and
writes the samples to ``config["result"]``.

With ``trace`` on, every round is run twice, untraced and then traced, for
half of ``seconds``; the per-layer totals and the spans are written too.
"""

import time

START_NS = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
from array import array  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402


class Samples:
    """Per-operation samples of one phase, plus status and layer counters."""

    def __init__(self):
        # compact arrays, so that the worker's peak RSS hardly grows with the number of operations
        self.wall_ms, self.cpu_ms, self.ok, self.round = array("d"), array("d"), array("b"), array("i")
        self.child_rss_kb = []
        self.statuses, self.examples, self.counts = Counter(), [], Counter()
        self.rounds = 0

    def run_round(self, wl, r: int, tracer=None) -> None:
        for op in wl.round(r, tracer):
            if tracer is not None:
                tracer.op = len(self.wall_ms)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                raw, status = op.run(), None
            except Exception as exc:  # any exception is a failed operation, recorded by type
                raw, status = None, f"error:{type(exc).__name__}"
            t1, c1 = time.perf_counter(), time.process_time()
            if status is None:
                try:
                    status = op.check(raw, self.counts)
                except (OSError, ValueError) as exc:  # output missing or not JSON
                    status = f"mismatch:output unreadable ({type(exc).__name__})"
            if wl.children and raw is not None:
                self.cpu_ms.append(raw.cpu_s * 1e3)
                self.child_rss_kb.append(raw.rss_kb)
            else:
                self.cpu_ms.append((c1 - c0) * 1e3)
            self.wall_ms.append((t1 - t0) * 1e3)
            self.ok.append(status == "ok")
            self.round.append(r)
            kind = status if status.startswith(("ok", "error:")) else "mismatch"
            self.statuses[kind] += 1
            if kind != "ok" and len(self.examples) < 5 and status not in self.examples:
                self.examples.append(status)
        self.rounds = r + 1

    def to_dict(self, wl) -> dict:
        if wl.children:  # each child's own peak; their median is steadier than the largest
            rss = sorted(self.child_rss_kb)
            rss_kb = rss[len(rss) // 2] if rss else 0
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"rounds": self.rounds, "wall_ms": self.wall_ms.tolist(), "cpu_ms": self.cpu_ms.tolist(),
                "ok": self.ok.tolist(), "round": self.round.tolist(), "statuses": self.statuses,
                "examples": self.examples, "counts": self.counts, "rss_kb": rss_kb}


def run_rounds(wl, seconds: float, min_rounds: int, tracer=None) -> tuple:
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done.

    With a tracer, each round runs untraced and then traced, so the two
    phases see the same machine state and the same operations.
    """
    plain, traced = Samples(), Samples()
    start, r = time.perf_counter(), 0
    while r < min_rounds or time.perf_counter() - start < seconds:
        plain.run_round(wl, r)
        if tracer is not None:
            tracer.install()
            try:
                traced.run_round(wl, r, tracer)
            finally:
                tracer.uninstall()
        r += 1
    return plain.to_dict(wl), traced.to_dict(wl)


def _threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return -1


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    t0 = time.perf_counter_ns()
    import stabpurity.cli  # noqa: F401  (numpy comes with it)

    import_ns = time.perf_counter_ns() - t0
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[cfg["workload"]](
        np.random.default_rng(cfg["seed"]), cfg["workdir"], cfg["root"], cfg["tiny"]
    )
    wl.warm_up()
    ready_ns = time.perf_counter_ns()
    print(json.dumps({"start_ns": START_NS, "import_ns": import_ns, "ready_ns": ready_ns}), flush=True)
    if cfg["setup_only"]:
        return 0

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = _threads()
    environment = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # the worker starts no thread of its own: the others belong to the BLAS pool
        "worker_threads_after_warm_up": threads,
        "blas_threads_observed": threads - 1 if threads > 0 else None,
    }
    if not cfg["trace"]:
        result, _ = run_rounds(wl, cfg["seconds"], wl.min_rounds)
    else:
        from spans import Tracer, layer_totals

        tracer = Tracer()
        result, traced = run_rounds(wl, cfg["seconds"] / 2, wl.min_rounds, tracer)
        totals = layer_totals(tracer.spans)
        totals["certificate_invalid"] = sum(
            1 for s in tracer.spans if s[0] == "estimator.kkt_certificate" and s[5] == "CertificateInvalid"
        )
        result["traced"] = dict(traced, layers=totals, imports=getattr(wl, "import_samples", []))
        tracer.write(cfg["spans"], {"workload": cfg["workload"], "seed": cfg["seed"], "environment": environment})
    result["environment"] = environment
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
