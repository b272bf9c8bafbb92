"""Spans recorded from outside the package, around calls into its modules.

``Tracer.install`` replaces the package functions listed in ``LAYERS`` by
wrappers that record one span per call, and ``uninstall`` puts the originals
back.  The wrappers sit on the module attributes the package itself looks up
at call time (``cli.build_report`` calls ``cli.min_purity``), so the real code
paths run unchanged.  An attribute a later version of the package no longer
has is skipped and its layer reads zero.

A span is ``[name, start_ns, end_ns, parent, op, error]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the operation id the
benchmark assigned, ``error`` the exception type name or None.  Spans stay in
memory until :meth:`Tracer.write` is called at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

#: (module, attribute path, layer name).  Several attributes may share a layer.
LAYERS = (
    ("stabpurity.cli", "main", "cli.main"),
    ("stabpurity.cli", "load_measurement", "cli.load_measurement"),
    ("stabpurity.cli", "build_report", "cli.build_report"),
    ("stabpurity.cli", "EstimateReport.to_dict", "cli.serialize"),
    ("stabpurity.cli", "_json_text", "cli.serialize"),
    ("stabpurity.cli", "_write_json", "cli.serialize"),
    ("stabpurity.estimator", "MeasurementRecord.__init__", "estimator.record"),
    ("stabpurity.cli", "normalize_signs", "estimator.normalize_signs"),
    ("stabpurity.cli", "min_purity", "estimator.min_purity"),
    ("stabpurity.cli", "estimate_entropy", "estimator.estimate_entropy"),
    ("stabpurity.cli", "kkt_certificate", "estimator.kkt_certificate"),
    ("stabpurity.cli", "sample_measurements", "simulator.sample_measurements"),
    ("stabpurity.cli", "exact_purity_dephased", "simulator.exact_truth"),
    ("stabpurity.cli", "exact_entropy_dephased", "simulator.exact_truth"),
    ("stabpurity.oracle", "qp_min_purity", "oracle.qp"),
    ("stabpurity.oracle", "max_entropy_numeric", "oracle.maxent"),
    ("stabpurity.oracle", "master_equation_evolve", "oracle.rk4"),
    ("stabpurity.diagonal", "twirl", "diagonal.twirl"),
)

#: Layer names in report order (each reported as .busy_s and .calls).
LAYER_NAMES = tuple(dict.fromkeys(layer for _, _, layer in LAYERS))

FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "error")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for module, path, layer in LAYERS:
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(layer, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def extend(self, spans: list[list], op) -> None:
        """Append spans recorded in another process, re-indexing their parents."""
        base = len(self.spans)
        for name, start, end, parent, _, error in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, error])

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, fields=FIELDS)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans: list[list]) -> dict:
    """Per layer: busy seconds (time inside its outermost calls), calls, failed calls.

    A call nested inside a call of the same layer adds to ``calls`` but not to
    busy time, so a layer's time is never counted twice.
    """
    busy, calls, failed = Counter(), Counter(), Counter()
    for span in spans:
        name, start, end, parent = span[0], span[1], span[2], span[3]
        calls[name] += 1
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            busy[name] += (end - start) / 1e9
            if span[5] is not None:
                failed[name] += 1
    return {"busy_s": busy, "calls": calls, "failed": failed}
