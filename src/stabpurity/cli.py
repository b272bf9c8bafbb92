"""Command-line front end: it parses arguments and input files and prints results only.

The estimator, simulator and oracle modules compute everything it prints.

Commands:
    estimate          bounds from a measurement JSON file
    simulate          write a simulated measurement file plus the exact truth
    reproduce-tables  closed-form summary table for dephased path graphs
    oracle-check      cross-check closed forms against the numeric solvers

Exit codes: 0 success, also after --help or --version; 1 malformed input,
invalid graph, out-of-range option, unwritable output file or usage error
(such as an unknown option); 2 infeasible record; 3 tolerance breach in a
check command.

All file I/O is UTF-8 JSON with sorted keys, so identical arguments and
inputs produce byte-identical outputs.  Measurement schema:

    {"n": int, "a": [...], "delta_a": [...], "shots": [...],
     "graph": {"n": int, "edges": [[u, v], ...]}, "meta": {...}}

with delta_a, shots, graph, and meta optional (the estimator needs only n and
a; shots is checked but not used; the graph, when present, scopes the
pairwise-sum warning to its edges; meta must hold no NaN or infinity, which
the JSON report could not carry).
"""

import argparse
import hashlib
import json
import math
import sys

from . import __version__
from .estimator import (
    InfeasibleRecord,
    MeasurementRecord,
    estimate_entropy,
    kkt_certificate,
    min_purity,
)
from .simulator import (
    RNG_ALGORITHM,
    exact_entropy_dephased,
    exact_purity_dephased,
    exact_record,
    reference_table,
    sample_measurements,
)
from .stabilizer import DENSE_CAP, GraphSpec


class MalformedInput(Exception):
    """An input file or option the CLI refuses: ``main`` prints ``error: <message>`` and returns 1."""


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(obj, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json_text(obj))
    except OSError as exc:
        raise MalformedInput(f"field '<file>': cannot write {path}: {exc}") from exc


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MalformedInput(f"field '<file>': cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (ValueError, RecursionError) as exc:  # also int literals over 4300 digits, deep nesting
        raise MalformedInput(f"field '<file>': {path} is not valid UTF-8 JSON: {exc}") from exc


def _is_number(v) -> bool:
    # an int too large for a float is a number; range checks compare it exactly
    return (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and math.isfinite(v))


def _qubit_count(doc: dict, n_max: float = math.inf) -> int:
    if "n" not in doc:
        raise MalformedInput("field 'n': missing")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= n_max:
        want = "a positive integer" if n_max == math.inf else f"an integer in 1..{n_max}"
        raise MalformedInput(f"field 'n': expected {want}, got {n!r}")
    return n


def _number_list(doc: dict, key: str, n: int, lo: float, hi: float) -> list[float]:
    if key not in doc:
        raise MalformedInput(f"field '{key}': missing")
    vals = doc[key]
    if not isinstance(vals, list) or len(vals) != n:
        raise MalformedInput(f"field '{key}': expected a list of {n} numbers")
    out = []
    for v in vals:
        if not _is_number(v):
            raise MalformedInput(f"field '{key}': non-numeric entry {v!r}")
        if not (lo <= v <= hi):
            raise MalformedInput(f"field '{key}': entry {v!r} outside [{lo}, {hi}]")
        out.append(float(v) + 0.0)  # + 0.0 turns a -0.0 into 0.0
    return out


def load_measurement(path: str):
    """Parse a measurement file; returns (record, graph or None, meta, digest)."""
    doc, digest = _load_json(path)
    if not isinstance(doc, dict):
        raise MalformedInput("field '<file>': top-level value must be an object")
    n = _qubit_count(doc)
    a = _number_list(doc, "a", n, -1.0, 1.0)
    delta = _number_list(doc, "delta_a", n, 0.0, 2.0) if "delta_a" in doc else [0.0] * n
    if doc.get("shots") is not None:
        raw = doc["shots"]
        if not isinstance(raw, list) or len(raw) != n or any(
            not isinstance(s, int) or isinstance(s, bool) or s < 1 for s in raw
        ):
            raise MalformedInput(f"field 'shots': expected a list of {n} positive integers")
    graph = None
    if doc.get("graph") is not None:
        try:
            graph = GraphSpec.from_dict(doc["graph"])
        except ValueError as exc:
            raise MalformedInput(f"field 'graph': {exc}") from exc
        if graph.n != n:
            raise MalformedInput(f"field 'graph': graph has {graph.n} vertices but n = {n}")
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise MalformedInput("field 'meta': expected an object")
    try:
        json.dumps(meta, allow_nan=False)  # the report copies meta, so it must be strict JSON
    except ValueError as exc:
        raise MalformedInput("field 'meta': NaN and Infinity are not valid JSON numbers") from exc
    record = MeasurementRecord(n, a, delta)
    return record, graph, meta or {}, digest


def build_report(record, graph, meta, digest) -> dict:
    """Run the full estimation pipeline on an already-parsed record; returns the report document."""
    pur = min_purity(record, graph)
    ent = estimate_entropy(record)

    if record.n <= DENSE_CAP:
        cert = kkt_certificate(record)
        certificate = {"valid": cert.valid, "min_mu": cert.min_mu}
    else:  # kept for the report schema and the benchmark gate, which pin null above the cap
        certificate = {"valid": None, "skipped": f"n > dense cap {DENSE_CAP}"}

    return {
        "version": __version__,
        "input_digest": digest,
        "n": record.n,
        "a": [abs(x) for x in record.a],  # the sign-normalized record, -0.0 read as 0.0
        "delta_a": list(record.delta_a),
        "signs_flipped": "".join(["1" if x < 0.0 else "0" for x in record.a]),
        "p_min": pur.p_min,
        "p_lower": pur.p_lower,
        "p_upper": pur.p_upper,
        "lambda0": pur.lambda0,
        "spectrum": {
            "lambda0": pur.lambda0,
            "singles": list(pur.singles),
            "zero_multiplicity": (1 << record.n) - record.n - 1,
        },
        "s_lower": ent.s_lower,
        "s_max": ent.s_max,
        "warnings": list(pur.warnings),
        "certificate": certificate,
        "meta": meta,
    }


def _print_report(report: dict, out) -> None:
    def fmt(x):
        return "n/a" if x is None else f"{x:.12g}"

    print(f"n                = {report['n']}", file=out)
    print(f"a (normalized)   = {[round(x, 6) for x in report['a']]}", file=out)
    print(f"signs flipped    = {report['signs_flipped']}", file=out)
    print(f"p_min            = {fmt(report['p_min'])}", file=out)
    print(f"p_lower, p_upper = {fmt(report['p_lower'])}, {fmt(report['p_upper'])}", file=out)
    print(f"lambda0          = {fmt(report['lambda0'])}", file=out)
    print(f"s_lower          = {fmt(report['s_lower'])}", file=out)
    print(f"s_max            = {fmt(report['s_max'])}", file=out)
    cert = report["certificate"]
    if cert["valid"] is None:
        verdict = f"skipped ({cert['skipped']})"
    else:
        verdict = f"{'valid' if cert['valid'] else 'not valid'}, min_mu = {fmt(cert['min_mu'])}"
    print(f"certificate      = {verdict}", file=out)
    for w in report["warnings"]:
        print(f"warning: {w}", file=out)


def cmd_estimate(args) -> int:
    record, graph, meta, digest = load_measurement(args.input)
    try:
        doc, code = build_report(record, graph, meta, digest), 0
    except InfeasibleRecord as exc:  # always printed as JSON, so a caller can parse the refusal
        doc = {
            "error": "infeasible",
            "message": str(exc),
            "n": exc.n,
            "lambda0": exc.lambda0,
            "sum_a": exc.sum_a,
        }
        code = 2
    if args.output:
        _write_json(doc, args.output)
    if args.json or code:
        sys.stdout.write(_json_text(doc))
    else:
        _print_report(doc, sys.stdout)
    return code


def _truth_path(output: str) -> str:
    return output[: -len(".json")] + ".truth.json" if output.endswith(".json") else output + ".truth.json"


def cmd_simulate(args) -> int:
    try:
        graph = _resolve_graph(args.graph)
    except (ValueError, MalformedInput) as exc:
        raise MalformedInput(f"invalid graph: {exc}") from exc
    if not (math.isfinite(args.gamma_t) and args.gamma_t >= 0):
        raise MalformedInput("--gamma-t must be finite and nonnegative")
    if args.seed < 0:
        raise MalformedInput("--seed must be nonnegative")

    meta = {
        "generator": "stabpurity simulate",
        "version": __version__,
        "graph": args.graph,
        "gamma_t": args.gamma_t,
    }
    exact = exact_record(graph, args.gamma_t)
    if args.shots == "exact":
        record = exact
        meta["shots"] = "exact"
    else:
        try:
            shots = int(args.shots)
        except ValueError as exc:
            raise MalformedInput(f"--shots must be an integer or 'exact', got {args.shots!r}") from exc
        if not 1 <= shots < 2**63:  # the binomial count is an int64, as in numpy
            raise MalformedInput("--shots must be between 1 and 2**63 - 1")
        record = sample_measurements(exact.a, shots, args.seed)
        meta.update({"shots": shots, "seed": args.seed, "rng": RNG_ALGORITHM})

    measurement = {
        "n": graph.n,
        "graph": graph.to_dict(),
        "a": list(record.a),
        "delta_a": list(record.delta_a),
        "meta": meta,
    }
    if args.shots != "exact":
        measurement["shots"] = [shots] * graph.n
    truth = {
        "n": graph.n,
        "graph": graph.to_dict(),
        "gamma_t": args.gamma_t,
        "a_exact": list(exact.a),
        "purity_exact": exact_purity_dephased(graph, args.gamma_t),
        "entropy_exact": exact_entropy_dephased(graph, args.gamma_t),
    }
    _write_json(measurement, args.output)
    _write_json(truth, _truth_path(args.output))
    print(f"wrote {args.output} and {_truth_path(args.output)}")
    return 0


def _resolve_graph(spec: str) -> GraphSpec:
    if spec.endswith(".json"):
        doc, _ = _load_json(spec)
        return GraphSpec.from_dict(doc)
    return GraphSpec.preset(spec)


def cmd_reproduce_tables(args) -> int:
    table = reference_table()
    if args.json:
        sys.stdout.write(_json_text(table))
    else:
        print(f"dephased path graphs at gamma*t = {table['gamma_t']}")
        print(f"{'n':>2} {'exact P':>9} {'est P':>9} {'dev':>7} {'exact S':>9} {'est S':>9} {'dev':>7} match")
        for r in table["rows"]:
            p, s = r["purity"], r["entropy"]
            ok = "yes" if (p["matches"] and s["matches"]) else "NO"
            print(
                f"{r['n']:>2} {p['exact_4dp']:>9.4f} {p['estimated_4dp']:>9.4f} "
                f"{p['deviation_4dp']:>7.4f} {s['exact_4dp']:>9.4f} "
                f"{s['estimated_4dp']:>9.4f} {s['deviation_4dp']:>7.4f} {ok}"
            )
    if args.output:
        _write_json(table, args.output)
    return 0 if table["all_match"] else 3


def replay_instance(doc) -> dict:
    """Recompute the deviation of a serialized failing instance.

    Raises MalformedInput naming the field unless the document is an object
    with a known ``kind``, ``n`` in 1..DENSE_CAP (10), and either ``a`` (n numbers
    in [-1, 1], each read as |a_k|) or, for the integrator, a ``gamma_t`` in [0, MAX_GAMMA_T].
    """
    from . import oracle  # brings numpy, which estimate never needs
    if not isinstance(doc, dict):
        raise MalformedInput("field '<file>': top-level value must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in oracle.TOLERANCES:
        raise MalformedInput(f"field 'kind': unknown instance kind {kind!r}")
    n = _qubit_count(doc, DENSE_CAP)
    if kind == "integrator":
        x = doc.get("gamma_t")
        if not _is_number(x) or not 0 <= x <= oracle.MAX_GAMMA_T:
            raise MalformedInput(f"field 'gamma_t': expected a number in [0, {oracle.MAX_GAMMA_T}], got {x!r}")
    else:
        x = _number_list(doc, "a", n, -1.0, 1.0)
    gap, tolerance = oracle.instance_gap(kind, n, x), oracle.TOLERANCES[kind]
    return {"kind": kind, "gap": gap, "tolerance": tolerance, "ok": gap <= tolerance}


def cmd_oracle_check(args) -> int:
    if args.input:
        doc, _ = _load_json(args.input)
        result = replay_instance(doc)
        sys.stdout.write(_json_text(result))
        return 0 if result["ok"] else 3
    if not (1 <= args.n_min <= args.n_max <= DENSE_CAP):
        raise MalformedInput(f"need 1 <= --n-min <= --n-max <= {DENSE_CAP}")
    if args.seed < 0:
        raise MalformedInput("--seed must be nonnegative")
    if args.trials < 0:
        raise MalformedInput("--trials must be nonnegative")
    from . import oracle  # after the option checks, so a refusal loads no numpy
    summary = oracle.run_oracle_trials(args.trials, args.n_min, args.n_max, args.seed)
    tolerance = oracle.TOLERANCES
    failure = summary.pop("failure")
    if args.json:
        sys.stdout.write(_json_text(summary))
    else:
        print(f"trials = {summary['trials']}, n in [{args.n_min}, {args.n_max}], seed = {args.seed}")
        print(f"qp         max |closed - numeric| = {summary['qp']['max_abs_gap']:.3e} (tol {tolerance['qp']:.0e})")
        print(f"entropy    max |closed - numeric| = {summary['entropy']['max_abs_gap']:.3e} (tol {tolerance['entropy']:.0e})")
        print(f"integrator max coefficient dev    = {summary['integrator']['max_abs_dev']:.3e} (tol {tolerance['integrator']:.0e})")
        b = summary["suboptimal_band"]
        if b["count"]:
            print(
                f"suboptimal band: {b['count']} records where the closed form is a "
                f"strict upper bound; max excess over the numeric optimum "
                f"{b['max_closed_minus_qp']:.3e} (informational)"
            )
        print("ok" if summary["ok"] else "TOLERANCE BREACH")
    if not summary["ok"] and failure is not None:
        _write_json(failure, args.failure_output)
        print(f"failing instance written to {args.failure_output}", file=sys.stderr)
    return 0 if summary["ok"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabpurity",
        description="Purity and entropy bounds for graph states from stabilizer-generator measurements.",
    )
    parser.add_argument("--version", action="version", version=f"stabpurity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate bounds from a measurement JSON file")
    p.add_argument("--input", required=True, help="measurement JSON file")
    p.add_argument("--output", help="write the report JSON here")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="simulate a dephased graph-state experiment")
    p.add_argument("--graph", required=True, help="preset (path-n, ring-n, star-n) or JSON path")
    p.add_argument("--gamma-t", type=float, required=True, help="dimensionless dephasing strength")
    p.add_argument("--shots", default="exact", help="shots per generator, or 'exact'")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--output", required=True, help="measurement file; truth goes to *.truth.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-tables", help="summary table for dephased paths, n = 2..4")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", help="also write the JSON form here")
    p.set_defaults(func=cmd_reproduce_tables)

    p = sub.add_parser("oracle-check", help="randomized closed-form vs numeric cross-checks")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--input", help="replay a serialized failing instance instead")
    p.add_argument(
        "--failure-output",
        default="oracle-failure.json",
        help="where to dump the first failing instance",
    )
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's: 2 after a usage error, 0 after --help or --version
        return 1 if exc.code else 0
    except (MalformedInput, InfeasibleRecord) as exc:  # infeasible: a replayed qp instance
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InfeasibleRecord) else 1


if __name__ == "__main__":
    sys.exit(main())
