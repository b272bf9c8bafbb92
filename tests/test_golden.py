"""Byte-exact golden outputs of the CLI on a fixed corpus.

The corpus under ``tests/golden/`` holds measurement files (``inputs/``) and
the exact bytes every command wrote for them (``expected/``), plus each
run's exit code.  The input files are committed rather than generated,
because the report's ``input_digest`` hashes their bytes.

To rebuild the corpus after an intended output change:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from stabpurity.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

#: How each measurement file is estimated: run-id suffix -> extra CLI arguments.
ESTIMATE_MODES = {
    "json": ["--json"],
    "text": [],
}

#: Simulate runs: run id -> CLI arguments (output paths appended).
SIMULATE_RUNS = {
    "simulate-path-4-exact": ["--graph", "path-4", "--gamma-t", "0.1"],
    "simulate-path-4-shots": ["--graph", "path-4", "--gamma-t", "0.1", "--shots", "1000", "--seed", "7"],
    "simulate-ring-6-exact": ["--graph", "ring-6", "--gamma-t", "0.3"],
    "simulate-ring-6-shots": ["--graph", "ring-6", "--gamma-t", "0.3", "--shots", "1000", "--seed", "11"],
    "simulate-star-16-exact": ["--graph", "star-16", "--gamma-t", "0.05"],
    "simulate-star-16-shots": ["--graph", "star-16", "--gamma-t", "0.05", "--shots", "1000", "--seed", "3"],
    # min(p, 1 - p) * shots <= 30: numpy's inversion branch
    "simulate-path-5-shots-100": ["--graph", "path-5", "--gamma-t", "0.5", "--shots", "100", "--seed", "4294967296"],
    # the largest int64 count, seeded past SeedSequence's pool of four words:
    # BTPE with int64 wrap-around in numpy's C arithmetic
    "simulate-ring-6-shots-max": [
        "--graph", "ring-6", "--gamma-t", "2.0", "--shots", "9223372036854775807",
        "--seed", "340282366920938463463374607431779213479",
    ],
}

#: Runs whose stdout is the whole output.
STDOUT_RUNS = {
    "reproduce-tables-json": ["reproduce-tables", "--json"],
    "reproduce-tables-text": ["reproduce-tables"],
    "oracle-check-json": ["oracle-check", "--json", "--trials", "10", "--n-max", "4"],
}


def _corpus() -> dict:
    """Measurement documents of the corpus, keyed by file stem."""
    a01 = math.exp(-0.1)
    docs = {
        "reference-n2": {"n": 2, "a": [a01, a01], "delta_a": [0.0, 0.0]},
        "n1": {"n": 1, "a": [0.8]},
        "n1-negative": {"n": 1, "a": [-0.6], "delta_a": [0.05]},
        "pure": {"n": 3, "a": [1, 1, 1]},
        "lambda0-zero": {"n": 4, "a": [0.5, 0.5, 0.5, 0.5]},
        "infeasible": {"n": 3, "a": [0.2, 0.2, 0.2]},
        "band": {"n": 3, "a": [0.9, 0.45, 0.45], "delta_a": [0.01, 0.02, 0.03]},
        "lower-shift-infeasible": {"n": 3, "a": [0.4, 0.35, 0.3], "delta_a": [0.1, 0.1, 0.1]},
        "graph-path-3": {
            "n": 3,
            "a": [0.95, 0.3, 0.6],
            "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
        },
        "graph-star-3": {
            "n": 3,
            "a": [0.95, 0.4, 0.5],
            "graph": {"n": 3, "edges": [[0, 1], [0, 2]]},
        },
        "shots-meta": {
            "n": 2,
            "a": [0.9, -0.86],
            "delta_a": [0.01, 0.02],
            "shots": [1000, 1000],
            "meta": {"note": "golden", "run": 3},
        },
        "large-delta": {"n": 3, "a": [0.9, 0.8, 0.95], "delta_a": [1.5, 2.0, 0.5]},
    }
    rng = np.random.default_rng(20240607)
    for n in (10, 11, 200):
        docs[f"n{n}"] = {"n": n, "a": rng.uniform(n / (n + 2), 1.0, size=n).tolist()}
    for i in range(12):
        n = 2 + i % 7
        deficits = rng.uniform(0.0, 1.0, size=n)
        deficits *= rng.uniform(0.3, 2.4) / deficits.sum()  # some land past the gate
        a = np.clip(1.0 - deficits, 0.0, 1.0) * rng.choice([-1.0, 1.0], size=n)
        doc = {"n": n, "a": a.tolist()}
        if i % 2:
            doc["delta_a"] = rng.uniform(0.0, 0.05, size=n).tolist()
        docs[f"seeded-{i:02d}"] = doc
    return docs


def _stdout_runs() -> dict:
    """Every run checked by its stdout: run id -> CLI arguments."""
    runs = dict(STDOUT_RUNS)
    for path in sorted(INPUTS.glob("*.json")):
        for mode, extra in ESTIMATE_MODES.items():
            runs[f"estimate-{path.stem}-{mode}"] = ["estimate", "--input", str(path), *extra]
    return runs


def _run_stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _simulate(run_id: str, workdir: Path) -> tuple[int, dict]:
    """Exit code and the bytes of both files one simulate run writes."""
    target = workdir / f"{run_id}.json"
    code, _ = _run_stdout(["simulate", *SIMULATE_RUNS[run_id], "--output", str(target)])
    truth = workdir / f"{run_id}.truth.json"
    return code, {"measurement": target.read_bytes(), "truth": truth.read_bytes()}


def _exit_codes() -> dict:
    return json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("run_id", sorted(_stdout_runs()))
def test_stdout_bytes(run_id):
    code, out = _run_stdout(_stdout_runs()[run_id])
    assert code == _exit_codes()[run_id]
    assert out.encode("utf-8") == (EXPECTED / f"{run_id}.out").read_bytes()


def test_estimate_bars_hold_p_min():
    """Every JSON report in the corpus has p_lower <= p_min <= p_upper, and says
    why exactly when p_lower is null, so a regeneration cannot pin a broken bar."""
    codes, checked = _exit_codes(), 0
    for path in sorted(EXPECTED.glob("estimate-*-json.out")):
        if codes[path.stem] != 0:
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        low = report["p_lower"]
        assert (low if low is not None else -math.inf) <= report["p_min"] <= report["p_upper"], path.stem
        warned = any(w.endswith("no lower error bar") for w in report["warnings"])
        assert warned == (low is None), path.stem
        checked += 1
    assert checked >= 20


def test_corpus_files_are_the_runs():
    """The committed files are exactly what ``--regenerate`` writes: one input per
    corpus document, one expected file per run plus exit_codes.json, and an exit
    code per run, so a renamed or dropped run leaves no orphan behind."""
    docs = _corpus()
    assert sorted(p.name for p in INPUTS.iterdir()) == sorted(f"{stem}.json" for stem in docs)
    for stem, doc in docs.items():
        assert (INPUTS / f"{stem}.json").read_text(encoding="utf-8") == json.dumps(doc) + "\n", stem
    stdout_runs = _stdout_runs()
    files = {f"{run_id}.out" for run_id in stdout_runs}
    files |= {f"{run_id}.{kind}.json" for run_id in SIMULATE_RUNS for kind in ("measurement", "truth")}
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted(files | {"exit_codes.json"})
    assert set(_exit_codes()) == set(stdout_runs) | set(SIMULATE_RUNS)


@pytest.mark.parametrize("run_id", sorted(SIMULATE_RUNS))
def test_simulate_bytes(run_id, tmp_path):
    code, files = _simulate(run_id, tmp_path)
    assert code == _exit_codes()[run_id]
    for kind, data in files.items():
        assert data == (EXPECTED / f"{run_id}.{kind}.json").read_bytes()


def regenerate() -> None:
    """Rewrite the input files and every expected output from the current code."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    INPUTS.mkdir(parents=True)
    EXPECTED.mkdir()
    for stem, doc in _corpus().items():
        (INPUTS / f"{stem}.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    codes = {}
    for run_id, argv in _stdout_runs().items():
        codes[run_id], out = _run_stdout(argv)
        (EXPECTED / f"{run_id}.out").write_bytes(out.encode("utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        for run_id in SIMULATE_RUNS:
            codes[run_id], files = _simulate(run_id, Path(tmp))
            for kind, data in files.items():
                (EXPECTED / f"{run_id}.{kind}.json").write_bytes(data)
    (EXPECTED / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    regenerate()
