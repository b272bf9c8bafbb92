import argparse
import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabpurity import oracle
from stabpurity.cli import (
    build_parser,
    build_report,
    load_measurement,
    main,
    replay_instance,
)
from stabpurity.simulator import reference_table

A01 = math.exp(-0.1)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse RFC 8259 JSON: Python's NaN and Infinity extensions are errors."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))


#: Any JSON value a measurement field might hold, valid or not.
ENTRY = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(),
    st.integers(),
    st.booleans(),
    st.text(st.characters(codec="utf-8"), max_size=3),
    st.none(),
    st.just(float("nan")),
    st.just(2**63),
)


@st.composite
def measurement_documents(draw):
    n = draw(st.integers(1, 12))
    entries = st.lists(ENTRY, min_size=n, max_size=n)
    near_one = st.lists(st.floats(0.8, 1.0), min_size=n, max_size=n)  # mostly feasible
    in_range = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    doc = {"n": n, "a": draw(st.one_of(near_one, in_range, entries))}
    if draw(st.booleans()):
        doc["shots"] = draw(st.one_of(st.lists(st.integers(1, 2**64), min_size=n, max_size=n), entries))
    if draw(st.booleans()):
        values = st.one_of(ENTRY, st.lists(ENTRY, max_size=3))
        doc["meta"] = draw(st.dictionaries(st.text(max_size=3), values, max_size=3))
    return doc


class TestEstimate:
    def test_reference_record(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [A01, A01], "delta_a": [0, 0]})
        code, out, _ = run(capsys, "estimate", "--input", f, "--json")
        assert code == 0
        report = json.loads(out)
        assert round(report["p_min"], 4) == 0.8233
        assert round(report["s_lower"], 4) == 0.3803
        assert round(report["s_max"], 4) == 0.3827
        assert report["certificate"]["valid"] is True
        assert "feasible" not in report
        assert report["signs_flipped"] == "00"

    def test_perfect_record(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 3, "a": [1, 1, 1]})
        code, out, _ = run(capsys, "estimate", "--input", f, "--json")
        report = json.loads(out)
        assert code == 0
        assert report["p_min"] == 1.0
        assert report["s_lower"] == 0.0
        assert report["s_max"] == 0.0

    def test_negative_zero_normalized_json(self, tmp_path, capsys):
        # no entry is below 0, yet the normalized record must not keep a -0.0
        f = write_json(tmp_path / "m.json", {"n": 3, "a": [-0.0, 1.0, 1.0]})
        code, out, _ = run(capsys, "estimate", "--input", f, "--json")
        report = json.loads(out)
        assert code == 0
        assert report["signs_flipped"] == "000"
        assert [math.copysign(1.0, x) for x in report["a"]] == [1.0, 1.0, 1.0]

    def test_negative_zero_normalized_text(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 3, "a": [-0.0, 1.0, 1.0]})
        code, out, _ = run(capsys, "estimate", "--input", f)
        assert code == 0
        assert "a (normalized)   = [0.0, 1.0, 1.0]\n" in out

    def test_negative_zero_uncertainty_normalized_json(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [0.5, -0.9], "delta_a": [-0.0, 0.1]})
        code, out, _ = run(capsys, "estimate", "--input", f, "--json")
        assert code == 0
        assert [math.copysign(1.0, x) for x in json.loads(out)["delta_a"]] == [1.0, 1.0]

    def test_negative_zero_uncertainty_normalized_text(self, tmp_path, capsys):
        # the text report omits delta_a; the report file written beside it keeps it
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [0.5, -0.9], "delta_a": [-0.0, 0.1]})
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "estimate", "--input", f, "--output", str(report))
        assert code == 0
        assert "signs flipped    = 01\n" in out
        assert '"delta_a": [\n    0.0,\n    0.1\n  ]' in report.read_text()

    def test_negative_expectations_normalized(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [0.9, -0.9]})
        code, out, _ = run(capsys, "estimate", "--input", f, "--json")
        report = json.loads(out)
        assert code == 0
        assert report["signs_flipped"] == "01"
        assert report["a"] == [0.9, 0.9]

    def test_infeasible_exits_2_with_structured_error(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 3, "a": [0.2, 0.2, 0.2]})
        code, out, _ = run(capsys, "estimate", "--input", f)
        assert code == 2
        error = json.loads(out)
        assert error["error"] == "infeasible"
        assert error["lambda0"] < 0

    @pytest.mark.parametrize(
        "doc,fieldname",
        [
            ({"a": [0.5]}, "n"),
            ({"n": 2}, "a"),
            ({"n": 2, "a": [0.5]}, "a"),
            ({"n": 1, "a": [1.5]}, "a"),
            ({"n": 1, "a": ["x"]}, "a"),
            ({"n": 1, "a": [0.5], "delta_a": [0.1, 0.1]}, "delta_a"),
            ({"n": 1, "a": [0.5], "shots": [0]}, "shots"),
            ({"n": 2, "a": [0.5, 0.5], "graph": {"n": 3, "edges": []}}, "graph"),
            ({"n": 0, "a": []}, "n"),
            ({"n": 3, "a": [0.5] * 3, "graph": {"n": 3.7, "edges": []}}, "graph"),
            ({"n": 2, "a": [0.5, 0.5], "graph": {"n": "2", "edges": []}}, "graph"),
            ({"n": 2, "a": [0.5, 0.5], "graph": {"n": 2, "edges": [[0, 1.9]]}}, "graph"),
            ({"n": 3, "a": [0.5] * 3, "graph": {"n": 3, "edges": [[True, 2]]}}, "graph"),
            ({"n": 1, "a": [0.5], "meta": {"run": [1, {"x": float("nan")}]}}, "meta"),
            ({"n": 1, "a": [0.5], "meta": {"x": float("-inf")}}, "meta"),
            ({"n": 1, "a": [10**400]}, "a"),
            ([1, 2], "<file>"),
            ({"n": 1, "a": [0.5], "meta": [1]}, "meta"),
        ],
    )
    def test_malformed_inputs_name_the_field(self, tmp_path, capsys, doc, fieldname):
        f = write_json(tmp_path / "bad.json", doc)
        code, _, err = run(capsys, "estimate", "--input", f)
        assert code == 1
        assert f"'{fieldname}'" in err

    def test_output_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        for a in ([0.9, 0.9, 0.9], [0.2, 0.2, 0.2]):  # a report, then an infeasible error document
            f = write_json(tmp_path / "m.json", {"n": 3, "a": a})
            code, out, err = run(capsys, "estimate", "--input", f, "--output", str(target))
            assert code == 1, a
            assert out == ""
            assert str(target) in err

    def test_missing_input_file(self, tmp_path, capsys):
        code, out, err = run(capsys, "estimate", "--input", str(tmp_path / "absent.json"))
        assert code == 1
        assert out == ""
        assert "'<file>'" in err

    def test_not_json_at_all(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        # the last two are JSON, but Python refuses int literals over 4300
        # digits and nesting deeper than its recursion limit
        for text in ("not json", '{"n": 1, "a": [1' + "0" * 5000 + "]}", "[" * 10**5 + "]" * 10**5):
            f.write_text(text, encoding="utf-8")
            code, _, err = run(capsys, "estimate", "--input", str(f))
            assert code == 1
            assert "JSON" in err

    def test_shots_beyond_int64(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [0.9, 0.9], "shots": [2**63, 1]})
        code, _, _ = run(capsys, "estimate", "--input", f, "--json")
        assert code == 0

    @given(measurement_documents())
    @example({"n": 1, "a": [0.5], "shots": [2**63]})
    @example({"n": 2, "a": [0.9, 0.9], "meta": {"x": float("nan")}})
    @settings(max_examples=300)
    def test_fuzzed_documents_exit_cleanly(self, doc):
        # small n only: the n >= 14,285 report still fails to serialize
        with tempfile.TemporaryDirectory() as tmp:
            f = write_json(Path(tmp) / "m.json", doc)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["estimate", "--input", f, "--json"])
        assert code in (0, 1, 2)
        assert (out.getvalue() == "") == (code == 1), err.getvalue()
        if code != 1:
            strict_json(out.getvalue())

    def test_output_file_round_trips(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [0.93, 0.87], "delta_a": [0.01, 0.02]})
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "estimate", "--input", f, "--output", str(out_path))
        assert code == 0
        parsed = json.loads(out_path.read_text())
        record, graph, meta, digest = load_measurement(f)
        rebuilt = build_report(record, graph, meta, digest)
        assert parsed == rebuilt  # lossless serialization, full float precision

    def test_graph_scopes_pairwise_warning(self, tmp_path, capsys):
        doc = {"n": 3, "a": [0.9, 0.45, 0.45]}
        f = write_json(tmp_path / "m.json", doc)
        _, out, _ = run(capsys, "estimate", "--input", f, "--json")
        assert any("sum below 1" in w for w in json.loads(out)["warnings"])
        doc["graph"] = {"n": 3, "edges": [[0, 1], [0, 2]]}  # star: 1-2 not an edge
        f2 = write_json(tmp_path / "m2.json", doc)
        _, out2, _ = run(capsys, "estimate", "--input", f2, "--json")
        assert not any("sum below 1" in w for w in json.loads(out2)["warnings"])

    def test_human_readable_output(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [0.9, 0.9]})
        code, out, _ = run(capsys, "estimate", "--input", f)
        assert code == 0
        assert "p_min" in out and "s_max" in out


class TestSimulate:
    def test_exact_shots(self, tmp_path, capsys):
        out = tmp_path / "meas.json"
        code, _, _ = run(
            capsys, "simulate", "--graph", "path-2", "--gamma-t", "0.1",
            "--shots", "exact", "--output", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["a"] == [math.exp(-0.1)] * 2
        assert doc["delta_a"] == [0.0, 0.0]
        truth = json.loads((tmp_path / "meas.truth.json").read_text())
        assert round(truth["purity_exact"], 4) == 0.8269
        assert round(truth["entropy_exact"], 4) == 0.3827

    def test_no_noise(self, tmp_path, capsys):
        out = tmp_path / "meas.json"
        run(capsys, "simulate", "--graph", "path-4", "--gamma-t", "0", "--output", str(out))
        assert json.loads(out.read_text())["a"] == [1.0] * 4

    def test_sampled_records_are_deterministic(self, tmp_path, capsys):
        args = ("simulate", "--graph", "ring-3", "--gamma-t", "0.2",
                "--shots", "2000", "--seed", "11")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, *args, "--output", str(out1))
        run(capsys, *args, "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["shots"] == [2000] * 3
        assert doc["meta"]["seed"] == 11
        assert doc["meta"]["rng"] == "numpy-pcg64"

    def test_simulated_file_feeds_estimate(self, tmp_path, capsys):
        out = tmp_path / "meas.json"
        run(capsys, "simulate", "--graph", "path-3", "--gamma-t", "0.1",
            "--shots", "10000", "--seed", "5", "--output", str(out))
        code, text, _ = run(capsys, "estimate", "--input", str(out), "--json")
        assert code == 0
        report = json.loads(text)
        assert report["meta"]["gamma_t"] == 0.1
        assert report["p_lower"] <= report["p_min"] <= report["p_upper"]

    def test_invalid_graph(self, tmp_path, capsys):
        float_vertex = write_json(tmp_path / "g.json", {"n": 2, "edges": [[0, 1.9]]})
        for spec in ("blob-3", float_vertex):
            code, _, err = run(capsys, "simulate", "--graph", spec, "--gamma-t", "0.1",
                               "--output", str(tmp_path / "x.json"))
            assert code == 1, spec
            assert "graph" in err
        assert not (tmp_path / "x.json").exists()

    def test_graph_file(self, tmp_path, capsys):
        g = write_json(tmp_path / "g.json", {"n": 2, "edges": [[0, 1]]})
        out = tmp_path / "meas.json"
        code, _, _ = run(capsys, "simulate", "--graph", g, "--gamma-t", "0.1",
                         "--output", str(out))
        assert code == 0

    def test_negative_seed(self, tmp_path, capsys):
        for shots in ("exact", "100"):
            code, _, err = run(capsys, "simulate", "--graph", "path-2", "--gamma-t", "0.1",
                               "--shots", shots, "--seed", "-1", "--output", str(tmp_path / "x.json"))
            assert code == 1, shots
            assert "--seed" in err
        assert not (tmp_path / "x.json").exists()

    def test_output_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "s.json"
        code, _, err = run(capsys, "simulate", "--graph", "path-2", "--gamma-t", "0.1",
                           "--output", str(target))
        assert code == 1
        assert str(target) in err

    def test_bad_shots_value(self, tmp_path, capsys):
        for shots in ("many", "0", str(2**63), "100000000000000000000"):
            code, _, err = run(capsys, "simulate", "--graph", "path-2", "--gamma-t", "0.1",
                               "--shots", shots, "--output", str(tmp_path / "x.json"))
            assert code == 1, shots
            assert "--shots" in err
        assert not (tmp_path / "x.json").exists()

    def test_negative_gamma_t(self, tmp_path, capsys):
        # NaN fails a plain "< 0" test and inf passes it, so both need their
        # own case; the exact and the sampled path must reject them before
        # computing anything
        for gamma_t in ("-0.1", "nan", "inf"):
            for shots in ("exact", "100"):
                code, _, err = run(capsys, "simulate", "--graph", "path-2", "--gamma-t", gamma_t,
                                   "--shots", shots, "--output", str(tmp_path / "x.json"))
                assert code == 1, (gamma_t, shots)
                assert "gamma-t" in err


class TestReproduceTables:
    def test_all_rows_match(self, capsys):
        code, out, _ = run(capsys, "reproduce-tables", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        by_n = {row["n"]: row for row in doc["rows"]}
        assert by_n[3]["purity"]["exact_4dp"] == 0.7520
        assert by_n[3]["purity"]["estimated_4dp"] == 0.7417
        assert by_n[3]["purity"]["deviation_4dp"] == 0.0137
        assert by_n[4]["entropy"]["exact_4dp"] == 0.7653
        assert by_n[4]["entropy"]["estimated_4dp"] == 0.7505
        assert by_n[4]["entropy"]["deviation_4dp"] == 0.0193
        assert by_n[2]["purity"]["deviation_4dp"] == 0.0044

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "reproduce-tables")
        assert code == 0
        assert "0.8269" in out and "0.6646" in out

    def test_output_file_matches_json_stdout(self, tmp_path, capsys):
        target = tmp_path / "tables.json"
        code, out, _ = run(capsys, "reproduce-tables", "--json", "--output", str(target))
        assert code == 0
        assert target.read_bytes() == out.encode("utf-8")

    def test_rows_helper(self):
        rows = reference_table()["rows"]
        assert [r["n"] for r in rows] == [2, 3, 4]
        for r in rows:
            assert r["purity"]["matches"] and r["entropy"]["matches"]


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--trials", "6", "--seed", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["qp"]["max_abs_gap"] <= 1e-6
        assert doc["entropy"]["max_abs_gap"] <= 1e-6
        assert doc["integrator"]["max_abs_dev"] <= 1e-8

    def test_integrator_runs_at_every_size(self, capsys):
        # every size in the range is integrated, so the check never passes empty
        code, out, _ = run(capsys, "oracle-check", "--trials", "4", "--n-min", "5", "--n-max", "6", "--json")
        assert code == 0
        integrator = json.loads(out)["integrator"]
        assert integrator["path_sizes"] == [5, 6]
        assert 0.0 < integrator["max_abs_dev"] <= 1e-8

    def test_zero_trials(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--trials", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True and doc["trials"] == 0

    def test_replay_is_deterministic(self, tmp_path, capsys):
        # a record where the closed form is a strict upper bound: the replayed
        # "gap" breaches the tolerance reproducibly
        f = write_json(tmp_path / "inst.json",
                       {"kind": "qp", "n": 2, "a": [0.9, 0.05], "gap": None})
        code1, out1, _ = run(capsys, "oracle-check", "--input", f)
        code2, out2, _ = run(capsys, "oracle-check", "--input", f)
        assert code1 == code2 == 3
        assert json.loads(out1)["gap"] == json.loads(out2)["gap"] > 1e-6

    @pytest.mark.parametrize("kind", ["qp", "entropy"])
    def test_replay_answers_a_signed_record_as_its_magnitudes(self, tmp_path, capsys, kind):
        results = []
        for a in ([0.9, -0.5], [0.9, 0.5]):
            f = write_json(tmp_path / "inst.json", {"kind": kind, "n": 2, "a": a})
            code, out, _ = run(capsys, "oracle-check", "--input", f)
            assert code == 0
            results.append(json.loads(out))
        assert results[0] == results[1]

    def test_replay_within_tolerance(self, tmp_path, capsys):
        f = write_json(tmp_path / "inst.json",
                       {"kind": "integrator", "n": 2, "gamma_t": 0.1})
        code, out, _ = run(capsys, "oracle-check", "--input", f)
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize(
        "doc, fieldname",
        [
            ([1, 2], "<file>"),
            ({"n": 2, "a": [0.9, 0.8]}, "kind"),
            ({"kind": "qp", "a": [0.9, 0.8]}, "n"),
            ({"kind": "qp", "n": 2}, "a"),
            ({"kind": "qp", "n": 12, "a": [0.9] * 12}, "n"),
            ({"kind": "qp", "n": 0, "a": []}, "n"),
            ({"kind": "qp", "n": True, "a": [0.9]}, "n"),
            ({"kind": "qp", "n": 2.0, "a": [0.9, 0.8]}, "n"),
            ({"kind": "qp", "n": 2, "a": [0.9]}, "a"),
            ({"kind": "qp", "n": 2, "a": [0.9, -1.5]}, "a"),
            ({"kind": "entropy", "n": 2, "a": [0.9, 1.5]}, "a"),
            ({"kind": "entropy", "n": 2, "a": [0.9, "x"]}, "a"),
            ({"kind": "integrator", "n": 2}, "gamma_t"),
            ({"kind": "integrator", "n": 2, "gamma_t": -0.1}, "gamma_t"),
            ({"kind": "integrator", "n": 2, "gamma_t": float("nan")}, "gamma_t"),
            ({"kind": "integrator", "n": 2, "gamma_t": "0.1"}, "gamma_t"),
            ({"kind": "integrator", "n": 11, "gamma_t": 0.1}, "n"),
            ({"kind": "integrator", "n": 2, "gamma_t": 1e7}, "gamma_t"),
        ],
    )
    def test_replay_rejects_malformed(self, tmp_path, capsys, doc, fieldname):
        f = write_json(tmp_path / "inst.json", doc)
        code, out, err = run(capsys, "oracle-check", "--input", f)
        assert code == 1
        assert out == ""
        assert f"'{fieldname}'" in err

    def test_replay_kind_of_any_json_type(self, tmp_path, capsys):
        for kind in ([1], {"qp": 1}, 3, None):  # lists and objects are unhashable
            f = write_json(tmp_path / "inst.json", {"kind": kind, "n": 2, "a": [0.9, 0.8]})
            code, out, err = run(capsys, "oracle-check", "--input", f)
            assert (code, out) == (1, ""), kind
            assert "'kind'" in err

    def test_replay_infeasible_record(self, tmp_path, capsys):
        # sum(a) = 0.3 < n - 2: no closed-form p_min to compare the QP with
        f = write_json(tmp_path / "inst.json", {"kind": "qp", "n": 3, "a": [0.1, 0.1, 0.1]})
        code, out, err = run(capsys, "oracle-check", "--input", f)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # S_max has no feasibility gate, so the entropy replay still answers
        assert replay_instance({"kind": "entropy", "n": 3, "a": [0.1, 0.1, 0.1]})["ok"]

    def test_replay_helper_kinds(self):
        assert replay_instance({"kind": "entropy", "n": 2, "a": [0.9, 0.8]})["ok"]
        with pytest.raises(Exception, match="kind"):
            replay_instance({"kind": "nope"})

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--n-min", "5", "--n-max", "3")
        assert code == 1
        assert "n-min" in err

    def test_negative_seed(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--trials", "1", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "--seed" in err

    def test_negative_trials(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--trials", "-5")
        assert code == 1
        assert out == ""
        assert "--trials" in err

    def test_failure_file_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(oracle.TOLERANCES, "qp", -1.0)  # every trial breaches
        target = tmp_path / "failure.json"
        code, out, err = run(capsys, "oracle-check", "--trials", "3", "--n-max", "3",
                             "--failure-output", str(target))
        assert code == 3
        assert "suboptimal band:" in out and "TOLERANCE BREACH" in out
        assert str(target) in err
        written = json.loads(target.read_text(encoding="utf-8"))
        code, out, _ = run(capsys, "oracle-check", "--input", str(target))
        assert code == 3
        replayed = json.loads(out)
        assert replayed["kind"] == written["kind"] == "qp"
        assert replayed["gap"].hex() == written["gap"].hex()

    def test_failure_output_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(oracle.TOLERANCES, "qp", -1.0)  # every trial breaches
        target = tmp_path / "missing" / "failure.json"
        code, _, err = run(capsys, "oracle-check", "--trials", "1", "--n-max", "2",
                           "--failure-output", str(target))
        assert code == 1
        assert str(target) in err


SIMULATE = ("simulate", "--graph", "path-2", "--output", "x.json")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["estimate"],
            ["estimate", "--input", "m.json", "--bogus"],
            ["estimate", "--input", "m.json", "--no-certificate"],  # removed: every report has its verdict
            [*SIMULATE],
            [*SIMULATE, "--gamma-t", "abc"],
            [*SIMULATE, "--gamma-t", "0.1", "--seed", "1.5"],
            [*SIMULATE, "--gamma-t", "0.1", "--bogus"],
            ["reproduce-tables", "--bogus"],
            ["oracle-check", "--trials", "abc"],
            ["oracle-check", "--n-min"],
            ["oracle-check", "--bogus"],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # argparse's own exit code 2 would read as an infeasible record
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "usage:" in err

    def test_readme_synopsis_names_every_option(self):
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
        named = {}
        for line in block.splitlines():
            command = line.split("#", 1)[0]
            words = command.split()
            if words[:1] == ["stabpurity"]:
                named.setdefault(words[1], set()).update(re.findall(r"--[a-z-]+", command))
        (commands,) = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        parsed = {
            name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
            for name, sub in commands.items()
        }
        assert named == parsed

    def test_help_and_version_exit_0(self, capsys):
        for argv in (["--version"], ["--help"], ["oracle-check", "--help"]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out


class TestReportPrecision:
    def test_floats_survive_json(self, tmp_path):
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [A01, A01]})
        record, graph, meta, digest = load_measurement(f)
        report = build_report(record, graph, meta, digest)
        text = json.dumps(report)
        assert json.loads(text)["p_min"] == report["p_min"]  # full 17-digit round trip
        assert json.loads(text) == report
