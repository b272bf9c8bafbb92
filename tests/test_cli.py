import json
import math

import pytest

from stabpurity.cli import (
    build_report,
    load_measurement,
    main,
    reference_table_rows,
    replay_instance,
)

A01 = math.exp(-0.1)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert report["feasible"] is True
        assert report["signs_flipped"] == "00"

    def test_perfect_record(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 3, "a": [1, 1, 1]})
        code, out, _ = run(capsys, "estimate", "--input", f, "--json")
        report = json.loads(out)
        assert code == 0
        assert report["p_min"] == 1.0
        assert report["s_lower"] == 0.0
        assert report["s_max"] == 0.0

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
        ],
    )
    def test_malformed_inputs_name_the_field(self, tmp_path, capsys, doc, fieldname):
        f = write_json(tmp_path / "bad.json", doc)
        code, _, err = run(capsys, "estimate", "--input", f)
        assert code == 1
        assert f"'{fieldname}'" in err

    def test_not_json_at_all(self, tmp_path, capsys):
        f = tmp_path / "junk.json"
        f.write_text("not json", encoding="utf-8")
        code, _, err = run(capsys, "estimate", "--input", str(f))
        assert code == 1
        assert "JSON" in err

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

    def test_no_certificate_flag(self, tmp_path, capsys):
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [0.9, 0.9]})
        _, out, _ = run(capsys, "estimate", "--input", f, "--json", "--no-certificate")
        assert json.loads(out)["certificate"] is None

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
        code, _, err = run(capsys, "simulate", "--graph", "blob-3", "--gamma-t", "0.1",
                           "--output", str(tmp_path / "x.json"))
        assert code == 1
        assert "graph" in err

    def test_graph_file(self, tmp_path, capsys):
        g = write_json(tmp_path / "g.json", {"n": 2, "edges": [[0, 1]]})
        out = tmp_path / "meas.json"
        code, _, _ = run(capsys, "simulate", "--graph", g, "--gamma-t", "0.1",
                         "--output", str(out))
        assert code == 0

    def test_bad_shots_value(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--graph", "path-2", "--gamma-t", "0.1",
                           "--shots", "many", "--output", str(tmp_path / "x.json"))
        assert code == 1
        assert "shots" in err

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

    def test_rows_helper(self):
        rows = reference_table_rows()
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
            ({"kind": "qp", "n": 2, "a": [0.9, -0.5]}, "a"),
            ({"kind": "entropy", "n": 2, "a": [0.9, 1.5]}, "a"),
            ({"kind": "entropy", "n": 2, "a": [0.9, "x"]}, "a"),
            ({"kind": "integrator", "n": 2}, "gamma_t"),
            ({"kind": "integrator", "n": 2, "gamma_t": -0.1}, "gamma_t"),
            ({"kind": "integrator", "n": 2, "gamma_t": float("nan")}, "gamma_t"),
            ({"kind": "integrator", "n": 2, "gamma_t": "0.1"}, "gamma_t"),
            ({"kind": "integrator", "n": 9, "gamma_t": 0.1}, "n"),
            ({"kind": "integrator", "n": 2, "gamma_t": 1e7}, "gamma_t"),
        ],
    )
    def test_replay_rejects_malformed(self, tmp_path, capsys, doc, fieldname):
        f = write_json(tmp_path / "inst.json", doc)
        code, out, err = run(capsys, "oracle-check", "--input", f)
        assert code == 1
        assert out == ""
        assert f"'{fieldname}'" in err

    def test_replay_helper_kinds(self):
        assert replay_instance({"kind": "entropy", "n": 2, "a": [0.9, 0.8]})["ok"]
        with pytest.raises(Exception, match="kind"):
            replay_instance({"kind": "nope"})

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--n-min", "5", "--n-max", "3")
        assert code == 1
        assert "n-min" in err


class TestReportPrecision:
    def test_floats_survive_json(self, tmp_path):
        f = write_json(tmp_path / "m.json", {"n": 2, "a": [A01, A01]})
        record, graph, meta, digest = load_measurement(f)
        report = build_report(record, graph, meta, digest)
        text = json.dumps(report)
        assert json.loads(text)["p_min"] == report["p_min"]  # full 17-digit round trip
        assert json.loads(text) == report
