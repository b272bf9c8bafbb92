"""The package's import graph: lazy exports, and estimate and exact simulate without numpy."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabpurity

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
SRC = str(Path(stabpurity.__file__).resolve().parent.parent)

#: What ``stabpurity`` exported when every submodule was imported eagerly.
EXPORTS = {
    "diagonal": [
        "CoeffVector", "Spectrum", "assemble_dense", "coefficients", "eigenvalues", "entropy",
        "purity", "twirl", "twirl_average", "walsh_hadamard_inplace",
    ],
    "errors": [
        "CertificateInvalid", "DenseCapExceeded", "InfeasibleRecord", "NonPhysicalSpectrum",
        "NonUnitTrace", "NotConverged", "StabPurityError",
    ],
    "estimator": [
        "EntropyEstimate", "KktCertificate", "MeasurementRecord", "PurityEstimate", "binary_entropy",
        "closed_form_is_optimal", "entropy_lower_bound", "entropy_max", "estimate_entropy",
        "kkt_certificate", "min_purity", "min_purity_coefficients", "normalize_signs",
        "pairwise_sums_ok", "purity_error_bars",
    ],
    "oracle": [
        "ORACLE_CAP", "QpSolution", "graph_state_vector", "master_equation_evolve",
        "max_entropy_numeric", "qp_min_purity",
    ],
    "simulator": [
        "dephased_coefficients", "exact_entropy_dephased", "exact_purity_dephased", "exact_record",
        "sample_measurements",
    ],
    "stabilizer": [
        "DENSE_CAP", "GraphSpec", "PauliString", "dense_matrix", "expectation_value", "generators",
        "stabilizer_element",
    ],
}

#: Runs ``cli.main`` on the given arguments, then reports its exit code and
#: whether numpy was imported, as the last line of stderr.
_PROBE = """
import json, sys
from stabpurity.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


def _python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def _probe(argv) -> dict:
    proc = _python("-c", _PROBE, *argv)
    return json.loads(proc.stderr.strip().splitlines()[-1])


class TestLazyExports:
    def test_every_name_is_the_defining_modules_object(self):
        assert sorted(stabpurity.__all__) == sorted(name for names in EXPORTS.values() for name in names)
        for module, names in EXPORTS.items():
            home = importlib.import_module(f"stabpurity.{module}")
            assert getattr(stabpurity, module) is home
            for name in names:
                assert getattr(stabpurity, name) is getattr(home, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            stabpurity.no_such_name
        with pytest.raises(ImportError):
            from stabpurity import no_such_name  # noqa: F401

    def test_bare_import_loads_no_submodule_and_no_numpy(self):
        loaded = "sorted(m for m in sys.modules if 'numpy' in m or m.startswith('stabpurity.'))"
        proc = _python("-c", f"import sys, stabpurity; print({loaded})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestNoNumpy:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["estimate", "--input", str(GOLDEN_INPUTS / "n10.json"), "--json"], 0),
            (["estimate", "--input", str(GOLDEN_INPUTS / "seeded-06.json")], 0),
            (["estimate", "--input", str(GOLDEN_INPUTS / "n11.json"), "--json", "--no-certificate"], 0),
            (["estimate", "--input", str(GOLDEN_INPUTS / "infeasible.json"), "--json"], 2),
            (["estimate", "--input", str(GOLDEN_INPUTS / "graph-pairwise-warning.json"), "--json"], 0),
        ],
        ids=["json", "text", "no-certificate", "infeasible", "graph"],
    )
    def test_estimate(self, argv, code):
        assert _probe(argv) == {"code": code, "numpy": False}

    def test_exact_simulate(self, tmp_path):
        argv = ["simulate", "--graph", "ring-6", "--gamma-t", "0.3", "--output", str(tmp_path / "m.json")]
        assert _probe(argv) == {"code": 0, "numpy": False}
        assert (tmp_path / "m.truth.json").exists()

    def test_sampled_simulate_still_uses_numpy(self, tmp_path):
        # the probe itself works: a numpy path is reported as one
        argv = ["simulate", "--graph", "path-4", "--gamma-t", "0.1", "--shots", "100"]
        argv += ["--output", str(tmp_path / "m.json")]
        assert _probe(argv) == {"code": 0, "numpy": True}
