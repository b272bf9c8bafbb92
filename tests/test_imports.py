"""The package's import graph: a bare package, estimate, simulate,
reproduce-tables and an oracle-check refusal without numpy, numpy imported by
the dense modules alone, no module reaching into another's private names, no
module importing a name it never reads, no exception class that is never
raised, and no docstring naming a private name or cross-referencing an object
its module lacks."""

import ast
import builtins
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stabpurity

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
SRC = str(Path(stabpurity.__file__).resolve().parent.parent)

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

    def test_stabilizer_module_loads_no_other_module_and_no_numpy(self):
        # estimate imports GraphSpec from here, so no dense helper may live here
        loaded = "sorted(m for m in sys.modules if 'numpy' in m or m.startswith('stabpurity'))"
        proc = _python("-c", f"import sys, stabpurity.stabilizer; print({loaded})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['stabpurity', 'stabpurity.stabilizer']"


class TestNoNumpy:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["estimate", "--input", str(GOLDEN_INPUTS / "n10.json"), "--json"], 0),
            (["estimate", "--input", str(GOLDEN_INPUTS / "seeded-06.json")], 0),
            (["estimate", "--input", str(GOLDEN_INPUTS / "n11.json"), "--json"], 0),
            (["estimate", "--input", str(GOLDEN_INPUTS / "infeasible.json"), "--json"], 2),
            (["estimate", "--input", str(GOLDEN_INPUTS / "graph-path-3.json"), "--json"], 0),
        ],
        ids=["json", "text", "above-dense-cap", "infeasible", "graph"],
    )
    def test_estimate(self, argv, code):
        assert _probe(argv) == {"code": code, "numpy": False}

    @pytest.mark.parametrize("argv", [["reproduce-tables"], ["reproduce-tables", "--json"]], ids=["text", "json"])
    def test_reproduce_tables(self, argv):
        assert _probe(argv) == {"code": 0, "numpy": False}

    def test_oracle_check_refusal(self):
        assert _probe(["oracle-check", "--seed", "-1"]) == {"code": 1, "numpy": False}

    def test_exact_simulate(self, tmp_path):
        argv = ["simulate", "--graph", "ring-6", "--gamma-t", "0.3", "--output", str(tmp_path / "m.json")]
        assert _probe(argv) == {"code": 0, "numpy": False}
        assert (tmp_path / "m.truth.json").exists()

    def test_sampled_simulate(self, tmp_path):
        argv = ["simulate", "--graph", "path-4", "--gamma-t", "0.1", "--shots", "100"]
        argv += ["--output", str(tmp_path / "m.json")]
        assert _probe(argv) == {"code": 0, "numpy": False}

    def test_oracle_check_uses_numpy(self):
        # the probe itself works: a numpy path is reported as one
        assert _probe(["oracle-check", "--trials", "1", "--n-min", "2", "--n-max", "2"]) == {"code": 0, "numpy": True}

    def test_estimate_never_loads_the_sampler(self):
        # only simulate --shots compiles the pure-Python binomial stream
        argv = ["estimate", "--input", str(GOLDEN_INPUTS / "n10.json"), "--json"]
        proc = _python("-c", _PROBE + "print('stabpurity.pcg64' in sys.modules, file=sys.stderr)", *argv)
        assert proc.stderr.strip().splitlines()[-1] == "False"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_another_modules_private_name():
    offences = []
    for path in sorted(Path(stabpurity.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("stabpurity")):
                where = "." * node.level + (node.module or "")
                offences += [f"{path.name}: {alias.name} from {where}" for alias in node.names if _private(alias.name)]
            elif isinstance(node, ast.Import):
                offences += [
                    f"{path.name}: {alias.name}" for alias in node.names
                    if alias.name.startswith("stabpurity") and any(map(_private, alias.name.split(".")))
                ]
    assert offences == []


def test_only_diagonal_and_oracle_import_numpy():
    # at any depth: a function-level or TYPE_CHECKING import counts as well
    importers = set()
    for path in Path(stabpurity.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.add(path.name)
    assert sorted(importers) == ["diagonal.py", "oracle.py"]


def test_dataclass_only_where_a_check_needs_it():
    """No module uses ``from __future__`` or ``typing.Optional``, and ``@dataclass``
    decorates exactly five types; plain results are named tuples.  The reasons:

    - GraphSpec, MeasurementRecord, CoeffVector and Spectrum validate in
      ``__post_init__``, which ``dataclasses.replace`` re-runs and a named
      tuple's _replace would skip;
    - bench/spans.py also wraps MeasurementRecord.__init__ as the
      estimator.record layer;
    - PurityEstimate has no check: bench/selfcheck.py copies one with
      ``dataclasses.replace``, so a benchmark change that drops that call frees it.
    """
    futures, optional, decorated = [], [], []
    for path in sorted(Path(stabpurity.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                futures.append(path.name)
            elif "Optional" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                optional.append(path.name)
            elif isinstance(node, ast.ClassDef):
                names = [ast.unparse(d).split("(")[0].split(".")[-1] for d in node.decorator_list]
                decorated += [node.name] * names.count("dataclass")
    assert (futures, optional) == ([], [])
    assert sorted(decorated) == ["CoeffVector", "GraphSpec", "MeasurementRecord", "PurityEstimate", "Spectrum"]


def test_no_module_imports_an_unused_name():
    unused = []
    for path in sorted(Path(stabpurity.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


def _package_trees() -> list:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in Path(stabpurity.__file__).parent.glob("*.py")]


def _exception_classes(trees) -> list:
    """The class definitions in ``trees`` that derive, at any depth, from a builtin exception."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    while new := {c.name for c in classes if c.name not in exceptions
                  and any(isinstance(base, ast.Name) and base.id in exceptions for base in c.bases)}:
        exceptions |= new
    return [c for c in classes if c.name in exceptions]


def test_every_exception_class_is_raised():
    """Every exception class the package defines appears in a ``raise`` of the
    package, so no exception type outlives the code that raised it."""
    trees = _package_trees()
    raised = {
        getattr(node.func if isinstance(node, ast.Call) else node, "id", None)
        for tree in trees
        for node in (stmt.exc for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise))
    }
    assert sorted(c.name for c in _exception_classes(trees) if c.name not in raised) == []


def test_every_exception_attribute_is_read():
    """An attribute an exception class of the package stores on ``self`` is read
    as ``.name`` somewhere in the package, the benchmark or the tests."""
    stored = {
        (c.name, node.attr)
        for c in _exception_classes(_package_trees())
        for node in ast.walk(c)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    root = Path(__file__).parent.parent
    read = {
        node.attr
        for tree in ("src", "bench", "tests")
        for path in (root / tree).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(f"{cls}.{attr}" for cls, attr in stored if attr not in read) == []


def package_docstrings():
    """(file name, module, docstring) for every docstring of every package module."""
    for path in sorted(Path(stabpurity.__file__).parent.glob("*.py")):
        module = importlib.import_module("stabpurity" if path.stem == "__init__" else f"stabpurity.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, module, ast.get_docstring(node) or ""


def test_docstrings_name_only_existing_private_names():
    """A double-backquoted private name (``_name``) in a docstring of a package
    module is an attribute of that module, so a removed constant or helper
    leaves no stale reference behind."""
    stale = [
        f"{name}: {ref}"
        for name, module, doc in package_docstrings()
        for ref in re.findall(r"``(_\w+)``", doc)
        if not hasattr(module, ref)
    ]
    assert stale == []


def test_docstring_cross_references_resolve():
    """A :func:, :class: or :meth: reference in a docstring of a package module
    names an attribute (dotted for a method) of that module, so a deleted
    public name leaves no stale reference behind."""

    def resolves(module, ref: str) -> bool:
        owner = module
        for part in ref.split("."):
            owner = getattr(owner, part, None)
        return owner is not None

    refs = [
        (name, module, ref)
        for name, module, doc in package_docstrings()
        for ref in re.findall(r":(?:func|class|meth):`~?([\w.]+)`", doc)
    ]
    assert refs  # the pattern still matches the package's reference style
    assert [f"{name}: {ref}" for name, module, ref in refs if not resolves(module, ref)] == []


def test_readme_library_example_runs():
    """The README's library example imports and calls only names that exist."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    # the estimate and the numeric QP of the same signed record agree
    assert min(ns["record"].a) < 0.0
    assert ns["check"].objective == pytest.approx(ns["est"].p_min, abs=1e-12)
    assert 0.0 <= ns["ent"].s_lower <= ns["ent"].s_max
