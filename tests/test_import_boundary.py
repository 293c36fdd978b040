"""Which submodules a CLI command loads, the package's public names, and the
third-party packages that the source and tests may import.

``import finecert`` loads no submodule; a public name is resolved, and its
submodule loaded, on first use. Each CLI command loads only the submodules
it calls, and only a command that draws a random basis imports
``numpy.random``. The subprocess checks run the command as
``python -m finecert`` does and record the ``finecert.*`` and
``numpy.random`` entries of ``sys.modules`` at exit.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import finecert

SRC = os.path.dirname(os.path.dirname(os.path.abspath(finecert.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))

#: The names ``finecert/__init__.py`` imported eagerly from each submodule.
EXPORTS = {
    "numerics": (
        "SpectralDecomposition",
        "binary_entropy",
        "check_density_matrix",
        "check_state_vector",
        "hermitian_eig",
        "projector",
        "shannon_entropy",
        "von_neumann_entropy",
    ),
    "mub": (
        "MubFamily",
        "MubVerification",
        "is_prime",
        "mub_family",
        "mub_vector",
        "verify_mub",
    ),
    "qubit": (
        "AverageCertainty",
        "PairCertainty",
        "TriplePauliBound",
        "average_certainty",
        "bloch_to_state",
        "pair_bound",
        "pair_certainty",
        "pauli_eigenbasis",
        "pauli_outcome_projector",
        "spin_projector",
        "spin_up_probability",
        "state_to_bloch",
        "triple_pauli_bound",
    ),
    "bounds": (
        "CertaintyBound",
        "GridSearchResult",
        "HypersphericalAngles",
        "MeasurementEnsemble",
        "all_outcome_pairs_bound",
        "certainty_operator",
        "hyperspherical_state",
        "lhs_value",
        "measurement_ensemble",
        "mub_pair_bound",
        "mub_pair_ensemble",
        "pauli_pair_ensemble",
        "pauli_triple_ensemble",
        "zeta_gridsearch",
        "zeta_spectral",
    ),
    "cycle": (
        "CycleConfig",
        "MembraneLayout",
        "ScanReport",
        "WorkReport",
        "chamber_distribution",
        "component_state",
        "component_states",
        "cycle_config",
        "delta_w",
        "haar_random_basis",
        "scan_bases",
        "singleton_arguments",
        "work_extraction_w1",
        "work_retrieval_w2",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]

RUN_AND_LIST = """
import json, runpy, sys
try:
    runpy.run_module("finecert", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("finecert.") or m == "numpy.random")
sys.stderr.write(json.dumps({"code": code, "loaded": loaded}) + "\\n")
"""


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


def loaded_by(*argv: str) -> set:
    proc = fresh_python(RUN_AND_LIST, *argv)
    report = json.loads(proc.stderr.rstrip("\n").rpartition("\n")[2])
    assert report["code"] == 0, proc.stderr
    return {name.removeprefix("finecert.") for name in report["loaded"]}


@pytest.mark.parametrize(
    "argv, needed, absent",
    [
        (("mub", "3"), {"cli", "numerics", "qubit", "mub"}, {"bounds", "cycle", "sampling"}),
        (("bound", "--pauli-triple"), {"cli", "qubit", "mub", "bounds"}, {"cycle", "sampling"}),
        (("scan-alpha", "--steps", "3"), {"cli", "numerics", "qubit"}, {"mub", "bounds", "cycle"}),
        (("cycle", "--d", "3"), {"cli", "mub", "bounds", "cycle", "sampling"}, {"numpy.random"}),
        (("cycle", "--d", "3", "--samples", "4"), {"cycle", "sampling", "numpy.random"}, set()),
    ],
)
def test_command_loads_only_what_it_calls(argv, needed, absent):
    loaded = loaded_by(*argv)
    assert needed <= loaded
    assert not absent & loaded


def test_import_loads_no_submodule_until_a_name_is_used():
    code = """
import json, sys
import finecert
before = sorted(m for m in sys.modules if m.startswith("finecert."))
finecert.mub_family
after = sorted(m for m in sys.modules if m.startswith("finecert."))
print(json.dumps([before, after]))
"""
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert before == []
    assert after == ["finecert.mub", "finecert.numerics", "finecert.qubit"]


@pytest.mark.parametrize("module, name", NAMES)
def test_public_name_is_the_submodule_object(module, name):
    assert getattr(finecert, name) is getattr(importlib.import_module(f"finecert.{module}"), name)
    assert name in finecert.__all__
    assert name in dir(finecert)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_submodule_attribute_is_the_module(module):
    assert getattr(finecert, module) is importlib.import_module(f"finecert.{module}")
    assert module in dir(finecert)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from finecert import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(sys.modules[f"finecert.{module}"], name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        finecert.no_such_name
    assert not hasattr(finecert, "_EXPORTS_TYPO")
    assert finecert.__version__ == "0.1.0"


#: Installed in some environments but declared by no dependency in
#: ``pyproject.toml``, so an import of either fails on a clean install.
UNDECLARED = {"scipy", "sympy"}


def imported_packages(path: str) -> set:
    """The top-level names of the absolute imports in the file at ``path``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def python_files(*roots: str) -> list:
    return sorted(
        os.path.join(folder, name)
        for root in roots
        for folder, _, files in os.walk(root)
        for name in files
        if name.endswith(".py")
    )


def test_no_source_or_test_file_imports_an_undeclared_package():
    files = python_files(os.path.join(SRC, "finecert"), TESTS)
    assert os.path.join(TESTS, "test_references.py") in files
    found = {path: sorted(imported_packages(path) & UNDECLARED) for path in files}
    assert {path: names for path, names in found.items() if names} == {}
