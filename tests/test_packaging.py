"""The source distribution is built from ``pyproject.toml`` alone."""

import shutil
import subprocess
import sys
import tarfile
from pathlib import Path
from types import ModuleType

import ehrhart

ROOT = Path(__file__).resolve().parents[1]


def test_sdist_ships_python_sources_and_data_only(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "README.md", tmp_path)
    shutil.copytree(
        ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    build = "from setuptools import build_meta; print(build_meta.build_sdist('dist'))"
    done = subprocess.run(
        [sys.executable, "-c", build], cwd=tmp_path, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    sdist = tmp_path / "dist" / done.stdout.split()[-1]
    with tarfile.open(sdist) as tar:
        files = [m.name.split("/", 1)[1] for m in tar.getmembers() if m.isfile()]
    assert "README.md" in files
    # Python sources only: no kernel source to compile, and the PTE table
    # is a literal in ``pte.py``, not a data file
    package = {f for f in files if f.startswith("src/ehrhart/")}
    assert package and all(f.endswith(".py") for f in package)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks from loading either module first; -B writes no bytecode
    check = "import sys, ehrhart.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-c", check],
        env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_package_exports_the_pinned_public_names():
    # a deliberate API change edits this pin; submodules, which importing
    # them binds on the package, are not exports
    names = [n for n, v in vars(ehrhart).items() if not isinstance(v, ModuleType)]
    assert sorted(n for n in names if not n.startswith("_")) == [
        "AffineSubspace", "BudgetExceeded", "ConvexPolytope", "DimensionMismatch",
        "EhrhartError", "EhrhartSeries", "IndexSequence", "Infeasible", "McMullenReport",
        "NotAvailable", "PolytopalUnion", "PteSolution", "QuasiPolynomial",
        "SizeMismatch", "UnverifiedSolution", "VerificationFailed", "chain_check",
        "coefficient_period", "count", "count_convex", "count_union", "denominator",
        "equivalent", "faces", "fit", "fitted", "from_quasipolynomial", "from_vertices",
        "index_sequence", "is_integral", "kernel_name", "mcmullen_check",
        "min_dilate_with_lattice_point", "negate", "period_sequence", "power_sum", "product",
        "product_identity_check", "pyramid_transform", "series_equivalent", "table_lookup",
    ]
