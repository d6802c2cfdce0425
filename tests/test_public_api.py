"""Public API surface integrity."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.matrix",
    "repro.baselines",
    "repro.datasets",
    "repro.mining",
    "repro.experiments",
    "repro.runtime",
    "repro.observe",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_is_sorted_and_unique(package_name):
    package = importlib.import_module(package_name)
    exports = list(package.__all__)
    assert exports == sorted(exports), package_name
    assert len(exports) == len(set(exports)), package_name


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_top_level_quickstart_names():
    """The names the README quickstart uses must stay exported."""
    import repro

    for name in (
        "BinaryMatrix",
        "find_implication_rules",
        "find_similarity_rules",
        "PruningOptions",
        "BitmapConfig",
        "load_dataset",
        "mine",
        "MiningConfig",
        "MiningResult",
        "RunObserver",
    ):
        assert hasattr(repro, name)


def test_every_public_module_has_a_docstring():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "src"
    for path in root.rglob("*.py"):
        source = path.read_text(encoding="utf-8")
        stripped = source.lstrip()
        assert stripped.startswith('"""') or stripped.startswith(
            "'''"
        ), f"{path} lacks a module docstring"


def test_cli_entry_point_importable():
    from repro.cli import main

    assert callable(main)


def test_cli_import_leaves_networkx_unloaded():
    """Neither networkx nor scipy loads with the CLI: rule grouping
    imports scipy's csgraph where it computes components, so a CLI
    call or a ``repro serve`` spawn does not pay for it at start-up."""
    import os
    import pathlib
    import subprocess
    import sys

    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(
        pathlib.Path(__file__).resolve().parent.parent / "src"
    )
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; "
         "print('networkx' in sys.modules, 'scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=environment,
    )
    assert loaded.stdout.strip() == "False False"

