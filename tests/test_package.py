"""The package's public surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import greycast

MODULES = ("accumulation", "datasets", "metrics", "models", "order_search", "reference", "sweep")


def test_all_is_every_module_export_once():
    expected = ["errors"]
    for name in MODULES:
        expected += importlib.import_module(f"greycast.{name}").__all__
    expected.append("__version__")
    assert greycast.__all__ == expected
    assert len(set(greycast.__all__)) == len(greycast.__all__)
    for name in greycast.__all__:
        assert hasattr(greycast, name), name


def test_bare_import_reaches_every_submodule():
    # a fresh interpreter, so no other test has imported a submodule first
    script = "import sys, greycast\n" + "".join(
        f"assert greycast.{name} is sys.modules['greycast.{name}']\n"
        for name in (*MODULES, "errors")
    )
    src = str(Path(greycast.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, check=True
    )
