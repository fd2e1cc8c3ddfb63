"""Every module's __all__ names only what the module defines, cover keeps
no second power path, and the CLI imports no package beyond numpy."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import stabdyn
from stabdyn import cover

MODULES = sorted(m.name for m in pkgutil.iter_modules(stabdyn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_of_every_module(name):
    namespace = {}
    exec("from stabdyn.%s import *" % name, namespace)
    module = importlib.import_module("stabdyn." + name)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_cover_keeps_no_second_power_path():
    assert "orbit" not in cover.__all__ and not hasattr(cover, "orbit")
    assert not hasattr(cover, "_walk")


def _non_stdlib_modules(statement):
    """Top-level modules outside the standard library after a fresh
    interpreter runs statement."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = statement + ("\nimport sys\nprint(' '.join({m.partition('.')[0] for m in sys.modules}"
                        " - set(sys.stdlib_module_names)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    return set(proc.stdout.split())


def test_cli_import_adds_only_numpy_and_stabdyn():
    # every cold `stabdyn` call pays this import; site hooks may preload
    # packages of their own, hence the comparison with a bare start
    added = _non_stdlib_modules("import stabdyn.cli") - _non_stdlib_modules("pass")
    assert added == {"numpy", "stabdyn"}
