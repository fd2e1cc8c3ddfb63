"""Every module's __all__ names only what the module defines, and cover
keeps no second power path."""

import importlib
import pkgutil

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
