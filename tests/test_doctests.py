'''the doctests in every module's docstrings'''

import doctest
import importlib

import pytest

MODULES = ('kwall.lattice', 'kwall.surface', 'kwall.positivity',
           'kwall.stability', 'kwall.catalog', 'kwall.cli')


@pytest.mark.parametrize('name', MODULES)
def test_module_doctests(name):
    failed, attempted = doctest.testmod(importlib.import_module(name))
    assert failed == 0 and attempted >= 2
