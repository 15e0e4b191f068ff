'''the benchmark's traced run binds engine functions by name'''

import ast
import importlib
import inspect
from pathlib import Path

import kwall

PERFBENCH = Path(__file__).resolve().parents[1] / 'perfbench'
SPANS = PERFBENCH / 'spans.py'


def _traced() -> dict:
    '''the TRACED literal of perfbench/spans.py, read without importing it'''
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ['TRACED']:
            return ast.literal_eval(node.value)
    raise AssertionError(f'{SPANS} has no TRACED assignment')


def test_every_traced_name_is_an_engine_function():
    '''the traced run and perfbench/selfcheck.py wrap each name and read its
    __code__, so each must stay a plain function defined in its own module'''
    package = Path(kwall.__file__).resolve().parent
    traced = _traced()
    assert traced
    for mod_name, names in traced.items():
        mod = importlib.import_module(mod_name)
        for name in names:
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn), f'{mod_name}.{name}'
            assert fn.__module__ == mod_name, f'{mod_name}.{name}'
            where = Path(fn.__code__.co_filename).resolve().parent
            assert where == package, f'{mod_name}.{name}'


def test_the_benchmarks_walls_pass_runs_clean(monkeypatch):
    '''perfbench/run.py reads each fixture's pair range, its expected values
    and the wall table by name, so a rename that every other test misses
    would fail each of its ops'''
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module('run')
    tally = run.Tally()
    run.walls_pass(tally)
    assert (tally.attempted, tally.failed) == (45, 0)
