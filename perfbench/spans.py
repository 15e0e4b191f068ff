'''
Span wrappers for the traced run.

The wrappers live only in the benchmark: ``installed(tracer)`` rebinds every
traced kwall function in every kwall module namespace that holds it (``pair``
is imported by name into four modules, so patching ``kwall.lattice`` alone
would miss most calls), and restores the originals on exit.  Untraced runs
never install anything, so they pay nothing.

Spans are aggregated per function as they close: call count, total time and
the time covered by child spans, so self time is total minus children.
'''
from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns

# module -> public functions wrapped in the traced run
TRACED = {
    'kwall.lattice': ('pair', 'solve_linear', 'signature'),
    'kwall.surface': ('surface_from_doc', 'pullback_weil', 'contraction_orders',
                      'build_blowup_extension'),
    'kwall.positivity': ('volume_profile', 'zariski_decompose', 'is_nef',
                         'integrate_profile'),
    'kwall.stability': ('beta', 'solve_wall'),
    'kwall.catalog': ('load_catalog',),
    'kwall.cli': ('main',),
}

# stderr marker for span summaries written by traced child processes
SUMMARY_MARK = 'perfbench-spans '


class Tracer:
    '''per-function span aggregates plus the two value counters the layer
    table needs: largest bit size returned by pair, chambers walked'''

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.child_ns = defaultdict(int)
        self.pair_max_bits = 0
        self.chambers = 0
        self._open: list[int] = []   # child time of each open span

    def wrap(self, name: str, fn):
        @wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self.calls[name] += 1
                self.total_ns[name] += dt
                self.child_ns[name] += self._open.pop()
                if self._open:
                    self._open[-1] += dt
            if name == 'lattice.pair':
                bits = max(out.numerator.bit_length(), out.denominator.bit_length())
                if bits > self.pair_max_bits:
                    self.pair_max_bits = bits
            elif name == 'positivity.volume_profile':
                self.chambers += len(out.pieces)
            return out
        return span

    def summary(self) -> dict:
        '''plain-data totals: name -> (calls, total s, self s), plus counters'''
        spans = {n: (self.calls[n], self.total_ns[n] / 1e9,
                     (self.total_ns[n] - self.child_ns[n]) / 1e9)
                 for n in self.calls}
        return {'spans': spans, 'pair_max_bits': self.pair_max_bits,
                'chambers': self.chambers}


def _kwall_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == 'kwall' or n.startswith('kwall.'))]


@contextmanager
def installed(tracer: Tracer):
    '''wrap every TRACED function in every kwall namespace that binds it'''
    # keyed by id: module namespaces also hold unhashable values
    originals = {}
    for mod_name, names in TRACED.items():
        mod = importlib.import_module(mod_name)
        for fn_name in names:
            fn = getattr(mod, fn_name)
            originals[id(fn)] = (fn, tracer.wrap(f'{mod_name[6:]}.{fn_name}', fn))
    patched = []
    for mod in _kwall_modules():
        for attr, val in list(vars(mod).items()):
            hit = originals.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, val))
    try:
        yield tracer
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)
