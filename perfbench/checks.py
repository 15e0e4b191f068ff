'''
Inputs and output checks for the three workloads.

Every check here runs after the ops it judges, outside their timing.  The
zariski invariants are recomputed with this file's own exact arithmetic over
the model's Gram matrix; only the inputs (lattice, generators, pullback of
-K) are read from kwall.
'''
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# the seed's wall table size and the sha256 of its 45 "id A S beta" lines
WALL_COUNT = 24
WALLS_DIGEST = '59e053f9832c729da90cb714db97a65b768c9d08053f06941e1ccfd7797ba9a1'


# -- walls ---------------------------------------------------------------

def _affine(f) -> str:
    return f'{f.const} {f.slope}'


def walls_pass_failures(cat, results, log_discrepancy) -> set[int]:
    '''indices of failed ops in one pass over the catalog

    ``results`` holds, per fixture in catalog order, either (beta, WallSolve)
    or the exception the op raised.  A wrong wall table or digest fails the
    whole pass, since it means some op returned a wrong margin.
    '''
    failed = set()
    lines, roots = [], set()
    for i, (f, res) in enumerate(zip(cat.fixtures, results)):
        if isinstance(res, BaseException):
            failed.add(i)
            continue
        b, sol = res
        a = log_discrepancy(f.pair, f.valuation)
        s = a - b
        exp = f.expected
        if (sol.root != exp.wall or a != exp.log_discrepancy
                or exp.vanishing_order not in (None, s)
                or exp.margin not in (None, b)):
            failed.add(i)
        if sol.root is not None:
            roots.add(sol.root)
        lines.append(f'{f.id} {_affine(a)} {_affine(s)} {_affine(b)}')
    digest = hashlib.sha256('\n'.join(lines).encode()).hexdigest()
    if (len(results) != len(cat.fixtures) or len(roots) != WALL_COUNT
            or sorted(roots) != list(cat.wall_table.walls) or digest != WALLS_DIGEST):
        failed = set(range(len(cat.fixtures)))
    return failed


# -- zariski -------------------------------------------------------------

def _dot(x, y) -> Fraction:
    return sum((a * b for a, b in zip(x, y) if a and b), Fraction(0))


def _is_negative_definite(m) -> bool:
    '''Sylvester via elimination on -m: every pivot must be positive'''
    a = [[-x for x in row] for row in m]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return True


class ModelData:
    '''one surface model in the benchmark's own arithmetic'''

    def __init__(self, model):
        self.model = model
        gram = model.lattice.gram
        self.gens = [(n, c.coords) for n, c in model.mori_gens]
        self.index = {n: i for i, (n, _) in enumerate(self.gens)}
        # G c for each generator, so x . c is one dot product
        self.gc = [tuple(_dot(row, c) for row in gram) for _, c in self.gens]
        self.gg = [[_dot(c, gc) for gc in self.gc] for _, c in self.gens]
        k = len(self.gens)
        # generators pairing >= 0 with every other one (acceptance criterion 5)
        self.pool = [i for i in range(k)
                     if all(self.gg[i][j] >= 0 for j in range(k) if j != i)]
        self.ac = model.anticanonical_pullback.coords

    def zariski_failure(self, d, res) -> str | None:
        '''first broken invariant of a Zariski decomposition, or None'''
        p = res.positive.coords
        support = [(self.index.get(n), a) for n, a in res.negative_support]
        idx = [i for i, _ in support]
        if None in idx or len(set(idx)) != len(idx):
            return 'support names unknown or repeated generators'
        if any(a <= 0 for _, a in support):
            return 'support coefficient not positive'
        total = list(p)
        for i, a in support:
            total = [t + a * x for t, x in zip(total, self.gens[i][1])]
        if tuple(total) != tuple(d):
            return 'P + N != D'
        for j, gc in enumerate(self.gc):
            pc = _dot(p, gc)
            if pc < 0 or (j in idx and pc != 0):
                return f'P . {self.gens[j][0]} = {pc}'
        if not _is_negative_definite([[self.gg[i][j] for j in idx] for i in idx]):
            return 'support Gram matrix not negative definite'
        return None


class ClassStream:
    '''distinct pseudo-effective classes, drawn from a seed round-robin over
    the surfaces the way acceptance criterion 5 draws them

    A surface whose draws keep repeating (p2 has one generator and only a
    few dozen classes) leaves the rotation.
    '''
    TRIES = 50

    def __init__(self, surfaces, seed: int):
        self.rng = random.Random(seed)
        self.models = [ModelData(m) for m in surfaces]
        self.seen: set[int] = set()
        self.turn = 0

    def _draw(self, md):
        rng, d = self.rng, [Fraction(0)] * len(md.ac)
        for i in md.pool:
            if rng.random() < 0.5:
                k = Fraction(rng.randint(0, 5), rng.randint(1, 3))
                d = [x + k * c for x, c in zip(d, md.gens[i][1])]
        if rng.random() < 0.4:
            k = rng.randint(1, 3)
            d = [x + k * c for x, c in zip(d, md.ac)]
        return tuple(d)

    def take(self, n: int) -> list:
        '''next n (ModelData, coordinates) pairs'''
        out = []
        while len(out) < n and self.models:
            self.turn %= len(self.models)
            md = self.models[self.turn]
            for _ in range(self.TRIES):
                d = self._draw(md)
                key = hash((md.model.name, d))
                if any(d) and key not in self.seen:
                    self.seen.add(key)
                    out.append((md, d))
                    self.turn += 1
                    break
            else:
                del self.models[self.turn]
        if len(out) < n:
            raise RuntimeError('class stream exhausted')
        return out


# -- cli -----------------------------------------------------------------

REFERENCE_PATH = HERE / 'cli_reference.json'


def cli_mix(cat) -> dict[str, list[tuple[str, ...]]]:
    '''every command the cli mix can draw, by kind; one cycle draws one
    command of each kind'''
    zariski = []
    for m in cat.surfaces:
        md = ModelData(m)
        # the same generators the zariski workload samples from
        for div in ('ac', '2ac', *(md.gens[i][0] for i in md.pool)):
            zariski.append(('zariski', m.name, div))
    return {
        'fixtures': [('fixtures', 'list')],
        'surface': [('surface', 'show', m.name) for m in cat.surfaces],
        'beta': [('beta', f.id) for f in cat.fixtures],
        'profile': [('profile', f.id) for f in cat.fixtures],
        'zariski': zariski,
        'walls': [('walls', '--diff', '--json')],
    }


def report_digest(stdout: bytes) -> str:
    '''sha256 of a report without its catalog-path line, which names the
    checkout the report was made in'''
    keep = [ln for ln in stdout.split(b'\n')
            if not ln.strip().startswith((b'catalog: ', b'"catalog": '))]
    return hashlib.sha256(b'\n'.join(keep)).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
