'''
brute-force Zariski oracle

Independent of the chamber walk in kwall.positivity and of kwall's compiled
integer tables: pairings, negative definiteness and inverses are computed
here with plain Fraction arithmetic over the model's Gram matrix.  The oracle
enumerates every negative definite subset of the declared generators, solves
the orthogonality system with a precomputed inverse, and keeps the subsets
whose candidate P clears all invariants.  All surviving subsets must share
one P.

``profile_failures`` is the matching reference check on a volume profile,
in plain Fraction arithmetic over its pieces, and ``printed_margin`` the
display normal form the catalog's printed margins are checked against.
'''
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from kwall.catalog import CatalogError
from kwall.lattice import rational
from kwall.stability import AffineRatFn


def reference_pair(gram, x, y):
    '''x . y for coordinate vectors x, y under a Gram matrix'''
    return sum((xi * gij * yj for xi, row in zip(x, gram)
                for gij, yj in zip(row, y)), Fraction(0))


def _negative_definite(m):
    '''Sylvester's criterion on -m: every elimination pivot must be positive'''
    a = [[-Fraction(x) for x in row] for row in m]
    for k in range(len(a)):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return True


def _inverse(m):
    '''Gauss-Jordan inverse of a nonsingular matrix'''
    k = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(m)]
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[k:] for row in a]


class ZariskiOracle:
    def __init__(self, model):
        self.model = model
        self.names = list(model.gen_names)
        self.classes = [c for _, c in model.mori_gens]
        n = len(self.classes)
        self.lattice_gram = model.lattice.gram
        self.gram = [[self._pair(a, b) for b in self.classes] for a in self.classes]
        self.subsets = []
        for k in range(model.lattice.rank):
            for idx in combinations(range(n), k):
                sub = [[self.gram[i][j] for j in idx] for i in idx]
                if _negative_definite(sub):
                    self.subsets.append((idx, _inverse(sub) if idx else []))

    def _pair(self, a, b):
        return reference_pair(self.lattice_gram, a.coords, b.coords)

    def decompose(self, d):
        '''all (support dict, P) candidates passing every invariant'''
        pd = [self._pair(d, c) for c in self.classes]
        found = []
        for idx, inv in self.subsets:
            rhs = [pd[i] for i in idx]
            a = [sum(row[j] * rhs[j] for j in range(len(idx))) for row in inv]
            if any(x < 0 for x in a):
                continue
            ok = True
            for j in range(len(self.classes)):
                if pd[j] - sum(ai * self.gram[i][j] for ai, i in zip(a, idx)) < 0:
                    ok = False
                    break
            if not ok:
                continue
            p = d
            for ai, i in zip(a, idx):
                p = p - ai * self.classes[i]
            found.append(({self.names[i]: ai for ai, i in zip(a, idx) if ai != 0}, p))
        return found

    def positive_part(self, d):
        '''unique nef part, or None when no subset works (not pseudo-effective)'''
        found = self.decompose(d)
        if not found:
            return None
        p0 = found[0][1]
        assert all(p == p0 for _, p in found), f'oracle ambiguous for {d}'
        return p0


def _derivative(piece, t):
    '''vol'(t) of one profile piece'''
    _, q1, q2 = piece.coeffs
    return q1 + 2 * q2 * t


def profile_failures(profile, degree=None):
    '''
    what is wrong with a volume profile, read off its Fractions: the pieces
    must tile [0, tau] without gaps, join continuously, never increase, and
    vanish at tau; with ``degree``, the volume at 0 must equal it
    '''
    out = []
    if not profile.pieces:
        return ('profile has no pieces',)
    if profile.pieces[0].t_lo != 0:
        out.append('profile does not start at 0')
    if profile.pieces[-1].t_hi != profile.tau:
        out.append('last piece does not end at tau')
    prev = None
    for p in profile.pieces:
        if not p.t_lo < p.t_hi:
            out.append(f'empty piece at {p.t_lo}')
        if prev is not None:
            if prev.t_hi != p.t_lo:
                out.append(f'gap between {prev.t_hi} and {p.t_lo}')
            elif prev.value(p.t_lo) != p.value(p.t_lo):
                out.append(f'discontinuity at {p.t_lo}')
        if _derivative(p, p.t_lo) > 0 or _derivative(p, p.t_hi) > 0:
            out.append(f'volume increases on [{p.t_lo}, {p.t_hi}]')
        prev = p
    if profile.pieces[-1].value(profile.tau) != 0:
        out.append('volume does not vanish at tau')
    if degree is not None and profile.pieces[0].value(Fraction(0)) != degree:
        out.append('volume at 0 does not match the degree')
    return tuple(out)


def printed_margin(margin: AffineRatFn, scale=1) -> str:
    '''
    display normal form ``g(nc-m)/d`` of a scaled margin

    Keeps the integer content g outside the bracket so the root m/n stays
    readable.  Only meant for rising margins with a positive root, which is
    what every displayed catalog cell is.

    TESTS::

        >>> printed_margin(AffineRatFn('-23/30', '76/30'), 2)
        '(76c-23)/15'
        >>> printed_margin(AffineRatFn('-4/15', '38/15'))
        '2(19c-2)/15'
    '''
    c0 = rational(margin.const) * rational(scale)
    c1 = rational(margin.slope) * rational(scale)
    if c1 <= 0 or c0 >= 0:
        raise CatalogError(f'margin {margin} has no display normal form')
    d = lcm(c0.denominator, c1.denominator)
    n, m = int(c1 * d), int(-c0 * d)
    g = gcd(n, m)
    lead = '' if g == 1 else str(g)
    tail = '' if d == 1 else f'/{d}'
    return f'{lead}({n // g}c-{m // g}){tail}'
