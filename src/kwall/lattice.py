'''
Exact rational bilinear-form algebra for divisor classes.

Everything downstream (nef tests, Zariski decompositions, volume integrals,
wall coefficients) reduces to arithmetic in a finite-rank lattice with a
Q-valued symmetric pairing. All scalars are fractions.Fraction, computed
through integer numerators over common denominators; no floats appear
anywhere in this module.
'''
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


class Frozen:
    '''
    base of the engine's value objects: __init__ sets the attributes once,
    and assigning or deleting one afterwards raises AttributeError

    Objects compare by identity unless their class defines __eq__ and
    __hash__ over the attributes that make its value.
    '''

    def __setattr__(self, name, value):
        raise AttributeError(f'cannot assign {name!r}: {type(self).__name__} is immutable')

    def __delattr__(self, name):
        raise AttributeError(f'cannot delete {name!r}: {type(self).__name__} is immutable')


class EngineError(Exception):
    '''base class for computational failures (as opposed to bad input)'''


class SingularSystem(EngineError):
    '''linear system without a unique solution'''


def ratio(x: int | str | Fraction) -> tuple[int, int]:
    '''
    (n, d) in lowest terms with x = n / d and d > 0, from an int, a Fraction
    or a string

    A string is read as Fraction reads it, an integer, "p/q" or a decimal
    such as "-1.25", with an optional sign, single underscores between
    digits and whitespace around, but without exponent notation: "1e9" is
    refused, so that a short string never stands for a huge integer.

    TESTS:
        >>> ratio(" -6/4 ")
        (-3, 2)
        >>> ratio("1_0.25")
        (41, 4)
        >>> ratio("1e3")
        Traceback (most recent call last):
        ...
        ValueError: not a rational: '1e3'
    '''
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        num, slash, den = x.strip().partition('/')
        try:
            if not slash:
                # int() reads the integers; Fraction reads the decimals
                if '.' in num and 'e' not in num and 'E' not in num:
                    f = Fraction(num)
                    return f.numerator, f.denominator
                return int(num), 1
            signed = num[:1] in ('+', '-')
            n, d = _digits(num[signed:]), _digits(den)
        except ValueError:
            raise ValueError(f'not a rational: {x!r}') from None
        if d == 0:
            raise ValueError(f'zero denominator in {x!r}')
        g = gcd(n, d)
        return (-n if num[:1] == '-' else n) // g, d // g
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f'not a rational: {x!r}')
    return x.numerator, x.denominator


def _digits(s: str) -> int:
    '''a run of decimal digits with single underscores between them'''
    if not (s[:1].isdecimal() and s[-1:].isdecimal()):
        raise ValueError(s)
    return int(s)


def _fraction(n: int, d: int) -> Fraction:
    '''the Fraction n / d, for d > 0'''
    return Fraction(n) if d == 1 else Fraction(n, d)


def rational(x: int | str | Fraction) -> Fraction:
    '''
    parse a rational from an int, a Fraction or a string (see ``ratio``)

    TESTS:
        >>> rational("-3/4")
        Fraction(-3, 4)
        >>> rational(7)
        Fraction(7, 1)
    '''
    # a Fraction is immutable: hand it back rather than copy it
    if type(x) is Fraction:
        return x
    return _fraction(*ratio(x))


def rational_str(x: Fraction) -> str:
    '''render a rational as "p/q", or "n" when the denominator is 1'''
    return str(x)


def _exact_vector(xs: Iterable[int | str | Fraction]
                  ) -> tuple[tuple[Fraction, ...], int, tuple[int, ...]]:
    '''
    (fs, d, ns): xs as Fractions, and as integer numerators ns over their
    least common denominator d

    TESTS:
        >>> _exact_vector(['1/2', -1, '2/3'])
        ((Fraction(1, 2), Fraction(-1, 1), Fraction(2, 3)), 6, (3, -6, 4))
    '''
    fs, ps, qs = [], [], []
    for x in xs:
        if type(x) is Fraction:
            f, p, q = x, x.numerator, x.denominator
        else:
            p, q = ratio(x)
            f = _fraction(p, q)
        fs.append(f)
        ps.append(p)
        qs.append(q)
    d = lcm(*qs)
    return tuple(fs), d, tuple([p * (d // q) for p, q in zip(ps, qs)])


def integral(xs: Iterable[int | Fraction]) -> tuple[int, tuple[int, ...]]:
    '''
    (d, ns) with xs = ns / d: integer numerators over the least common
    denominator

    TESTS:
        >>> integral([Fraction(1, 2), Fraction(-1, 3), 4])
        (6, (3, -2, 24))
    '''
    # built from lists: a tuple grown from a generator is resized as it
    # grows, and the interpreter then keeps the discarded ones in its tuple
    # free lists, which costs resident memory on hot paths
    xs = list(xs)
    d = lcm(*[x.denominator for x in xs])
    return d, tuple([x.numerator * (d // x.denominator) for x in xs])


def integral_matrix(rows: Sequence[Sequence[int | Fraction]]
                    ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    '''(d, ns) with rows = ns / d: integer rows over one common denominator'''
    n = len(rows)
    d, flat = integral(x for row in rows for x in row)
    w = len(flat) // n if n else 0
    return d, tuple([flat[i * w:(i + 1) * w] for i in range(n)])


class IntersectionLattice(Frozen):
    '''
    rank-r lattice with a Q-valued symmetric pairing and named basis vectors

    Fields:
        - ``names`` -- basis labels, one per row of the Gram matrix
        - ``gram`` -- r x r matrix of rationals

    TESTS:
        >>> lat = IntersectionLattice.diagonal(("h", "e1"), (1, -1))
        >>> lat.rank
        2
        >>> pair(lat.basis("h"), lat.basis("h"))
        Fraction(1, 1)
    '''

    def __init__(self, names: tuple[str, ...], gram: tuple[tuple[Fraction, ...], ...]):
        r = len(names)
        if len(set(names)) != r:
            raise ValueError('duplicate basis names')
        if len(gram) != r or any(len(row) != r for row in gram):
            raise ValueError(f'gram matrix is not {r} x {r}')
        vars(self).update(names=names, gram=gram)

    def __eq__(self, other):
        if type(other) is not IntersectionLattice:
            return NotImplemented
        return (self.names, self.gram) == (other.names, other.gram)

    def __hash__(self):
        return hash((self.names, self.gram))

    @cached_property
    def scaled_gram(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        '''(d, rows): the Gram matrix as integer rows over its least common
        denominator d'''
        return integral_matrix(self.gram)

    @classmethod
    def with_scaled_gram(cls, names: Sequence[str], gram, scaled_gram) -> 'IntersectionLattice':
        '''the lattice with the given Gram matrix and its scaled_gram, which
        must equal integral_matrix(gram)'''
        lat = cls(tuple(names), gram)
        lat.__dict__['scaled_gram'] = scaled_gram
        return lat

    @classmethod
    def from_rows(cls, names: Sequence[str],
                  rows: Sequence[Sequence[int | str | Fraction]]) -> 'IntersectionLattice':
        parsed = [_exact_vector(row) for row in rows]
        d = lcm(*[dr for _, dr, _ in parsed])
        return cls.with_scaled_gram(names, tuple([fs for fs, _, _ in parsed]), (d, tuple([
            tuple([x * (d // dr) for x in xs]) for _, dr, xs in parsed])))

    @classmethod
    def diagonal(cls, names: Sequence[str],
                 entries: Sequence[int | str | Fraction]) -> 'IntersectionLattice':
        n = len(entries)
        return cls.from_rows(names, [[x if i == j else 0 for j in range(n)]
                                     for i, x in enumerate(entries)])

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f'no basis vector {name!r}; have {list(self.names)}') from None

    def div(self, coords: Sequence[int | str | Fraction]) -> 'DivClass':
        cs, d, ns = _exact_vector(coords)
        if len(cs) != self.rank:
            raise ValueError(f'expected {self.rank} coordinates, got {len(cs)}')
        return DivClass.with_numerators(self, cs, (d, ns))

    def basis(self, name: str) -> 'DivClass':
        i = self.index(name)
        return self.div(tuple(1 if j == i else 0 for j in range(self.rank)))

    def zero(self) -> 'DivClass':
        return self.div((0,) * self.rank)


class DivClass(Frozen):
    '''divisor class: a coordinate vector over an owning lattice'''

    def __init__(self, lattice: IntersectionLattice, coords: tuple[Fraction, ...]):
        vars(self).update(lattice=lattice, coords=coords)

    def __eq__(self, other):
        if type(other) is not DivClass:
            return NotImplemented
        return (self.lattice, self.coords) == (other.lattice, other.coords)

    def __hash__(self):
        return hash((self.lattice, self.coords))

    @cached_property
    def numerators(self) -> tuple[int, tuple[int, ...]]:
        '''(d, ns): the coordinates as integer numerators over their least
        common denominator d'''
        return integral(self.coords)

    @classmethod
    def with_numerators(cls, lattice: IntersectionLattice, coords,
                        numerators: tuple[int, tuple[int, ...]]) -> 'DivClass':
        '''the class with the given coordinates and their numerators, which
        must equal integral(coords)'''
        d = cls(lattice, coords)
        d.__dict__['numerators'] = numerators
        return d

    @classmethod
    def from_numerators(cls, lattice: IntersectionLattice, d: int,
                        ns: Sequence[int]) -> 'DivClass':
        '''the class with coordinates ns / d, for d > 0'''
        g = gcd(d, *ns)
        if g != 1:
            d, ns = d // g, [n // g for n in ns]
        return cls.with_numerators(lattice, tuple([_fraction(n, d) for n in ns]),
                                   (d, tuple(ns)))

    def _check_mate(self, other: 'DivClass') -> None:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise ValueError('classes live on different lattices')

    def __add__(self, other: 'DivClass') -> 'DivClass':
        self._check_mate(other)
        return DivClass(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: 'DivClass') -> 'DivClass':
        self._check_mate(other)
        return DivClass(self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> 'DivClass':
        return DivClass(self.lattice, tuple(-a for a in self.coords))

    def scale(self, k: int | str | Fraction) -> 'DivClass':
        kk = rational(k)
        return DivClass(self.lattice, tuple(kk * a for a in self.coords))

    __mul__ = scale
    __rmul__ = scale

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        terms = [f'{rational_str(c)}*{n}' for c, n in zip(self.coords, self.lattice.names) if c != 0]
        return ' + '.join(terms) if terms else '0'


def combination(lattice: IntersectionLattice, terms) -> DivClass:
    '''
    the class sum k c over the (k, c) terms, with rational k, summed in
    integers over one common denominator

    TESTS:
        >>> lat = IntersectionLattice.diagonal(("h", "e"), (1, -1))
        >>> combination(lat, [(Fraction(1, 2), lat.div((1, 1))), (-1, lat.basis("e"))]).coords
        (Fraction(1, 2), Fraction(-1, 2))
    '''
    parts = []
    for k, c in terms:
        if c.lattice is not lattice and c.lattice != lattice:
            raise ValueError('classes live on different lattices')
        parts.append((ratio(k), c.numerators))
    d = lcm(*[q * dc for (_, q), (dc, _) in parts])
    total = [0] * lattice.rank
    for (p, q), (dc, ns) in parts:
        f = p * (d // (q * dc))
        total = [t + f * n for t, n in zip(total, ns)]
    return DivClass.from_numerators(lattice, d, total)


def pair(a: DivClass, b: DivClass) -> Fraction:
    '''
    intersection number a.b, exact

    TESTS:
        >>> lat = IntersectionLattice.diagonal(("h", "e1", "e2"), (1, -1, -1))
        >>> k = lat.div((-3, 1, 1))
        >>> pair(k, k)
        Fraction(7, 1)
    '''
    a._check_mate(b)
    dg, rows = a.lattice.scaled_gram
    da, xa = a.numerators
    db, xb = b.numerators
    total = sum(x * sum(map(mul, row, xb)) for x, row in zip(xa, rows) if x)
    return Fraction(total, dg * da * db)


class LatticeReport(Frozen):
    '''outcome of validate_lattice; empty ``failures`` means the lattice passed'''

    def __init__(self, signature: tuple[int, int, int], failures: tuple[str, ...]):
        vars(self).update(signature=signature, failures=failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def signature(rows: Sequence[Sequence[int | Fraction]]) -> tuple[int, int, int]:
    '''
    (positive, negative, zero) inertia of a symmetric rational matrix,
    via exact congruence diagonalization

    The matrix is scaled to integers by the lcm of all its denominators, a
    positive factor that keeps the inertia.  Elimination is fraction-free
    (Bareiss 1968): the trailing block after each pivot is the integer
    matrix of bordered minors, the previous pivot divides it exactly, and
    the sign of each Gaussian pivot is the sign of the ratio of two
    successive Bareiss pivots.

    TESTS:
        >>> signature([[Fraction(-2), Fraction(1)], [Fraction(1), Fraction(0)]])
        (1, 1, 0)
    '''
    n = len(rows)
    a = [list(row) for row in integral_matrix(rows)[1]]
    pos = neg = zero = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for j in range(k + 1, n):
                if a[j][k] == 0:
                    continue
                # symmetric row+column addition keeps the congruence class;
                # one of the two signs always yields a nonzero diagonal entry
                lam = 1 if 2 * a[j][k] + a[j][j] != 0 else -1
                for m in range(k, n):
                    a[k][m] += lam * a[j][m]
                for m in range(k, n):
                    a[m][k] += lam * a[m][j]
                break
        p = a[k][k]
        if p == 0:
            zero += 1
            continue
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k]
            row = a[i]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * a[k][j]) // prev
        prev = p
    return pos, neg, zero


def is_negative_definite(rows: Sequence[Sequence[Fraction]]) -> bool:
    n = len(rows)
    return signature(rows) == (0, n, 0)


def validate_lattice(lat: IntersectionLattice) -> LatticeReport:
    '''
    check symmetry and hyperbolic signature (1, rank-1)

    A projective surface lattice must carry one positive direction and
    rank-1 negative ones; anything else is a miscoded Gram matrix.
    '''
    failures: list[str] = []
    # the scaled Gram matrix is a positive multiple: same symmetry, same inertia
    rows = lat.scaled_gram[1]
    if any(rows[i][j] != rows[j][i] for i in range(lat.rank) for j in range(i)):
        failures.append('gram matrix is not symmetric')
        return LatticeReport((0, 0, 0), tuple(failures))
    sig = signature(rows)
    if sig != (1, lat.rank - 1, 0):
        failures.append(f'signature {sig} is not (1, {lat.rank - 1}, 0)')
    return LatticeReport(sig, tuple(failures))


def bareiss(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]
            ) -> tuple[int, list[list[int]]]:
    '''
    fraction-free (Bareiss 1968) solve of an integer square system

    ``cols`` has one row per equation and one entry per right-hand side.
    Returns ``(det, ys)``: the solution is ys / det with det > 0 (det is the
    last pivot, +-det(rows)).  Each pivot divides the next step exactly, and
    back substitution stays in integers because det * x is integral
    (Cramer's rule).  Raises SingularSystem when rows is singular.

    TESTS:
        >>> bareiss([[-2, 1], [1, -2]], [[-1], [0]])
        (3, [[2], [1]])
    '''
    n = len(rows)
    a = [[*row, *b] for row, b in zip(rows, cols)]
    prev = 1
    for k in range(n):
        top = a[k]
        if top[k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                raise SingularSystem(f'no pivot in column {k}')
            a[k], a[piv] = a[piv], top
            top = a[k]
        p = top[k]
        # columns up to k are never read again below the pivot row
        tail = top[k + 1:]
        for r in range(k + 1, n):
            row = a[r]
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    # ys[i][c] = prev * x[i][c], solved from the bottom row up
    ys: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        row = a[i]
        ys[i] = [(prev * b - sum([row[j] * ys[j][c] for j in range(i + 1, n)])) // row[i]
                 for c, b in enumerate(row[n:])]
    if prev < 0:
        return -prev, [[-y for y in yi] for yi in ys]
    return prev, ys


def pivot(a: list[list[int]], rows: Iterable[int], prev: int = 1) -> int:
    '''
    fraction-free Gauss-Jordan steps (Bareiss 1968) on an integer matrix
    whose leading square block S is symmetric: for each r of ``rows`` in
    turn, pivot on a[r][r] and replace every other row of ``a``, pivoted
    ones included; each division by the last pivot ``prev`` is exact

    ``prev`` is 1 on a fresh matrix.  After pivoting a set P, with p the
    last pivot (det S_PP) and x the solution of S_PP x = a_Pc, every column
    c outside P holds p x in the rows of P and p (a_jc - a_jP x), the Schur
    complement, in each other row j.  The k-th pivot is the k-th leading
    principal minor of S in pivot order, so S_PP is negative definite iff
    the pivots alternate in sign from a negative first one (Sylvester's
    criterion on -S_PP): each pivot must be nonzero with the sign opposite
    to the one before it, starting from prev = 1.  Returns the last pivot,
    or 0 at the first pivot that breaks this, leaving ``a`` part-pivoted.

    TESTS:
        >>> a = [[-2, 1, -1], [1, -2, 0]]
        >>> pivot(a, [0, 1]), a
        (3, [[3, 0, 2], [0, 3, 1]])
    '''
    for r in rows:
        top = a[r]
        p = top[r]
        if p == 0 or (p < 0) == (prev < 0):
            return 0
        for i, row in enumerate(a):
            if i != r:
                f = row[r]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return prev


def solve_linear(rows: Sequence[Sequence[Fraction]], rhs):
    '''
    exact solution of a square linear system; raises SingularSystem when the
    matrix is singular

    ``rhs`` is one right-hand side vector, or, as in numpy.linalg.solve, a
    matrix whose columns are several right-hand sides: its rows are then
    tuples or lists, and the rows of the solution are tuples.  Each row of
    the augmented matrix is scaled to integers, which keeps the solution,
    and ``bareiss`` solves every column with one elimination.

    TESTS:
        >>> solve_linear([[Fraction(-2), Fraction(1)], [Fraction(1), Fraction(-2)]],
        ...              [Fraction(-1), Fraction(0)])
        (Fraction(2, 3), Fraction(1, 3))
        >>> solve_linear([[Fraction(-2)]], [(Fraction(1), Fraction(-4))])
        ((Fraction(-1, 2), Fraction(2, 1)),)
    '''
    n = len(rows)
    if any(len(row) != n for row in rows) or len(rhs) != n:
        raise ValueError('system is not square')
    several = n > 0 and isinstance(rhs[0], (tuple, list))
    aug = [integral((*row, *(b if several else (b,))))[1] for row, b in zip(rows, rhs)]
    det, ys = bareiss([r[:n] for r in aug], [r[n:] for r in aug])
    out = tuple([tuple([Fraction(v, det) for v in yi]) for yi in ys])
    return out if several else tuple([x for (x,) in out])
