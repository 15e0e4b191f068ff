'''
Exact rational bilinear-form algebra for divisor classes.

Everything downstream (nef tests, Zariski decompositions, volume integrals,
wall coefficients) reduces to arithmetic in a finite-rank lattice with a
Q-valued symmetric pairing. All scalars are fractions.Fraction, computed
through integer numerators over common denominators; no floats appear
anywhere in this module.
'''
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Sequence


class EngineError(Exception):
    '''base class for computational failures (as opposed to bad input)'''


class SingularSystem(EngineError):
    '''linear system without a unique solution'''


def rational(x: int | str | Fraction) -> Fraction:
    '''
    parse a rational from an int, a Fraction or a "p/q" / "n" string

    TESTS:
        >>> rational("-3/4")
        Fraction(-3, 4)
        >>> rational(7)
        Fraction(7, 1)
    '''
    # a Fraction is immutable: hand it back rather than copy it
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise ValueError(f'not a rational: {x!r}')
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f'zero denominator in {x!r}') from None
    raise ValueError(f'not a rational: {x!r}')


def rational_str(x: Fraction) -> str:
    '''render a rational as "p/q", or "n" when the denominator is 1'''
    return str(x)


def rational_vector(xs: Iterable[int | str | Fraction]) -> tuple[Fraction, ...]:
    return tuple(rational(x) for x in xs)


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


@dataclass(frozen=True)
class IntersectionLattice:
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
    names: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def scaled_gram(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        '''(d, rows): the Gram matrix as integer rows over one denominator d'''
        return integral_matrix(self.gram)

    def __post_init__(self):
        r = len(self.names)
        if len(set(self.names)) != r:
            raise ValueError('duplicate basis names')
        if len(self.gram) != r or any(len(row) != r for row in self.gram):
            raise ValueError(f'gram matrix is not {r} x {r}')

    @classmethod
    def from_rows(cls, names: Sequence[str],
                  rows: Sequence[Sequence[int | str | Fraction]]) -> 'IntersectionLattice':
        return cls(tuple(names), tuple(rational_vector(row) for row in rows))

    @classmethod
    def diagonal(cls, names: Sequence[str],
                 entries: Sequence[int | str | Fraction]) -> 'IntersectionLattice':
        ents = rational_vector(entries)
        rows = tuple(tuple(ents[i] if i == j else Fraction(0) for j in range(len(ents)))
                     for i in range(len(ents)))
        return cls(tuple(names), rows)

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f'no basis vector {name!r}; have {list(self.names)}') from None

    def div(self, coords: Sequence[int | str | Fraction]) -> 'DivClass':
        cs = rational_vector(coords)
        if len(cs) != self.rank:
            raise ValueError(f'expected {self.rank} coordinates, got {len(cs)}')
        return DivClass(self, cs)

    def basis(self, name: str) -> 'DivClass':
        i = self.index(name)
        return self.div(tuple(1 if j == i else 0 for j in range(self.rank)))

    def zero(self) -> 'DivClass':
        return self.div((0,) * self.rank)


@dataclass(frozen=True)
class DivClass:
    '''divisor class: a coordinate vector over an owning lattice'''
    lattice: IntersectionLattice
    coords: tuple[Fraction, ...]

    @cached_property
    def numerators(self) -> tuple[int, tuple[int, ...]]:
        '''(d, ns): the coordinates as integer numerators over one denominator'''
        return integral(self.coords)

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


@dataclass(frozen=True)
class LatticeReport:
    '''outcome of validate_lattice; empty ``failures`` means the lattice passed'''
    signature: tuple[int, int, int]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def signature(rows: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
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
    symmetric = all(lat.gram[i][j] == lat.gram[j][i]
                    for i in range(lat.rank) for j in range(lat.rank))
    if not symmetric:
        failures.append('gram matrix is not symmetric')
        return LatticeReport((0, 0, 0), tuple(failures))
    sig = signature(lat.gram)
    if sig != (1, lat.rank - 1, 0):
        failures.append(f'signature {sig} is not (1, {lat.rank - 1}, 0)')
    return LatticeReport(sig, tuple(failures))


def bareiss(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]
            ) -> tuple[int, list[list[int]], bool]:
    '''
    fraction-free (Bareiss 1968) solve of an integer square system

    ``cols`` has one row per equation and one entry per right-hand side.
    Returns ``(det, ys, negative_definite)``: the solution is ys / det with
    det > 0 (det is the last pivot, +-det(rows)), and ``negative_definite``
    says whether rows, a symmetric matrix, is negative definite.  Without a
    row exchange the k-th pivot is the k-th leading principal minor, so by
    Sylvester's criterion on -rows that holds iff the k-th pivot has sign
    (-1)^k for every k; a zero pivot, which needs an exchange, means it is
    not.  Each pivot divides the next step exactly, and back substitution
    stays in integers because det * x is integral (Cramer's rule).  Raises
    SingularSystem when rows is singular.

    TESTS:
        >>> bareiss([[-2, 1], [1, -2]], [[-1], [0]])
        (3, [[2], [1]], True)
    '''
    n = len(rows)
    a = [[*row, *b] for row, b in zip(rows, cols)]
    definite = True
    prev = 1
    for k in range(n):
        top = a[k]
        if top[k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                raise SingularSystem(f'no pivot in column {k}')
            a[k], a[piv] = a[piv], top
            top = a[k]
            definite = False
        p = top[k]
        # the (k+1)-th pivot must have sign (-1)^(k+1)
        if (p < 0) != (k % 2 == 0):
            definite = False
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
        return -prev, [[-y for y in yi] for yi in ys], definite
    return prev, ys, definite


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
    det, ys, _ = bareiss([r[:n] for r in aug], [r[n:] for r in aug])
    out = tuple([tuple([Fraction(v, det) for v in yi]) for yi in ys])
    return out if several else tuple([x for (x,) in out])
