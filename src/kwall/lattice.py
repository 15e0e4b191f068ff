'''
Exact rational bilinear-form algebra for divisor classes.

Everything downstream (nef tests, Zariski decompositions, volume integrals,
wall coefficients) reduces to arithmetic in a finite-rank lattice with a
Q-valued symmetric pairing.  Every value has one exact form, integers
over one positive common denominator in lowest terms: a lattice holds its
Gram matrix, a class its coordinates that way, and both read their
Fractions off those integers only when something asks for them.  Scalars
such as pairings are fractions.Fraction; no floats appear anywhere in this
module.
'''
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


class cached_property:
    '''functools.cached_property without the lock that CPython 3.11 takes on
    every first access (3.12 dropped it): the engine's cached values are
    pure functions of their object, so a value computed twice is the same'''

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.func(obj)
        return value


class Frozen:
    '''
    base of the engine's objects: __init__ sets the attributes once, and
    assigning or deleting one afterwards raises AttributeError

    Objects compare by identity unless their class derives from Value.
    '''

    def __setattr__(self, name, value):
        raise AttributeError(f'cannot assign {name!r}: {type(self).__name__} is immutable')

    def __delattr__(self, name):
        raise AttributeError(f'cannot delete {name!r}: {type(self).__name__} is immutable')


class Value(Frozen):
    '''
    a Frozen object that compares and hashes by value: ``_value`` names the
    attributes that make it up, and an object equals another of its own
    class (or a subclass) whose listed attributes are equal
    '''
    _value: tuple[str, ...]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self._value)

    def __hash__(self):
        return hash(tuple([getattr(self, a) for a in self._value]))


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
    return Fraction(*ratio(x))


def integral(xs: Iterable[int | str | Fraction]) -> tuple[int, tuple[int, ...]]:
    '''
    (d, ns) with xs = ns / d: integer numerators over the least common
    denominator, each x read by ``ratio``

    TESTS:
        >>> integral([Fraction(1, 2), '-1/3', 4])
        (6, (3, -2, 24))
    '''
    # built from lists: a tuple grown from a generator is resized as it
    # grows, and the interpreter then keeps the discarded ones in its tuple
    # free lists, which costs resident memory on hot paths
    pqs = [ratio(x) for x in xs]
    d = lcm(*[q for _, q in pqs])
    return d, tuple([p * (d // q) for p, q in pqs])


def integral_matrix(rows: Sequence[Sequence[int | str | Fraction]]
                    ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    '''(d, ns) with rows = ns / d: integer rows over one common denominator'''
    parsed = [integral(row) for row in rows]
    d = lcm(*[dr for dr, _ in parsed])
    return d, tuple([tuple([x * (d // dr) for x in xs]) for dr, xs in parsed])


def _divisor(d: int, ns: Sequence[int]) -> int:
    '''gcd(d, *ns), signed like d: dividing d and ns by it leaves them in
    lowest terms with a positive denominator'''
    g = gcd(d, *ns)
    return -g if d < 0 else g


class IntersectionLattice(Value):
    '''
    rank-r lattice with a Q-valued symmetric pairing and named basis vectors

    Fields:
        - ``names`` -- basis labels, one per row of the Gram matrix
        - ``scaled_gram`` -- (d, rows): the Gram matrix is rows / d, with
          integer rows and d > 0 in lowest terms, so equal lattices hold
          equal integers

    ``gram``, the r x r matrix of Fractions, is read off ``scaled_gram``
    on first use.

    TESTS:
        >>> lat = IntersectionLattice.diagonal(("h", "e1"), (1, '-2/4'))
        >>> lat.rank, lat.scaled_gram
        (2, (2, ((2, 0), (0, -1))))
        >>> pair(lat.basis("h"), lat.basis("h"))
        Fraction(1, 1)
    '''
    _value = ('names', 'scaled_gram')

    def __init__(self, names: Sequence[str], d: int, rows: Sequence[Sequence[int]]):
        r = len(names)
        if len(set(names)) != r:
            raise ValueError('duplicate basis names')
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValueError(f'gram matrix is not {r} x {r}')
        g = _divisor(d, [x for row in rows for x in row])
        if g != 1:
            d, rows = d // g, [[x // g for x in row] for row in rows]
        vars(self).update(names=tuple(names),
                          scaled_gram=(d, tuple([tuple(row) for row in rows])))

    @cached_property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        '''the Gram matrix as Fractions'''
        d, rows = self.scaled_gram
        return tuple([tuple([Fraction(x, d) for x in row]) for row in rows])

    @classmethod
    def from_rows(cls, names: Sequence[str],
                  rows: Sequence[Sequence[int | str | Fraction]]) -> 'IntersectionLattice':
        return cls(names, *integral_matrix(rows))

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
        d, ns = integral(coords)
        if len(ns) != self.rank:
            raise ValueError(f'expected {self.rank} coordinates, got {len(ns)}')
        return DivClass(self, d, ns)

    def basis(self, name: str) -> 'DivClass':
        i = self.index(name)
        return self.div(tuple(1 if j == i else 0 for j in range(self.rank)))

    def zero(self) -> 'DivClass':
        return self.div((0,) * self.rank)


class DivClass(Value):
    '''
    divisor class: a coordinate vector over an owning lattice

    ``numerators`` is (d, ns): the coordinates are ns / d, with integer ns
    and d > 0 in lowest terms, so equal classes hold equal integers.
    ``coords``, the coordinates as Fractions, is read off them on first use.

    TESTS:
        >>> lat = IntersectionLattice.diagonal(("h", "e"), (1, -1))
        >>> c = DivClass(lat, -4, (2, 0))
        >>> c.numerators, c.coords
        ((2, (-1, 0)), (Fraction(-1, 2), Fraction(0, 1)))
    '''
    _value = ('lattice', 'numerators')

    def __init__(self, lattice: IntersectionLattice, d: int, ns: Sequence[int]):
        g = _divisor(d, ns)
        if g != 1:
            d, ns = d // g, [n // g for n in ns]
        vars(self).update(lattice=lattice, numerators=(d, tuple(ns)))

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        d, ns = self.numerators
        return tuple([Fraction(n, d) for n in ns])

    def _check_mate(self, other: 'DivClass') -> None:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise ValueError('classes live on different lattices')

    def __add__(self, other: 'DivClass') -> 'DivClass':
        return combination(self.lattice, [(1, self), (1, other)])

    def __sub__(self, other: 'DivClass') -> 'DivClass':
        return combination(self.lattice, [(1, self), (-1, other)])

    def __neg__(self) -> 'DivClass':
        d, ns = self.numerators
        return DivClass(self.lattice, d, [-n for n in ns])

    def scale(self, k: int | str | Fraction) -> 'DivClass':
        return combination(self.lattice, [(k, self)])

    __mul__ = scale
    __rmul__ = scale

    def is_zero(self) -> bool:
        return not any(self.numerators[1])

    def __repr__(self) -> str:
        terms = [f'{c}*{n}' for c, n in zip(self.coords, self.lattice.names) if c != 0]
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
    return DivClass(lattice, d, total)


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

    It stays separate from ``pivot``: ``validate_lattice`` reports the full
    inertia, so a zero pivot is stepped over here, where ``pivot`` stops at
    the first pivot that breaks negative definiteness.

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


def validate_lattice(lat: IntersectionLattice) -> tuple[str, ...]:
    '''
    the failures of the symmetry and hyperbolic signature (1, rank-1)
    checks, empty when the lattice passes

    A projective surface lattice must carry one positive direction and
    rank-1 negative ones; anything else is a miscoded Gram matrix.
    '''
    # the scaled Gram matrix is a positive multiple: same symmetry, same inertia
    rows = lat.scaled_gram[1]
    if any(rows[i][j] != rows[j][i] for i in range(lat.rank) for j in range(i)):
        return ('gram matrix is not symmetric',)
    sig = signature(rows)
    if sig != (1, lat.rank - 1, 0):
        return (f'signature {sig} is not (1, {lat.rank - 1}, 0)',)
    return ()


def pivot(a: list[list[int]], scales: list[int], rows: Iterable[int], prev: int = 1) -> int:
    '''
    fraction-free Gauss-Jordan steps (Bareiss 1968) on an integer matrix
    whose leading square block S is symmetric, each row at its own scale:
    for each r of ``rows`` in turn, pivot on a[r][r] and rewrite only the
    other rows whose entry in column r is not zero; each division is exact

    Row i holds scales[i] times its current value, scales[i] being the
    pivot the row was last brought to; a fresh matrix starts with every
    scale 1 and ``prev`` 1.  After pivoting a set P, with x the solution of
    S_PP x = a_Pc, every column c outside P holds the row's scale times x
    in the rows of P and times the Schur complement a_jc - a_jP x in each
    other row j.  A step on r with last pivot ``prev`` brings row r to
    prev (x * prev // scales[r]), takes p = a[r][r], and rewrites each row
    i with f = a[i][r] != 0 as (p * x - f * y) // scales[i] at scale p.
    While a row's scale is still 1 both steps skip the division, which
    would change nothing.  A row with f = 0 keeps its value, so it is left
    as it is: the same list.

    The k-th pivot is the k-th leading principal minor of S in pivot order,
    so S_PP is negative definite iff the pivots alternate in sign from a
    negative first one (Sylvester's criterion on -S_PP): each pivot must be
    nonzero with the sign opposite to the one before it, starting from
    prev = 1.  Returns the last pivot, det S_PP, or 0 at the first pivot
    that breaks this, leaving ``a`` part-pivoted.

    TESTS (row 0 has a zero factor at the second step, and keeps its scale):
        >>> a, scales = [[-2, 1, 0, 1], [1, -2, 0, 0], [0, 0, -1, 1]], [1, 1, 1]
        >>> pivot(a, scales, [0, 2]), scales
        (2, [-2, -2, 2])
        >>> a
        [[-2, 1, 0, 1], [0, 3, 0, -1], [0, 0, 2, -2]]
    '''
    for r in rows:
        top = a[r]
        if scales[r] != prev:
            d = scales[r]
            top = a[r] = [x * prev for x in top] if d == 1 else [x * prev // d for x in top]
        p = top[r]
        if p == 0 or (p < 0) == (prev < 0):
            return 0
        for i, row in enumerate(a):
            f = row[r]
            if f and i != r:
                d = scales[i]
                if d == 1:
                    a[i] = [p * x - f * y for x, y in zip(row, top)]
                else:
                    a[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
                scales[i] = p
        scales[r] = prev = p
    return prev


def solve_linear(rows: Sequence[Sequence[Fraction]], rhs):
    '''
    exact solution of a square linear system; raises SingularSystem when the
    matrix is singular

    ``rhs`` is one right-hand side vector, or, as in numpy.linalg.solve, a
    matrix whose columns are several right-hand sides: its rows are then
    tuples or lists, and the rows of the solution are tuples.  Each row of
    the augmented matrix is scaled to integers, which keeps the solution,
    and one fraction-free elimination (Bareiss 1968) solves every column:
    each pivot divides the next step exactly, and back substitution stays
    in integers because det * x is integral (Cramer's rule).

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
    a = [list(integral((*row, *(b if several else (b,))))[1]) for row, b in zip(rows, rhs)]
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
    out = tuple([tuple([Fraction(v, prev) for v in yi]) for yi in ys])
    return out if several else tuple([x for (x,) in out])
