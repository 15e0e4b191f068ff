from fractions import Fraction
from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import reference_pair
from kwall.lattice import (
    DivClass,
    IntersectionLattice,
    SingularSystem,
    pair,
    pivot,
    ratio,
    rational,
    signature,
    solve_linear,
    validate_lattice,
)

F = Fraction

SIGMA5 = IntersectionLattice.diagonal(('h', 'e1', 'e2', 'e3', 'e4'), (1, -1, -1, -1, -1))

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=12)
# entries like the -1/(ab) self-intersection of a weighted blow-up
weighted = st.builds(lambda a, b: F(-1, a * b), st.integers(1, 7), st.integers(1, 7))
entries = st.one_of(rationals, weighted)


def test_pair_defining_form():
    h = SIGMA5.basis('h')
    assert pair(h, h) == 1


def test_pair_anticanonical_square_is_five():
    k = SIGMA5.div((-3, 1, 1, 1, 1))
    assert pair(k, k) == 5


def test_pair_line_through_two_points():
    l1 = SIGMA5.div((1, -1, -1, 0, 0))
    assert pair(l1, l1) == -1


def test_pair_symmetric_and_lattice_mismatch():
    a = SIGMA5.div((1, 2, 0, 0, -1))
    b = SIGMA5.div((0, 1, 1, '1/2', 0))
    assert pair(a, b) == pair(b, a)
    other = IntersectionLattice.diagonal(('h',), (1,))
    with pytest.raises(ValueError):
        pair(a, other.basis('h'))


def test_validate_sigma5_passes():
    assert validate_lattice(SIGMA5) == ()
    assert signature(SIGMA5.scaled_gram[1]) == (1, 4, 0)


def test_validate_wrong_signature_fails():
    bad = IntersectionLattice.diagonal(('a', 'b'), (1, 1))
    assert validate_lattice(bad) == ('signature (2, 0, 0) is not (1, 1, 0)',)
    assert signature(bad.scaled_gram[1]) == (2, 0, 0)


def test_validate_hirzebruch_two_lattice():
    # basis (e, f): e^2 = -2, e.f = 1, f^2 = 0; hyperbolic
    lat = IntersectionLattice.from_rows(('e', 'f'), ((-2, 1), (1, 0)))
    assert validate_lattice(lat) == ()
    assert signature(lat.scaled_gram[1]) == (1, 1, 0)


def test_validate_asymmetric_fails():
    lat = IntersectionLattice.from_rows(('a', 'b'), ((1, 2), (0, -1)))
    assert validate_lattice(lat) == ('gram matrix is not symmetric',)


def test_signature_zero_diagonal_block():
    assert signature([[F(0), F(1)], [F(1), F(-2)]]) == (1, 1, 0)
    assert signature([[F(0), F(1)], [F(1), F(0)]]) == (1, 1, 0)
    assert signature([[F(0), F(0)], [F(0), F(0)]]) == (0, 0, 2)


def test_negative_definite_chains():
    a2 = [[F(-2), F(1)], [F(1), F(-2)]]
    assert signature(a2) == (0, 2, 0)
    degenerate = [[F(-1), F(1)], [F(1), F(-1)]]
    assert signature(degenerate) == (0, 1, 1)


def test_solve_linear_basic():
    assert solve_linear([[F(-1)]], [F(-1, 2)]) == (F(1, 2),)
    assert solve_linear([[F(-2), F(1)], [F(1), F(-2)]], [F(-1), F(0)]) == (F(2, 3), F(1, 3))


def test_solve_linear_singular():
    with pytest.raises(SingularSystem):
        solve_linear([[F(0)]], [F(1)])


def test_solve_linear_refuses_a_system_that_is_not_square():
    for rows, rhs in (([[F(1), F(0)]], [F(1)]), ([[F(1)]], [F(1), F(2)])):
        with pytest.raises(ValueError, match='system is not square'):
            solve_linear(rows, rhs)


def test_rational_parse_render_roundtrip():
    assert rational('5/3') == F(5, 3)
    with pytest.raises(ValueError):
        rational(True)


def test_divclass_algebra_and_repr():
    a = SIGMA5.div((1, -1, 0, 0, 0))
    b = SIGMA5.basis('e3')
    assert (a + b).coords == (F(1), F(-1), F(0), F(1), F(0))
    assert (a - a).is_zero()
    assert (F(1, 2) * a).coords[0] == F(1, 2)
    assert repr(SIGMA5.zero()) == '0'
    assert 'h' in repr(a)


@given(st.lists(rationals, min_size=5, max_size=5),
       st.lists(rationals, min_size=5, max_size=5),
       st.lists(rationals, min_size=5, max_size=5),
       rationals)
def test_pair_bilinear(xs, ys, zs, lam):
    a, b, c = (SIGMA5.div(v) for v in (xs, ys, zs))
    lhs = pair(a + F(lam) * b, c)
    assert lhs == pair(a, c) + F(lam) * pair(b, c)


@settings(max_examples=100)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
           st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
           st.lists(rationals, min_size=n, max_size=n),
           st.lists(rationals, min_size=n, max_size=n))))
def test_pair_matches_reference_form(data):
    rows, x, y = data
    n = len(rows)
    gram = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    lat = IntersectionLattice.from_rows([f'b{i}' for i in range(n)], gram)
    a, b = lat.div(x), lat.div(y)
    assert pair(a, b) == reference_pair(lat.gram, a.coords, b.coords)
    assert pair(b, a) == pair(a, b)


@settings(max_examples=60)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3))
@example([[F(-1, 6), F(1, 2), F(0)], [F(1, 2), F(-1, 35), F(2, 3)], [F(0), F(2, 3), F(-5, 4)]],
         [F(1, 3), F(-7, 2), F(5, 6)])
@example([[F(0), F(1, 4), F(1)], [F(1, 4), F(0), F(-1, 12)], [F(1), F(-1, 12), F(0)]],
         [F(-1, 2), F(0), F(11, 7)])
def test_solve_linear_roundtrip(rows, x):
    rows = [[F(v) for v in row] for row in rows]
    x = [F(v) for v in x]
    b = [sum((rows[i][j] * x[j] for j in range(3)), F(0)) for i in range(3)]
    try:
        sol = solve_linear(rows, b)
    except SingularSystem:
        return
    assert list(sol) == x


@settings(max_examples=60)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=3, max_size=3))
def test_solve_linear_several_right_hand_sides(rows, cols):
    rows = [[F(v) for v in row] for row in rows]
    try:
        both = solve_linear(rows, [tuple(c) for c in cols])
    except SingularSystem:
        return
    for k in range(2):
        assert [x[k] for x in both] == list(solve_linear(rows, [c[k] for c in cols]))


@settings(max_examples=40)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4))
@example([[F(-1, 6), F(1, 2), F(0), F(0)], [F(0), F(-1, 35), F(1, 3), F(0)],
          [F(0), F(0), F(0), F(1, 4)], [F(0), F(0), F(0), F(0)]])
def test_signature_counts_sum_to_rank(rows):
    sym = [[F(rows[i][j] + rows[j][i]) for j in range(4)] for i in range(4)]
    pos, neg, zero = signature(sym)
    assert pos + neg + zero == 4


@settings(max_examples=60)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
           st.lists(st.sampled_from((F(-1, 6), F(-1), F(0), F(1, 35), F(2))),
                    min_size=n, max_size=n),
           st.lists(entries, min_size=n * n, max_size=n * n))))
def test_signature_of_a_congruent_diagonal(data):
    '''L D L^T with L unit lower triangular has the inertia of D'''
    diag, fill = data
    n = len(diag)
    low = [[F(1) if i == j else (fill[i * n + j] if j < i else F(0))
            for j in range(n)] for i in range(n)]
    m = [[sum((low[i][k] * diag[k] * low[j][k] for k in range(n)), F(0))
          for j in range(n)] for i in range(n)]
    want = (sum(d > 0 for d in diag), sum(d < 0 for d in diag), sum(d == 0 for d in diag))
    assert signature(m) == want


def _determinant(rows):
    '''Leibniz formula, independent of any elimination'''
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


small = st.integers(-6, 6)


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
           st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n),
           st.lists(st.lists(small, min_size=2, max_size=2), min_size=n, max_size=n),
           st.lists(st.integers(1, 5), min_size=n, max_size=n))))
# a zero leading pivot: the elimination exchanges rows
@example(([[0, 1], [1, -2]], [[1, 0], [0, 1]], [1, 1]))
def test_solve_linear_is_singular_exactly_when_the_determinant_is_zero(data):
    '''solve_linear raises SingularSystem exactly for a singular matrix, and
    otherwise solves rows . x = cols, with rows scaled by rational factors'''
    rows, cols, scales = data
    scaled = [[F(x, k) for x in (*row, *b)] for row, b, k in zip(rows, cols, scales)]
    n = len(rows)
    if _determinant(rows) == 0:
        with pytest.raises(SingularSystem):
            solve_linear([r[:n] for r in scaled], [tuple(r[n:]) for r in scaled])
        return
    xs = solve_linear([r[:n] for r in scaled], [tuple(r[n:]) for r in scaled])
    for row, b in zip(rows, cols):
        assert [sum(a * x[c] for a, x in zip(row, xs)) for c in range(2)] == b


@settings(max_examples=120)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
           st.lists(st.sampled_from((-3, -1, 0, 1, 2)), min_size=n, max_size=n),
           st.lists(small, min_size=n * n, max_size=n * n),
           st.lists(st.lists(small, min_size=2, max_size=2), min_size=n, max_size=n),
           st.permutations(range(n)),
           st.integers(1, n))))
@example(([-1, -1, -1], [0, 0, 0, 5, 0, 0, -3, 4, 0], [[0, 0]] * 3, [0, 1, 2], 3))
@example(([-1, 0, -2], [0] * 9, [[0, 0]] * 3, [0, 1, 2], 3))
@example(([-1, -1], [0, 0, 2, 0], [[1, 0], [0, 1]], [1, 0], 2))
@example(([-1, 0, -2], [0, 0, 0, 1, 0, 0, 0, 0, 0], [[0, 1], [2, 0], [1, 1]], [1, 2, 0], 3))
# two 2 x 2 blocks and a 1 x 1 block: row 1 is skipped by the pivot on 2,
# then brought to that pivot's scale when it is pivoted itself, and row 4
# meets no pivot at all
@example(([-1, -1, -2, -1, -1], [0] * 5 + [2] + [0] * 11 + [1] + [0] * 7,
          [[1, 0], [0, 1], [1, 1], [2, 0], [1, -1]], [0, 2, 1, 3, 4], 3))
def test_pivot_solves_and_decides_negative_definiteness(data):
    '''on L D L^T with L unit lower triangular, bordered by two columns,
    pivoting a set P in a random order leaves each row's scale times the
    solution in the pivot rows and times the Schur complement in every
    other row, never rewrites a row whose entries in the pivot columns are
    zero, and returns det S_PP, or 0 exactly when S_PP is not negative
    definite: when P is everything, exactly when D is not'''
    diag, fill, border, order, k = data
    n = len(diag)
    low = [[1 if i == j else (fill[i * n + j] if j < i else 0) for j in range(n)]
           for i in range(n)]
    m = [[sum(low[i][l] * diag[l] * low[j][l] for l in range(n)) for j in range(n)]
         for i in range(n)]
    a = [[*row, *b] for row, b in zip(m, border)]
    before, scales = list(a), [1] * n
    ps = order[:k]
    block = [[m[i][j] for j in ps] for i in ps]
    last = pivot(a, scales, ps)
    assert (last != 0) == (signature(block) == (0, k, 0))
    if k == n:
        assert (last != 0) == all(d < 0 for d in diag)
    if not last:
        return
    assert last == _determinant(block)
    rest = [c for c in range(n + 2) if c not in ps]
    full = [[*row, *b] for row, b in zip(m, border)]
    xs = solve_linear([[F(x) for x in row] for row in block],
                      [tuple([F(full[i][c]) for c in rest]) for i in ps])
    for i, x in zip(ps, xs):
        assert [a[i][c] for c in rest] == [scales[i] * y for y in x]
    for j in range(n):
        if j not in ps:
            schur = [full[j][c] - sum(full[j][i] * x[s] for i, x in zip(ps, xs))
                     for s, c in enumerate(rest)]
            assert [a[j][c] for c in rest] == [scales[j] * y for y in schur]
            if not any(m[j][i] for i in ps):
                assert a[j] is before[j] and scales[j] == 1


def test_rational_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match='zero denominator'):
        rational('1/0')


def test_rational_returns_a_fraction_unchanged():
    x = F(-3, 4)
    assert rational(x) is x
    with pytest.raises(ValueError, match='not a rational'):
        rational(True)


@st.composite
def spelled(draw):
    '''(x, text): a rational and a string for it, often not in lowest terms
    (as '2/4', '-0' or '3/3')'''
    x = draw(rationals)
    m = draw(st.integers(1, 4))
    p, q = abs(x.numerator) * m, x.denominator * m
    sign = '-' if x < 0 else draw(st.sampled_from(['', '+', '-'] if x == 0 else ['', '+']))
    return x, f'{sign}{p}' if q == 1 else f'{sign}{p}/{q}'


def _vector_and_rows(r):
    row = st.lists(spelled(), min_size=r, max_size=r)
    return st.tuples(row, st.lists(row, min_size=r, max_size=r))


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(_vector_and_rows))
@example(([(F(1, 2), '2/4'), (F(0), '-0'), (F(1), '3/3')],
          [[(F(1), '3/3'), (F(0), '-0'), (F(0), '0/5')],
           [(F(0), '0'), (F(-1, 2), '-2/4'), (F(0), '+0')],
           [(F(0), '-0/2'), (F(0), '0'), (F(-1, 3), '-3/9')]]))
def test_lattices_and_classes_hold_one_reduced_integer_form(drawn):
    '''strings not in lowest terms parse to integers in lowest terms over a
    positive denominator; the Fractions read off them are the inputs, and
    the same values spelled another way give equal objects with equal
    hashes'''
    vector, rows = drawn
    names = tuple(f'b{i}' for i in range(len(vector)))
    lat = IntersectionLattice.from_rows(names, [[t for _, t in row] for row in rows])
    dg, ints = lat.scaled_gram
    assert dg > 0 and gcd(dg, *[x for row in ints for x in row]) == 1
    assert lat.gram == tuple(tuple(x for x, _ in row) for row in rows)
    twin = IntersectionLattice.from_rows(names, [[x for x, _ in row] for row in rows])
    assert twin == lat and hash(twin) == hash(lat)
    assert IntersectionLattice(names, -2 * dg, [[-2 * x for x in row] for row in ints]) == lat

    c = lat.div([t for _, t in vector])
    d, ns = c.numerators
    assert d > 0 and gcd(d, *ns) == 1
    assert c.coords == tuple(x for x, _ in vector)
    same = twin.div([x for x, _ in vector])
    assert same == c and hash(same) == hash(c)
    assert DivClass(lat, -3 * d, [-3 * n for n in ns]) == c


def test_no_floats_leak():
    a = SIGMA5.div((1, '1/3', 0, 0, 0))
    assert all(isinstance(c, Fraction) for c in a.coords)
    assert isinstance(pair(a, a), Fraction)


# text over the alphabet of Fraction's string grammar, plus the exponent
# marker: numbers built from its parts, each part possibly malformed, and
# free text
BLANKS = st.sampled_from(['', ' ', '  ', '\t', '\n '])
DIGIT_RUNS = st.text('0123456789_', max_size=5)
NUMBER_TEXT = st.one_of(
    st.builds(lambda *parts: ''.join(parts), BLANKS, st.sampled_from(['', '+', '-', '+-']),
              DIGIT_RUNS, st.sampled_from(['', '/', '.', ' / ', '/-', '/+']), DIGIT_RUNS,
              st.sampled_from(['', 'e', 'e3', 'e-1', 'E+2', 'e_1']), BLANKS),
    st.text(' +-0123456789_/.e', max_size=10))


@settings(max_examples=400)
@given(NUMBER_TEXT)
@example('1/0')
@example(' 7 ')
@example('1_0')
@example('-.5')
@example('5.')
@example('1e3')
def test_ratio_reads_what_fraction_reads_without_exponents(text):
    '''wherever Fraction reads a string without an exponent, ratio gives
    the same value in lowest terms; every other string, exponents and zero
    denominators included, is a ValueError'''
    try:
        want = None if 'e' in text.lower() else F(text.strip())
    except (ValueError, ZeroDivisionError):
        want = None
    if want is None:
        with pytest.raises(ValueError):
            ratio(text)
        with pytest.raises(ValueError):
            rational(text)
    else:
        assert ratio(text) == (want.numerator, want.denominator)
        assert rational(text) == want


def test_ratio_refuses_exponent_notation():
    for text in ('1e3', '1E3', '1e-1', '2.5e1', ' 1e0 '):
        with pytest.raises(ValueError, match='not a rational'):
            ratio(text)
    assert ratio('-1.25') == (-5, 4)
    assert ratio(F(6, 4)) == (3, 2)
