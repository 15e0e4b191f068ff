'''
Nef tests, Zariski decomposition and exact volume profiles.

Everything here treats the declared Mori generator list of a SurfaceModel as
the complete set of curve classes that can obstruct nefness.  A pseudo-
effective class decomposes as P + N with P nef and N supported on a negative
definite set of generators; the volume of a ray origin - t*direction is then
a piecewise quadratic in t, one quadratic per Zariski chamber, computed in
exact rational arithmetic.

Along a ray from a nef origin the support only grows: the big classes with
negative support inside a set S form a convex set (P(D1) + P(D2) is nef and
at most D1 + D2; Bauer-Kuronya-Szemberg, Crelle 2004), which holds the
origin.  A piece on which a support coefficient turns negative, a shrinking
support, raises EngineError.

A ray walk never needs a generator with C.C >= 0.  On a lattice of
signature (1, r - 1), which ``SurfaceModel.validate`` checks and a blow-up
extension keeps, P(t).P(t) = vol(t) > 0 for t < tau, and P(t) moves
continuously from the nef and big origin, so it stays in the origin's half
of the positive cone.  A class C with C.C >= 0 and C.origin >= 0 lies in
the closure of that half, so it meets P(t) positively (the light-cone
lemma): it never joins the support and never ends a chamber.  A Zariski
decomposition and a nef test still read every generator, since a class
that is not pseudo-effective can be refused at such a row.

So each walk runs on one fraction-free elimination (``lattice.pivot``) of
the integer Gram matrix of the generators it walks, bordered by the class
or ray, and pivots each generator once, as it joins the support.  Each row
holds its value times its own scale, the last pivot that changed it: a
step rewrites only the rows that meet the joining generator, and most
generators are disjoint.  The pivot rows then hold the support
coefficients, the other rows the pairings of P with the generators off the
support.  The chamber tests compare signs and ratios, so they read the sign
of a row's scale, and a Zariski coefficient is read over its own row's
scale.  A ray's volume is a 2 x 2 Schur state kept at the last pivot beside
the generator rows, updated at each step from the joining row's border.
The pivot signs say whether the support is still negative definite.

A profile piece keeps the walk's integers: the volume quadratic as integer
coefficients over one positive scale, and its ends as (numerator,
denominator) pairs.  ``integrate_profile`` sums those integers, and a piece
turns them into Fractions only when something reads its ends or
coefficients.
'''
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional

from .lattice import (
    DivClass,
    EngineError,
    Frozen,
    cached_property,
    check_on,
    pair,
    pivot,
)
from .surface import ConfigurationError, SurfaceModel


class NotPseudoEffective(EngineError):
    '''class lies outside the declared pseudo-effective cone'''


class NefReport(Frozen):
    '''outcome of a nef test; ``witness`` names a violating generator'''

    def __init__(self, nef: bool, witness: Optional[str] = None):
        vars(self).update(nef=nef, witness=witness)

    def __bool__(self) -> bool:
        return self.nef


def is_nef(model: SurfaceModel, d: DivClass) -> NefReport:
    '''
    pair d against every declared generator

    TESTS:
        >>> import kwall.lattice as kl
        >>> lat = kl.IntersectionLattice.diagonal(('h',), (1,))
        >>> m = __import__('kwall.surface', fromlist=['SurfaceModel']).SurfaceModel(
        ...     'p2', lat, lat.div((-3,)), (('line', lat.basis('h')),))
        >>> bool(is_nef(m, lat.div((2,))))
        True
        >>> is_nef(m, lat.div((-1,))).witness
        'line'
    '''
    for n, c in model.mori_gens:
        if pair(d, c) < 0:
            return NefReport(False, n)
    return NefReport(True, None)


class ZariskiResult(Frozen):
    '''Zariski decomposition D = positive + sum of a C over the (name, a) of
    negative_support'''

    def __init__(self, positive: DivClass, negative_support: tuple[tuple[str, Fraction], ...]):
        vars(self).update(positive=positive, negative_support=negative_support)


def zariski_decompose(model: SurfaceModel, d: DivClass) -> ZariskiResult:
    '''
    split d into a nef part and an effective negative-definite remainder

    Walks the Zariski chambers: any generator pairing negatively with the
    current candidate P joins the support, and the loop stops once P clears
    every generator.  A support that leaves the negative definite cone means
    d is not pseudo-effective (NotPseudoEffective).  The result is then
    certified in integers; a failed certificate is an engine fault or a
    generator list that is not a set of curves, and raises EngineError.
    '''
    check_on(model.lattice, d)
    dx, xs = d.numerators
    table = model.gen_table
    n = len(table.pairing)
    a = [[*row, x] for row, x in zip(table.pairing, table.pairings(xs))]
    scales = [1] * n
    last, idx, violators = 1, [], []
    # violators come from outside the support and each pass that does not
    # end the walk adds one, so once the support holds every generator the
    # pass finds none
    while True:
        last = pivot(a, scales, violators, last)
        idx += violators
        if not last:
            # the accumulated support left the negative definite cone, which
            # can only happen when d is outside the pseudo-effective cone
            raise NotPseudoEffective(
                f'{model.name}: support walk left the negative definite '
                f'cone at {[model.gen_names[i] for i in idx]}')
        # with d_i = scales[i], d - sum_s a_s C_s has the coefficients
        # a_s = den a[s][n] / (d_s dx) on the support, and a[j][n] is d_j
        # den dg dx times its pairing with C_j off it
        violators = [j for j in range(n) if j not in idx and a[j][n] * scales[j] < 0]
        if not violators:
            break
    # the certificate, read off the table rather than the elimination: with
    # m = lcm(d_s), P = d - sum a_s C_s has numerators ps over m dx, and one
    # product R ps gives every P.C_j times den dg m dx.  It must be 0 on the
    # support and >= 0 off it, and every coefficient positive; the pivot
    # signs above already certify that the support is negative definite
    m = math.lcm(*[scales[i] for i in idx])
    ps = [m * x for x in xs]
    for i in idx:
        f = m // scales[i] * a[i][n]
        ps = [x - f * g for x, g in zip(ps, table.gens[i])]
    pc = table.pairings(ps)
    bad = [j for j in idx if pc[j] or a[j][n] * scales[j] <= 0]
    bad += [j for j in range(n) if j not in idx and pc[j] < 0]
    if bad:
        raise EngineError(f'{model.name}: the decomposition fails its certificate at '
                          f'{[model.gen_names[j] for j in bad]}')
    coeffs = [Fraction(table.den * a[i][n], scales[i] * dx) for i in idx]
    support = tuple([model.gen_names[i] for i in idx])
    return ZariskiResult(DivClass(model.lattice, m * dx, ps), tuple(zip(support, coeffs)))


class QuadraticPiece(Frozen):
    '''
    vol(t) = q0 + q1 t + q2 t^2 on [t_lo, t_hi], one Zariski chamber

    Held in integers, as the walk computes them: the coefficients are
    ``k`` / ``scale`` with scale > 0, and ``lo`` and ``hi`` are the ends as
    (numerator, positive denominator) pairs.  ``t_lo``, ``t_hi`` and
    ``coeffs`` are read off them as Fractions on first use.

    TESTS:
        >>> p = QuadraticPiece((8, -8, 2), 2, (0, 1), (4, 2), ('e',))
        >>> p.t_hi, p.coeffs[1], p.value(1)
        (Fraction(2, 1), Fraction(-4, 1), Fraction(1, 1))
    '''

    def __init__(self, k: tuple[int, int, int], scale: int, lo: tuple[int, int],
                 hi: tuple[int, int], chamber_support: tuple[str, ...]):
        vars(self).update(k=k, scale=scale, lo=lo, hi=hi, chamber_support=chamber_support)

    @cached_property
    def t_lo(self) -> Fraction:
        return Fraction(*self.lo)

    @cached_property
    def t_hi(self) -> Fraction:
        return Fraction(*self.hi)

    @cached_property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction]:
        return tuple([Fraction(x, self.scale) for x in self.k])

    def value(self, t) -> Fraction:
        q0, q1, q2 = self.coeffs
        return q0 + q1 * t + q2 * t * t


class VolumeProfile(Frozen):
    '''piecewise quadratic volume along a ray, valid on [0, tau]'''

    def __init__(self, pieces: tuple[QuadraticPiece, ...], tau: Fraction):
        vars(self).update(pieces=pieces, tau=tau)

    def value(self, t) -> Fraction:
        if t < 0 or t > self.tau:
            raise ValueError(f'{t} outside [0, {self.tau}]')
        # the last piece ends at tau, so it takes every t the others do not
        for p in self.pieces[:-1]:
            if t <= p.t_hi:
                return p.value(t)
        return self.pieces[-1].value(t)


def _min_root_after(k, scale: int, lo, hi):
    '''
    smallest root in (lo, hi] of k0 + k1 t + k2 t^2, integer coefficients

    ``lo``, ``hi`` (None: no upper bound) and the root are (numerator,
    positive denominator) pairs; ``scale`` is the positive denominator of
    the volume quadratic k / scale, which only the error message needs.
    '''
    k0, k1, k2 = k
    if k2 == 0 and k1 == 0:
        return None
    disc = k1 * k1 - 4 * k2 * k0
    p, q = lo
    if hi is not None:
        h, e = hi
        if k0 * e * e + k1 * h * e + k2 * h * h > 0:
            # the chamber end stays positive; a root strictly inside would
            # need an interior minimum -k1 / 2 k2 in (lo, hi) below zero
            if k2 <= 0 or 2 * k2 * p + k1 * q >= 0 or 2 * k2 * h + k1 * e <= 0 or disc <= 0:
                return None
    elif k2 > 0 and 2 * k2 * p + k1 * q >= 0:
        # last chamber: the volume is positive at lo and its vertex
        # -k1 / 2 k2 lies at or before lo, so it only grows from there on
        return None
    if k2 == 0:
        roots = [(-k0, k1) if k1 > 0 else (k0, -k1)]
    else:
        if disc < 0:
            return None
        s = math.isqrt(disc)
        if s * s != disc:
            raise EngineError(
                f'irrational volume threshold (disc {Fraction(disc, scale * scale)})')
        b = -k1 if k2 > 0 else k1
        roots = [(b - s, 2 * abs(k2)), (b + s, 2 * abs(k2))]
    for rn, rd in roots:
        if rn * q > p * rd and (hi is None or rn * e <= h * rd):
            return rn, rd
    return None


def volume_profile(model: SurfaceModel, origin: DivClass,
                   direction: DivClass) -> VolumeProfile:
    '''
    exact vol(origin - t*direction) for t >= 0

    Within one chamber the negative part is affine in t, so the volume is a
    single quadratic; a chamber ends where a generator outside the support
    starts pairing negatively with P(t), and the profile ends at the big
    threshold tau where the volume reaches zero.

    The origin's nef test pairs it with every declared generator, but the
    walk reads only the generators with C.C < 0 (``GeneratorTable.negative``):
    on a lattice of signature (1, r - 1) a generator with C.C >= 0 meets
    P(t) positively for t < tau (see the module docstring).  On a lattice
    of another signature, which no surface has, the profile may differ.
    '''
    check_on(model.lattice, origin, direction)
    # the walk runs in generator coordinates and in integers.  Origin and
    # direction are xo / dx and -xv / dx.
    table = model.gen_table
    dg, gram = model.lattice.scaled_gram
    (do, no), (dv, nv) = origin.numerators, direction.numerators
    dx = math.lcm(do, dv)
    xo, xv = [x * (dx // do) for x in no], [-x * (dx // dv) for x in nv]
    # every generator's pairing with the origin, over den dg dx; the squares
    # and product of origin and v0 = -direction, over dg dx^2, start the
    # volume corner
    po = table.pairings(xo)
    if po and min(po) < 0:
        witness = model.gen_names[next(i for i, x in enumerate(po) if x < 0)]
        raise ConfigurationError(
            f'{model.name}: profile origin is not nef (witness {witness})')
    go, gv = [sum(map(mul, row, xo)) for row in gram], [sum(map(mul, row, xv)) for row in gram]
    v00, v01, v11 = sum(map(mul, xo, go)), sum(map(mul, xo, gv)), sum(map(mul, xv, gv))
    if v00 <= 0:
        raise ConfigurationError(f'{model.name}: profile origin is not big')
    if direction.is_zero():
        raise ConfigurationError(f'{model.name}: zero profile direction')

    # one elimination serves the whole ray: the Gram matrix of (den C_1,
    # ..., den C_n) over the generators with C.C < 0, the only ones that
    # can join, times dg and bordered by the columns of (dx origin, dx v0),
    # with each generator pivoted once as it joins the support (see
    # ``pivot``).  The two volume rows of the bordered matrix are not kept:
    # only their 2 x 2 corner is ever read, held as the Schur state (v00,
    # v01, v11) = last dg dx^2 (u.u, u.v, v.v) at the last pivot
    walked, block = table.negative
    names = [model.gen_names[i] for i in walked]
    n = len(names)
    a = [[*row, po[i], sum(map(mul, table.rows[i], xv))] for i, row in zip(walked, block)]
    scales = [1] * n
    t0 = (0, 1)
    last, idx, joining, free = 1, [], [], range(n)
    pieces: list[QuadraticPiece] = []
    # each pass grows the support, returns or raises: at most n + 1
    while True:
        for r in joining:
            prev = last
            last = pivot(a, scales, (r,), prev)
            if not last:
                break
            # row r, brought to prev, holds its border entries (x, y): by
            # symmetry the volume rows' entries in column r, so the corner
            # is rewritten as pivot rewrites every other row
            x, y = a[r][n], a[r][n + 1]
            v00, v01, v11 = ((last * v00 - x * x) // prev, (last * v01 - x * y) // prev,
                             (last * v11 - y * y) // prev)
        idx += joining
        if not last:
            raise ConfigurationError(f'{model.name}: support '
                                     f'{[names[i] for i in idx]} is not negative definite')
        if joining:
            free = [j for j in free if j not in joining]
        # P(t) = u + t v on this chamber, with u = origin - sum a0_s C_s and
        # v = v0 - sum a1_s C_s orthogonal to the support.  With d_i =
        # scales[i], (a0, a1) = den (a[i][n], a[i][n + 1]) / (d_i dx) on the
        # support, and (a[j][n], a[j][n + 1]) off it are u.C_j and v.C_j
        # times d_j den dg dx: only the sign of d_j matters to these tests
        p, q = t0
        immediate, t_end, joiners = [], None, []
        for j in free:
            row = a[j]
            u, v = (row[n], row[n + 1]) if scales[j] > 0 else (-row[n], -row[n + 1])
            at_t0 = u * q + p * v
            if at_t0 < 0 or (at_t0 == 0 and v < 0):
                immediate.append(j)
            elif v < 0:
                # C_j meets P(t) negatively beyond t = u / -v, which lies
                # past t0 because P(t0).C_j > 0
                if t_end is None or u * t_end[1] < t_end[0] * -v:
                    t_end, joiners = (u, -v), [j]
                elif u * t_end[1] == t_end[0] * -v:
                    joiners.append(j)
        if immediate:
            joining = immediate
            continue

        # vol(t) = P(t).P(t) = (k0 + k1 t + k2 t^2) / (det dg dx^2) with
        # det = |last|, read off the Schur state
        k = (v00, 2 * v01, v11) if last > 0 else (-v00, -2 * v01, -v11)
        scale = abs(last) * dg * dx * dx
        root = _min_root_after(k, scale, t0, t_end)
        t_hi = t_end if root is None else root
        if t_hi is None:
            raise EngineError(f'{model.name}: volume never vanishes along the ray')
        support = tuple([names[i] for i in idx])
        # coefficients are affine in t, so the two ends cover the whole piece
        for i in idx:
            x, y, d = a[i][n], a[i][n + 1], scales[i]
            if (x * q + p * y) * d < 0 or (x * t_hi[1] + t_hi[0] * y) * d < 0:
                raise EngineError(
                    f'{model.name}: support {list(support)} shrinks on [{Fraction(*t0)}, '
                    f'{Fraction(*t_hi)}]: a support coefficient turns negative')
        pieces.append(QuadraticPiece(k, scale, t0, t_hi, support))
        if root is not None:
            return VolumeProfile(tuple(pieces), Fraction(*t_hi))
        t0 = t_hi
        joining = joiners


def integrate_profile(profile: VolumeProfile) -> Fraction:
    '''
    exact integral of the profile over [0, tau]

    TESTS:
        >>> p = QuadraticPiece((4, -4, 1), 1, (0, 1), (2, 1), ())
        >>> integrate_profile(VolumeProfile((p,), Fraction(2)))
        Fraction(8, 3)
    '''
    # summed as one integer fraction: with F(x, y) = 6 k0 x y^2 + 3 k1 x^2 y
    # + 2 k2 x^3, each piece's integral is (F(h, e) q^3 - F(l, q) e^3) /
    # (6 d e^3 q^3) for coefficients k / d and ends l / q, h / e
    num, den = 0, 1
    for p in profile.pieces:
        k0, k1, k2 = p.k
        (lo, q), (hi, e) = p.lo, p.hi
        q3, e3 = q * q * q, e * e * e
        n = ((6 * k0 * e * e + 3 * k1 * hi * e + 2 * k2 * hi * hi) * hi * q3
             - (6 * k0 * q * q + 3 * k1 * lo * q + 2 * k2 * lo * lo) * lo * e3)
        dp = 6 * p.scale * e3 * q3
        num, den = num * dp + n * den, den * dp
    return Fraction(num, den)


def profile_to_doc(profile: VolumeProfile) -> dict:
    '''a profile as plain values: tau, and per piece its ends t_lo, t_hi,
    its coefficients c0, c1, c2 and its negative support; numbers as Fractions'''
    return {
        'tau': profile.tau,
        'pieces': [{'t_lo': p.t_lo, 't_hi': p.t_hi, 'coeffs': list(p.coeffs),
                    'support': list(p.chamber_support)} for p in profile.pieces],
    }
