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
'''
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lattice import (
    DivClass,
    EngineError,
    integral,
    is_negative_definite,
    pair,
    rational_str,
)
from .surface import ConfigurationError, SurfaceModel, support_solve


class NotPseudoEffective(EngineError):
    '''class lies outside the declared pseudo-effective cone'''


@dataclass(frozen=True)
class NefReport:
    '''outcome of a nef test; ``witness`` names a violating generator'''
    nef: bool
    witness: Optional[str] = None

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


@dataclass(frozen=True)
class ZariskiResult:
    '''decomposition divisor = positive + sum of negative_support'''
    model: SurfaceModel
    divisor: DivClass
    positive: DivClass
    negative_support: tuple[tuple[str, Fraction], ...]

    @property
    def negative(self) -> DivClass:
        out = self.model.lattice.zero()
        for n, a in self.negative_support:
            out = out + a * self.model.gen(n)
        return out

    def failures(self) -> tuple[str, ...]:
        out: list[str] = []
        if self.positive + self.negative != self.divisor:
            out.append('P + N does not reconstruct the input')
        for n, a in self.negative_support:
            if a < 0:
                out.append(f'negative coefficient {a} on {n}')
            if pair(self.positive, self.model.gen(n)) != 0:
                out.append(f'P not orthogonal to support curve {n}')
        rep = is_nef(self.model, self.positive)
        if not rep:
            out.append(f'P is not nef (witness {rep.witness})')
        cs = [self.model.gen(n) for n, _ in self.negative_support]
        gram = [[pair(a, b) for b in cs] for a in cs]
        if cs and not is_negative_definite(gram):
            out.append('support Gram matrix is not negative definite')
        return tuple(out)


def _off_support(model: SurfaceModel, base, coeffs, idx):
    '''
    pairings of d - sum_s a_s C_s with every generator, from the pairings
    ``base`` of d with them and the generator pairing matrix

    ``base``, ``coeffs`` and the result are (denominator, integer numerators)
    pairs; the result's denominator is positive but not reduced.
    '''
    (db, bs), (da, As) = base, coeffs
    dm, m = model.gen_pairing
    rows = [m[i] for i in idx]
    scale = da * dm
    return db * scale, [b * scale - db * sum(a * row[j] for a, row in zip(As, rows))
                        for j, b in enumerate(bs)]


def _along(x, y, t) -> list[int]:
    '''numerators of x + t y over a positive denominator, for x and y given
    as (denominator, numerators); only their signs are meaningful'''
    (dx, xs), (dy, ys) = x, y
    p, q = t.numerator, t.denominator
    return [a * dy * q + p * b * dx for a, b in zip(xs, ys)]


def _dot(coeffs, pairings, idx) -> Fraction:
    '''sum_s a_s pairings[idx_s], both given as (denominator, numerators)'''
    (da, As), (dp, ps) = coeffs, pairings
    return Fraction(sum(a * ps[i] for a, i in zip(As, idx)), da * dp)


def zariski_decompose(model: SurfaceModel, d: DivClass) -> ZariskiResult:
    '''
    split d into a nef part and an effective negative-definite remainder

    Walks the Zariski chambers: any generator pairing negatively with the
    current candidate P joins the support, the orthogonality system is
    re-solved, and the loop stops once P clears every generator.
    '''
    if d.lattice != model.lattice:
        raise ValueError('class does not live on the model lattice')
    pd = [pair(d, c) for _, c in model.mori_gens]
    base = integral(pd)
    support: tuple[str, ...] = ()
    for _ in range(len(model.mori_gens) + 1):
        idx = [model.gen_index[n] for n in support]
        try:
            coeffs = [x for (x,) in support_solve(model, support,
                                                  [(pd[i],) for i in idx])]
        except ConfigurationError:
            # the accumulated support left the negative definite cone, which
            # can only happen when d is outside the pseudo-effective cone
            raise NotPseudoEffective(
                f'{model.name}: support walk left the negative definite '
                f'cone at {list(support)}') from None
        _, pc = _off_support(model, base, integral(coeffs), idx)
        violators = [n for j, n in enumerate(model.gen_names)
                     if j not in idx and pc[j] < 0]
        if not violators:
            p = d
            for a, n in zip(coeffs, support):
                p = p - a * model.gen(n)
            result = ZariskiResult(model, d, p, tuple(zip(support, coeffs)))
            fails = result.failures()
            if fails:
                raise NotPseudoEffective(f'{model.name}: ' + '; '.join(fails))
            return result
        support += tuple(violators)
    raise NotPseudoEffective(
        f'{model.name}: no nef part found with all generators in the support')


@dataclass(frozen=True)
class QuadraticPiece:
    '''vol(t) = q0 + q1 t + q2 t^2 on [t_lo, t_hi], one Zariski chamber'''
    t_lo: Fraction
    t_hi: Fraction
    coeffs: tuple[Fraction, Fraction, Fraction]
    chamber_support: tuple[str, ...]

    def value(self, t) -> Fraction:
        q0, q1, q2 = self.coeffs
        return q0 + q1 * t + q2 * t * t

    def derivative(self, t) -> Fraction:
        _, q1, q2 = self.coeffs
        return q1 + 2 * q2 * t


@dataclass(frozen=True)
class VolumeProfile:
    '''piecewise quadratic volume along a ray, valid on [0, tau]'''
    pieces: tuple[QuadraticPiece, ...]
    tau: Fraction

    def value(self, t) -> Fraction:
        if t < 0 or t > self.tau:
            raise ValueError(f'{t} outside [0, {self.tau}]')
        for p in self.pieces:
            if t <= p.t_hi:
                return p.value(t)
        return self.pieces[-1].value(t)

    def failures(self, degree: Optional[Fraction] = None) -> tuple[str, ...]:
        out: list[str] = []
        if not self.pieces:
            return ('profile has no pieces',)
        if self.pieces[0].t_lo != 0:
            out.append('profile does not start at 0')
        if self.pieces[-1].t_hi != self.tau:
            out.append('last piece does not end at tau')
        prev = None
        for p in self.pieces:
            if not p.t_lo < p.t_hi:
                out.append(f'empty piece at {p.t_lo}')
            if prev is not None:
                if prev.t_hi != p.t_lo:
                    out.append(f'gap between {prev.t_hi} and {p.t_lo}')
                elif prev.value(p.t_lo) != p.value(p.t_lo):
                    out.append(f'discontinuity at {p.t_lo}')
            if p.derivative(p.t_lo) > 0 or p.derivative(p.t_hi) > 0:
                out.append(f'volume increases on [{p.t_lo}, {p.t_hi}]')
            prev = p
        if self.pieces[-1].value(self.tau) != 0:
            out.append('volume does not vanish at tau')
        if degree is not None and self.pieces[0].value(Fraction(0)) != degree:
            out.append('volume at 0 does not match the degree')
        return tuple(out)


def _sqrt_exact(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


def _min_root_after(coeffs, lo: Fraction, hi: Optional[Fraction]) -> Optional[Fraction]:
    '''smallest root of q0 + q1 t + q2 t^2 in (lo, hi]'''
    q0, q1, q2 = coeffs

    def val(t):
        return q0 + q1 * t + q2 * t * t

    if q2 == 0 and q1 == 0:
        return None
    if hi is not None and val(hi) > 0:
        # the chamber end stays positive; a root strictly inside would need
        # an interior minimum dipping below zero
        if q2 <= 0:
            return None
        tmin = -q1 / (2 * q2)
        if not lo < tmin < hi or val(tmin) >= 0:
            return None
    if q2 == 0:
        roots = [Fraction(-q0, 1) / q1]
    else:
        disc = q1 * q1 - 4 * q2 * q0
        if disc < 0:
            return None
        s = _sqrt_exact(disc)
        if s is None:
            raise EngineError(f'irrational volume threshold (disc {disc})')
        roots = sorted(((-q1 - s) / (2 * q2), (-q1 + s) / (2 * q2)))
    for r in roots:
        if r > lo and (hi is None or r <= hi):
            return r
    return None


def volume_profile(model: SurfaceModel, origin: DivClass,
                   direction: DivClass) -> VolumeProfile:
    '''
    exact vol(origin - t*direction) for t >= 0

    Within one chamber the negative part is affine in t, so the volume is a
    single quadratic; a chamber ends where a generator outside the support
    starts pairing negatively with P(t), and the profile ends at the big
    threshold tau where the volume reaches zero.
    '''
    if origin.lattice != model.lattice or direction.lattice != model.lattice:
        raise ValueError('classes do not live on the model lattice')
    # the walk runs in generator coordinates: the ray is paired with every
    # generator once, and each chamber is solved from those pairings and the
    # generator pairing matrix
    po = [pair(origin, c) for _, c in model.mori_gens]
    witness = next((n for n, x in zip(model.gen_names, po) if x < 0), None)
    if witness is not None:
        raise ConfigurationError(
            f'{model.name}: profile origin is not nef (witness {witness})')
    oo = pair(origin, origin)
    if oo <= 0:
        raise ConfigurationError(f'{model.name}: profile origin is not big')
    if direction.is_zero():
        raise ConfigurationError(f'{model.name}: zero profile direction')
    # v0 = -direction
    pv = [-pair(direction, c) for _, c in model.mori_gens]
    ov, vv = -pair(origin, direction), pair(direction, direction)
    po_n, pv_n = integral(po), integral(pv)

    t0 = Fraction(0)
    support: tuple[str, ...] = ()
    pieces: list[QuadraticPiece] = []
    # each pass grows the support, returns or raises: at most len(mori_gens) + 1
    while True:
        # P(t) = u + t v on this chamber, with u = origin - sum a0_s C_s and
        # v = v0 - sum a1_s C_s orthogonal to the support
        idx = [model.gen_index[n] for n in support]
        sol = support_solve(model, support, [(po[i], pv[i]) for i in idx])
        a0, a1 = integral(x for x, _ in sol), integral(y for _, y in sol)
        q = (oo - _dot(a0, po_n, idx), 2 * (ov - _dot(a0, pv_n, idx)),
             vv - _dot(a1, pv_n, idx))
        fu, fv = _off_support(model, po_n, a0, idx), _off_support(model, pv_n, a1, idx)
        outside = [j for j in range(len(po)) if j not in idx]

        at_t0 = _along(fu, fv, t0)
        immediate = [model.gen_names[j] for j in outside
                     if at_t0[j] < 0 or (at_t0[j] == 0 and fv[1][j] < 0)]
        if immediate:
            support = support + tuple(immediate)
            continue

        t_end: Optional[Fraction] = None
        joiners: list[str] = []
        (du, us), (dv, vs) = fu, fv
        for j in outside:
            if vs[j] < 0:
                r = Fraction(-us[j] * dv, vs[j] * du)
                if r > t0 and (t_end is None or r <= t_end):
                    if t_end is None or r < t_end:
                        t_end, joiners = r, [model.gen_names[j]]
                    else:
                        joiners.append(model.gen_names[j])

        root = _min_root_after(q, t0, t_end)
        t_hi = t_end if root is None else root
        if t_hi is None:
            raise EngineError(f'{model.name}: volume never vanishes along the ray')
        # coefficients are affine in t, so the two ends cover the whole piece
        if any(x < 0 for t in (t0, t_hi) for x in _along(a0, a1, t)):
            raise EngineError(
                f'{model.name}: support {list(support)} shrinks on '
                f'[{t0}, {t_hi}]: a support coefficient turns negative')
        pieces.append(QuadraticPiece(t0, t_hi, q, support))
        if root is not None:
            return VolumeProfile(tuple(pieces), root)
        t0 = t_end
        support = support + tuple(joiners)


def integrate_profile(profile: VolumeProfile) -> Fraction:
    '''
    exact integral of the profile over [0, tau]

    TESTS:
        >>> p = QuadraticPiece(Fraction(0), Fraction(2),
        ...                    (Fraction(4), Fraction(-4), Fraction(1)), ())
        >>> integrate_profile(VolumeProfile((p,), Fraction(2)))
        Fraction(8, 3)
    '''
    total = Fraction(0)
    for p in profile.pieces:
        q0, q1, q2 = p.coeffs
        lo, hi = p.t_lo, p.t_hi
        total += (q0 * (hi - lo) + q1 * (hi * hi - lo * lo) / 2
                  + q2 * (hi ** 3 - lo ** 3) / 3)
    return total


def profile_to_doc(profile: VolumeProfile) -> dict:
    '''JSON document for a profile (rationals as "p/q" strings)'''
    return {
        'tau': rational_str(profile.tau),
        'pieces': [{
            't_lo': rational_str(p.t_lo),
            't_hi': rational_str(p.t_hi),
            'coeffs': [rational_str(x) for x in p.coeffs],
            'support': list(p.chamber_support),
        } for p in profile.pieces],
    }
