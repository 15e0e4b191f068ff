'''
log pairs, divisorial valuations, and exact wall arithmetic

A pair carries a boundary divisor whose class is twice the anticanonical
class, scaled by a coefficient c.  Every invariant of interest is then an
affine function of c: the log discrepancy drops linearly with the order of
the boundary along the valuation, and the expected vanishing order picks up
a global (1 - 2c) factor.  Their difference is the destabilising margin
whose roots are the walls.
'''

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul

from .lattice import (
    DivClass,
    Frozen,
    Value,
    _divisor,
    cached_property,
    combination,
    ratio,
    rational,
)
from .positivity import VolumeProfile, integrate_profile, volume_profile
from .surface import (
    BlowupCenter,
    ConfigurationError,
    SurfaceModel,
    pullback_numerators,
)

VGIT_LO = Fraction(1, 4)

TAGS = frozenset({'plain', 'vertical', 'horizontal'})


class AffineRatFn(Value):
    '''exact affine function const + slope * c of the boundary coefficient

    Held in integers: ``numerators`` is (d, cn, sn) with const = cn / d and
    slope = sn / d, d > 0 and the three in lowest terms, so equal functions
    hold equal integers.  ``const`` and ``slope`` are read off them as
    Fractions on first use.  The constructor takes each coefficient as
    ``lattice.ratio`` reads it (an int, a Fraction or a string);
    ``from_numerators`` takes the integers.

    TESTS:
        >>> f = AffineRatFn(Fraction(1), Fraction(-4))
        >>> f.value(Fraction(1, 17))
        Fraction(13, 17)
        >>> g = f - AffineRatFn(Fraction(13, 15), Fraction(-26, 15))
        >>> str(g), g.numerators
        ('2/15 - 34/15 c', (15, 2, -34))
    '''
    _value = ('numerators',)

    def __init__(self, const, slope):
        (cn, cd), (sn, sd) = ratio(const), ratio(slope)
        # with both in lowest terms, their least common denominator leaves
        # the three integers in lowest terms
        d = lcm(cd, sd)
        vars(self).update(numerators=(d, cn * (d // cd), sn * (d // sd)))

    @classmethod
    def from_numerators(cls, d: int, cn: int, sn: int) -> 'AffineRatFn':
        '''the function (cn + sn c) / d, for integers with d != 0'''
        g = _divisor(d, (cn, sn))
        f = cls.__new__(cls)
        vars(f).update(numerators=(d // g, cn // g, sn // g))
        return f

    @cached_property
    def const(self) -> Fraction:
        d, cn, _ = self.numerators
        return Fraction(cn, d)

    @cached_property
    def slope(self) -> Fraction:
        d, _, sn = self.numerators
        return Fraction(sn, d)

    def value(self, c) -> Fraction:
        d, cn, sn = self.numerators
        p, q = ratio(c)
        return Fraction(cn * q + sn * p, d * q)

    @property
    def is_zero(self) -> bool:
        return not (self.numerators[1] or self.numerators[2])

    def __add__(self, other: 'AffineRatFn') -> 'AffineRatFn':
        (d, cn, sn), (e, cm, sm) = self.numerators, other.numerators
        return AffineRatFn.from_numerators(d * e, cn * e + cm * d, sn * e + sm * d)

    def __sub__(self, other: 'AffineRatFn') -> 'AffineRatFn':
        (d, cn, sn), (e, cm, sm) = self.numerators, other.numerators
        return AffineRatFn.from_numerators(d * e, cn * e - cm * d, sn * e - sm * d)

    def __neg__(self) -> 'AffineRatFn':
        d, cn, sn = self.numerators
        return AffineRatFn.from_numerators(d, -cn, -sn)

    def __str__(self) -> str:
        if self.slope == 0:
            return str(self.const)
        tail = f'{abs(self.slope)} c'
        if self.const == 0:
            return tail if self.slope > 0 else f'-{tail}'
        sign = '+' if self.slope > 0 else '-'
        return f'{self.const} {sign} {tail}'


class LogPair(Frozen):
    '''
    boundary divisor on a resolution, scaled by the symbol c

    The constructor takes (component, mult) parts, where a component is a
    generator name, a DivClass or a (label, DivClass) pair, and validates
    the pair (``failures``): a label names one class, and a generator's name
    only with that generator's class.  ``boundary`` holds (component name or
    None, class on the resolution, multiplicity); the component classes are
    the proper transforms of the honest curves downstairs, so the
    cycle-level order along a contracted curve comes from the pullback
    solve, never from raw coordinates.
    '''

    # open coefficient range: -(K + cC) = (1 - 2c)(-K) is ample for c < 1/2, 0 at 1/2
    c_lo, c_hi = Fraction(0), Fraction(1, 2)

    def __init__(self, surface: SurfaceModel, parts):
        rows = []
        for comp, mult in parts:
            if isinstance(comp, str):
                label, cl = comp, surface.gen(comp)
            elif isinstance(comp, DivClass):
                label, cl = None, comp
            else:
                label, cl = comp
            rows.append((label, cl, rational(mult)))
        vars(self).update(surface=surface, boundary=tuple(rows))
        self.validate()

    @cached_property
    def proper_transform(self) -> DivClass:
        '''sum of the components' proper transforms, with multiplicities'''
        return combination(self.surface.lattice,
                           [(mult, comp) for _, comp, mult in self.boundary])

    @cached_property
    def _boundary_pullback(self) -> tuple[int, tuple[int, ...], tuple[int, ...], int, int]:
        '''
        (db, bs, os, kn, kd): the full pullback B of the boundary cycle is
        bs / db, the contracted curve s enters it with coefficient os[s] /
        db, and k = kn da / (kd db) is the coefficient of its orthogonal
        projection to A = pull(-K) = xs / da, or 0 when A.A = 0

        With G / dg the scaled Gram matrix, B.A = bs G xs / (db da dg) and
        A.A = xs G xs / (da^2 dg), so (kn, kd) is (bs G xs, xs G xs), or
        (0, 1).  Then B = k A if and only if bs kd = kn xs.
        '''
        m = self.surface
        db, bs, os = pullback_numerators(m, *self.proper_transform.numerators)
        _, xs = m.anticanonical_pullback.numerators
        gas = [sum(map(mul, row, xs)) for row in m.lattice.scaled_gram[1]]
        kd = sum(map(mul, xs, gas))
        kn = sum(map(mul, bs, gas)) if kd else 0
        return db, bs, os, kn, kd or 1

    @cached_property
    def anticanonical_factor(self) -> Fraction:
        '''k with boundary class = k * anticanonical; 2 for the usual pairs,
        0 for an empty boundary'''
        db, _, _, kn, kd = self._boundary_pullback
        da, _ = self.surface.anticanonical_pullback.numerators
        return Fraction(kn * da, kd * db)

    def boundary_order(self, name: str) -> Fraction:
        '''order of the boundary along a named curve of the resolution

        A contracted curve gets the coefficient the components force in the
        pullback cycle; anything else gets its summed multiplicity.
        '''
        if name in self.surface.contracted:
            db, _, os, _, _ = self._boundary_pullback
            return Fraction(os[self.surface.contracted.index(name)], db)
        self.curve(name)
        return sum((mult for n, _, mult in self.boundary if n == name),
                   Fraction(0))

    def curve(self, name: str) -> DivClass:
        '''the class of the boundary part labelled name, or else of the
        generator called name, the one lookup of a curve name on the pair'''
        for n, cl, _ in self.boundary:
            if n == name:
                return cl
        if name not in self.surface.gen_index:
            raise ConfigurationError(
                f'{self.surface.name}: {name!r} is neither a generator nor a '
                'boundary component label')
        return self.surface.gen(name)

    def failures(self) -> tuple[str, ...]:
        problems = []
        classes = dict(self.surface.mori_gens)
        for n, cl, mult in self.boundary:
            if mult < 0:
                problems.append(f'component {n or "?"} has negative multiplicity {mult}')
            if n is not None and n in self.surface.contracted:
                problems.append(f'component {n} is a contracted curve, not a curve downstairs')
            if n is not None and classes.setdefault(n, cl) != cl:
                problems.append(f'label {n!r} names two classes')
        db, bs, _, kn, kd = self._boundary_pullback
        _, xs = self.surface.anticanonical_pullback.numerators
        if kn * kd < 0 or any(b * kd != kn * x for b, x in zip(bs, xs)):
            coords = ', '.join(map(str, DivClass(self.surface.lattice, db, bs).coords))
            problems.append(f'boundary class ({coords}) is not a non-negative '
                            'multiple of the anticanonical class')
        if self.surface.degree <= 0:
            problems.append('degree is not positive, the scaled polarisation cannot be ample')
        return tuple(problems)

    def validate(self) -> None:
        problems = self.failures()
        if problems:
            raise ConfigurationError(
                f'{self.surface.name}: ' + '; '.join(problems))


def coefficient(c) -> Fraction:
    '''c read by ``rational``; every statement at a coefficient refuses one
    outside the open range (LogPair.c_lo, LogPair.c_hi)'''
    c = rational(c)
    if not LogPair.c_lo < c < LogPair.c_hi:
        raise ConfigurationError(f'coefficient {c} outside the admissible range '
                                 f'({LogPair.c_lo}, {LogPair.c_hi})')
    return c


class ValuationSpec(Frozen):
    '''
    divisorial valuation with its empty-boundary log discrepancy ``a_x``
    and the order ``ord_b`` of the boundary along it

    ``e_class`` is the valuation's divisor on ``model``, which is either the
    resolution ``base`` itself (the valuation is one of its curves) or a
    one-step blow-up extension of it (``on_extension``).  The tag marks
    torus equivariance: vertical valuations may vanish only at a boundary
    of the stable locus, a nonzero horizontal margin can always be flipped
    into a destabilising direction.
    '''

    def __init__(self, name: str, model: SurfaceModel, e_class: DivClass, a_x: Fraction,
                 ord_b: Fraction, tag: str = 'plain', base: SurfaceModel | None = None):
        if tag not in TAGS:
            raise ConfigurationError(f'unknown equivariance tag {tag!r}')
        if a_x < 0:
            raise ConfigurationError(f'{name}: log discrepancy {a_x} < 0 over the surface')
        if ord_b < 0:
            raise ConfigurationError(f'{name}: boundary order {ord_b} < 0')
        vars(self).update(name=name, model=model, base=model if base is None else base,
                          e_class=e_class, a_x=a_x, ord_b=ord_b, tag=tag)

    @cached_property
    def origin(self) -> DivClass:
        '''the pullback of the base's -K to the model, where the valuation's
        ray starts'''
        origin = self.base.anticanonical_pullback
        return origin if self.model is self.base else self.model.pullback(origin)

    @classmethod
    def on_surface(cls, p: LogPair, name: str, tag: str = 'plain') -> 'ValuationSpec':
        '''a named curve of the resolution: a declared generator, a
        contracted curve, or a labelled boundary component; a_x = 1 plus the
        stored discrepancy when the curve is contracted'''
        m = p.surface
        a_x = Fraction(1) + m.discrepancy.get(name, Fraction(0))
        return cls(name, m, p.curve(name), a_x, p.boundary_order(name), tag)

    @classmethod
    def on_extension(cls, p: LogPair, center: BlowupCenter, name: str = '',
                     tag: str = 'plain', ord_b=None) -> 'ValuationSpec':
        '''the exceptional divisor of the pair surface's blow-up at ``center``

        The centre order of a base generator is its ord in
        ``center.orders``, 0 when it is not listed.  ``a_x`` is the
        discrepancy over the base corrected by any contracted curves
        through the centre.  ``ord_b`` defaults to the boundary
        multiplicities pushed through their centre orders; that sum is a
        lower bound when the boundary has a labelled component, whose order
        the centre data does not give, and a stated ``ord_b`` below it is a
        ConfigurationError.
        '''
        m, ext, orders = p.surface, p.surface.extension(center), center.orders
        a_x = ext.a_over_base + sum([m.discrepancy[n] * orders.get(n, 0)
                                     for n in m.contracted])
        labelled = [n for n, _, _ in p.boundary if n not in m.gen_index]
        lower = sum([mult * orders.get(n, 0) for n, _, mult in p.boundary if n in m.gen_index]
                    + [p.boundary_order(n) * orders[n] for n in m.contracted if n in orders],
                    Fraction(0))
        if ord_b is None and labelled:
            n = labelled[0]
            raise ConfigurationError(
                f'component {"without a label" if n is None else repr(n)} has no centre '
                'data on the extension; pass ord_b explicitly')
        ord_b = lower if ord_b is None else rational(ord_b)
        if ord_b < lower:
            raise ConfigurationError(
                f'stated ord_b {ord_b} is below {lower}, the order of the boundary '
                'curves with centre data')
        return cls(name or center.exc_name, ext, ext.e_class, a_x, ord_b,
                   tag, base=m)


def _check_pairing(p: LogPair, v: ValuationSpec) -> None:
    if v.base != p.surface:
        raise ConfigurationError(
            f'valuation {v.name} does not live over surface {p.surface.name}')


def log_discrepancy(p: LogPair, v: ValuationSpec) -> AffineRatFn:
    '''a_x - ord_b * c, the log discrepancy of the scaled pair'''
    _check_pairing(p, v)
    a, b = v.a_x, v.ord_b
    return AffineRatFn.from_numerators(a.denominator * b.denominator, a.numerator * b.denominator,
                                       -b.numerator * a.denominator)


def valuation_profile(v: ValuationSpec) -> VolumeProfile:
    '''volume profile of the anticanonical class along the valuation ray'''
    return volume_profile(v.model, v.origin, v.e_class)


def s_invariant(p: LogPair, v: ValuationSpec) -> AffineRatFn:
    '''
    expected vanishing order along the valuation, as a function of c

    Because the boundary class is k times the anticanonical class (k = 2
    for the pairs of interest), scaling by c only rescales the polarisation
    by (1 - kc), so the integral computed once at c = 0 carries the whole
    c-dependence.  The integral depends only on the model and the ray, so
    each model keeps it per ray, beside the ray's threshold tau, and
    valuations that walk the same ray of the same model share one walk.

    The pullback of the boundary less ord_b times the valuation's divisor
    is effective, so ord_b <= k tau; a larger ord_b is a
    ConfigurationError.
    '''
    _check_pairing(p, v)
    integrals = v.model.ray_integrals
    ray = v.origin.numerators, v.e_class.numerators
    walked = integrals.get(ray)
    if walked is None:
        profile = valuation_profile(v)
        walked = integrals[ray] = integrate_profile(profile), profile.tau
    total, tau = walked
    deg, k, b = p.surface.degree, p.anticanonical_factor, v.ord_b
    if b.numerator * k.denominator * tau.denominator > k.numerator * tau.numerator * b.denominator:
        raise ConfigurationError(
            f'valuation {v.name}: ord_b {b} is above {k * tau}, the anticanonical factor '
            f'{k} times the threshold {tau} of its ray')
    # s = total / degree and the slope is -k s
    s = total.numerator * deg.denominator
    return AffineRatFn.from_numerators(total.denominator * deg.numerator * k.denominator,
                                       s * k.denominator, -s * k.numerator)


def beta(p: LogPair, v: ValuationSpec) -> AffineRatFn:
    '''destabilising margin A - S: log discrepancy minus expected vanishing
    order'''
    return log_discrepancy(p, v) - s_invariant(p, v)


class WallSolve(Frozen):
    '''root of an affine margin inside an open interval, if any'''

    def __init__(self, root: Fraction | None, identically_zero: bool = False):
        vars(self).update(root=root, identically_zero=identically_zero)


def solve_wall(b: AffineRatFn, lo=LogPair.c_lo, hi=LogPair.c_hi) -> WallSolve:
    '''
    unique root of b inside the open interval (lo, hi)

    The identically-zero margin is reported as its own outcome rather than
    a wall; a constant nonzero margin has no root.

    TESTS:
        >>> solve_wall(AffineRatFn(Fraction(2, 15), Fraction(-34, 15))).root
        Fraction(1, 17)
        >>> solve_wall(AffineRatFn(0, 0)).identically_zero
        True
        >>> solve_wall(AffineRatFn(1, -1)).root is None
        True
    '''
    (ln, ld), (hn, hd) = ratio(lo), ratio(hi)
    _, cn, sn = b.numerators
    if not sn:
        return WallSolve(None, identically_zero=not cn)
    # the root -cn / sn as rn / rd with rd > 0
    rn, rd = (-cn, sn) if sn > 0 else (cn, -sn)
    if ln * rd < rn * ld and rn * hd < hn * rd:
        return WallSolve(Fraction(rn, rd))
    return WallSolve(None)


class Verdict(str, Enum):
    POLYSTABLE = 'polystable'
    SEMISTABLE_BOUNDARY = 'semistable-boundary'
    UNSTABLE = 'unstable'


class StabilityReport(Frozen):
    '''outcome of polystability_check'''

    def __init__(self, verdict: Verdict, c: Fraction, margins: tuple[tuple[str, Fraction], ...],
                 witnesses: tuple[tuple[str, Fraction], ...]):
        vars(self).update(verdict=verdict, c=c, margins=margins, witnesses=witnesses)


def polystability_check(p: LogPair, vs, c) -> StabilityReport:
    '''
    equivariant verdict at a fixed coefficient

    Polystable iff every vertical margin is positive and every horizontal
    margin vanishes; any negative margin, or a nonzero horizontal one, is
    destabilising, and a vanishing vertical margin signals the boundary of
    the stable region.  Vanishing of the horizontal margins stands in for
    the full vector-field character; a nonzero value flips to a
    destabilising direction under the torus.
    '''
    if not vs:
        raise ConfigurationError('polystability needs the equivariant valuation list')
    c = coefficient(c)
    values = [(v, beta(p, v).value(c)) for v in vs]
    margins = tuple((v.name, x) for v, x in values)
    negative = tuple((v.name, x) for v, x in values if x < 0)
    if negative:
        return StabilityReport(Verdict.UNSTABLE, c, margins, negative)
    twisted = tuple((v.name, x) for v, x in values
                    if v.tag == 'horizontal' and x != 0)
    if twisted:
        return StabilityReport(Verdict.UNSTABLE, c, margins, twisted)
    grazing = tuple((v.name, x) for v, x in values
                    if v.tag == 'vertical' and x == 0)
    if grazing:
        return StabilityReport(Verdict.SEMISTABLE_BOUNDARY, c, margins, grazing)
    return StabilityReport(Verdict.POLYSTABLE, c, margins, ())


def quotient_order_bound(pair_degree) -> Fraction:
    '''
    largest order of a local quotient group compatible with semistability

    The local volume of a quotient point is 4 over the group order and can
    never drop below four ninths of the degree, so the order is at most
    9/degree.

    TESTS:
        >>> quotient_order_bound(Fraction(9))
        Fraction(1, 1)
    '''
    d = rational(pair_degree)
    if d <= 0:
        raise ConfigurationError(f'degree {d} is not positive')
    return 9 / d


def index_feasibility(d: int, n: int, c, ord_lower) -> bool:
    '''
    can a 1/(d n^2) (1, d n a - 1) point survive at coefficient c?

    Exact test of d n^2 * (4/9) * 5 (1-2c)^2 <= (2 - c * ord)^2, using a
    lower bound for the order of the boundary at the point.
    '''
    if d < 1 or n < 1:
        raise ConfigurationError(f'index data d={d}, n={n} must be positive integers')
    c = coefficient(c)
    ord_lower = rational(ord_lower)
    if ord_lower < 0:
        raise ConfigurationError(f'negative boundary order bound {ord_lower}')
    lhs = Fraction(d * n * n) * Fraction(4, 9) * 5 * (1 - 2 * c) ** 2
    return lhs <= (2 - c * ord_lower) ** 2


def vgit_slope(c) -> Fraction:
    '''
    slope matching the quartic-curve variation of GIT at coefficient c, on
    the VGIT range [VGIT_LO, LogPair.c_hi)

    TESTS:
        >>> vgit_slope(Fraction(1, 4))
        Fraction(5, 2)
        >>> vgit_slope(Fraction(11, 28))
        Fraction(10, 7)
    '''
    c = coefficient(c)
    if c < VGIT_LO:
        raise ConfigurationError(f'coefficient {c} outside [{VGIT_LO}, {LogPair.c_hi})')
    return (25 - 20 * c) / (28 * c + 1)
