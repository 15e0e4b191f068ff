'''
Surface models.

A singular surface is always handled through a resolution: an intersection
lattice, the canonical class of the resolution, a declared finite list of
extremal effective curves ("mori generators"), and the subset of generators
contracted to reach the singular target, with their canonical discrepancies.
The list of generators is declared data, not computed; completeness is the
config author's obligation and every consumer treats it as such.

Two pullback mechanisms live here: the numerical pullback of a Weil divisor
through a contraction (orthogonality against the contracted curves), and the
lattice extension of a weight-(a, b) blow-up at a smooth point.
'''
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Mapping, Sequence

from .lattice import (
    DivClass,
    EngineError,
    IntersectionLattice,
    SingularSystem,
    bareiss,
    integral_matrix,
    pair,
    rational,
    rational_str,
    rational_vector,
    validate_lattice,
)


class ConfigurationError(EngineError):
    '''model data is internally inconsistent'''


@dataclass(frozen=True)
class GeneratorTable:
    '''
    the declared generators of a model compiled to integers

    With C / den the generator coordinates and G / dg the lattice's scaled
    Gram matrix:

        - ``den`` -- the common denominator of the generator coordinates
        - ``rows`` -- R = C G, so gen_i . x = R[i] . xs / (den dg dx) for
          a class with coordinates xs / dx
        - ``pairing`` -- M = R C^T, so gen_i . gen_j = M[i][j] / (den^2 dg)
    '''
    den: int
    rows: tuple[tuple[int, ...], ...]
    pairing: tuple[tuple[int, ...], ...]

    def pairings(self, xs: Sequence[int]) -> list[int]:
        '''R xs: every generator paired with a class of numerators xs'''
        return [sum(map(mul, row, xs)) for row in self.rows]


@dataclass(frozen=True)
class SurfaceModel:
    '''
    resolution-side model of a (possibly singular) projective surface

    Fields:
        - ``name`` -- identifier used in reports
        - ``lattice`` -- Neron-Severi lattice of the resolution
        - ``canonical`` -- class of K on the resolution
        - ``mori_gens`` -- named extremal effective curve classes
        - ``contracted`` -- generator names contracted to reach the target
        - ``k_discrepancies`` -- (name, a) pairs with
          K_res = pull(K_target) + sum a_j C_j over the contracted curves
    '''
    name: str
    lattice: IntersectionLattice
    canonical: DivClass
    mori_gens: tuple[tuple[str, DivClass], ...]
    contracted: tuple[str, ...] = ()
    k_discrepancies: tuple[tuple[str, Fraction], ...] = ()

    @property
    def gen_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.mori_gens)

    def gen(self, name: str) -> DivClass:
        for n, c in self.mori_gens:
            if n == name:
                return c
        raise KeyError(f'{self.name}: no generator {name!r}; have {list(self.gen_names)}')

    @cached_property
    def gen_index(self) -> Mapping[str, int]:
        '''generator name -> its position in ``mori_gens``'''
        return {n: i for i, n in enumerate(self.gen_names)}

    @cached_property
    def gen_table(self) -> GeneratorTable:
        '''the generators as integer rows and their pairing matrix'''
        _, gram = self.lattice.scaled_gram
        den, cs = integral_matrix([c.coords for _, c in self.mori_gens])
        cols = list(zip(*gram))
        rows = tuple([tuple([sum(map(mul, c, col)) for col in cols]) for c in cs])
        return GeneratorTable(den, rows, tuple([tuple([sum(map(mul, r, c)) for c in cs])
                                                for r in rows]))

    @cached_property
    def _support_grams(self) -> dict:
        '''support tuple -> its rows of the generator pairing matrix, or None
        when that is not negative definite; filled as supports are first
        solved'''
        return {}

    @cached_property
    def discrepancy(self) -> Mapping[str, Fraction]:
        d = dict(self.k_discrepancies)
        for n in self.contracted:
            d.setdefault(n, Fraction(0))
        return d

    @cached_property
    def contracted_classes(self) -> tuple[DivClass, ...]:
        return tuple(self.gen(n) for n in self.contracted)

    @cached_property
    def canonical_pullback(self) -> DivClass:
        '''pull(K_target) = K_res - sum a_j C_j'''
        out = self.canonical
        for n in self.contracted:
            out = out - self.discrepancy[n] * self.gen(n)
        return out

    @cached_property
    def anticanonical_pullback(self) -> DivClass:
        return -self.canonical_pullback

    @cached_property
    def degree(self) -> Fraction:
        return pair(self.canonical_pullback, self.canonical_pullback)

    def failures(self) -> tuple[str, ...]:
        '''all validation failures, empty when the model is consistent'''
        out: list[str] = []
        rep = validate_lattice(self.lattice)
        out.extend(f'{self.name}: {f}' for f in rep.failures)
        known = set(self.gen_names)
        for n in self.contracted:
            if n not in known:
                out.append(f'{self.name}: contracted curve {n!r} is not a declared generator')
        if set(dict(self.k_discrepancies)) - set(self.contracted):
            out.append(f'{self.name}: discrepancy given for a non-contracted curve')
        if out:
            return tuple(out)
        if self.contracted:
            try:
                support_solve(self, self.contracted, [()] * len(self.contracted))
            except ConfigurationError:
                out.append(f'{self.name}: contracted curves are not negative definite')
        pk = self.canonical_pullback
        for n in self.contracted:
            if pair(pk, self.gen(n)) != 0:
                out.append(f'{self.name}: pull(K) not orthogonal to contracted curve {n}')
        if self.degree <= 0:
            out.append(f'{self.name}: anticanonical degree {self.degree} is not positive')
        integral_gram = all(x.denominator == 1 for row in self.lattice.gram for x in row)
        for n, c in self.mori_gens:
            c2, kc = pair(c, c), pair(self.canonical, c)
            if not (c2 < 0 or kc < 0):
                out.append(f'{self.name}: generator {n} has C.C = {c2} >= 0 and K.C = {kc} >= 0')
            if integral_gram and c2 < 0 and all(x.denominator == 1 for x in c.coords):
                g = c2 + kc
                if g.denominator != 1 or g % 2 != 0 or g < -2:
                    out.append(f'{self.name}: generator {n} fails adjunction (C.C + K.C = {g})')
        return tuple(out)

    def validate(self) -> 'SurfaceModel':
        fails = self.failures()
        if fails:
            raise ConfigurationError('; '.join(fails))
        return self


def support_solve(model: SurfaceModel, support: tuple[str, ...], cols):
    '''
    the orthogonal-complement solve, in integers: (det, ys) with det > 0 and
    sum_s ys[s] M[s][t] = det cols[t] for every curve t of the support,
    where M is the generator pairing matrix of ``model.gen_table``

    ``cols`` has one row per support curve and one entry per right-hand
    side, and so does ``ys``.  When cols[t] holds the pairings R[t] . xs of
    a class d with numerators xs / dx, then a_s = den ys[s] / (det dx) are
    the coefficients with d - sum a_s C_s orthogonal to the support.

    The support must be negative definite (ConfigurationError otherwise).
    The elimination that solves a support's first system also decides
    that, and the verdict is cached on the model.
    '''
    if not support:
        return 1, ()
    grams = model._support_grams
    if support not in grams:
        m = model.gen_table.pairing
        idx = [model.gen_index[n] for n in support]
        gram = [[m[i][j] for j in idx] for i in idx]
        try:
            det, ys, definite = bareiss(gram, cols)
        except SingularSystem:
            definite = False
        grams[support] = gram if definite else None
        if definite:
            return det, ys
    gram = grams[support]
    if gram is None:
        raise ConfigurationError(
            f'{model.name}: support {list(support)} is not negative definite')
    return bareiss(gram, cols)[:2]


def contraction_orders(model: SurfaceModel, d: DivClass) -> Mapping[str, Fraction]:
    '''coefficient of each contracted curve in the Weil pullback of d'''
    if not model.contracted:
        return {}
    table = model.gen_table
    dx, xs = d.numerators
    ps = table.pairings(xs)
    det, ys = support_solve(model, model.contracted,
                            [(-ps[model.gen_index[n]],) for n in model.contracted])
    return {n: Fraction(table.den * y, det * dx) for n, (y,) in zip(model.contracted, ys)}


def pullback_weil(model: SurfaceModel, d: DivClass) -> DivClass:
    '''
    numerical pullback of a Weil divisor class given by its proper transform

    Adds the unique combination of contracted curves making the result
    orthogonal to every contracted curve.

    TESTS (empty contraction is the identity):
        >>> import kwall.lattice as kl
        >>> lat = kl.IntersectionLattice.diagonal(('h',), (1,))
        >>> m = SurfaceModel('p2', lat, lat.div((-3,)), (('line', lat.basis('h')),))
        >>> pullback_weil(m, lat.basis('h')).coords
        (Fraction(1, 1),)
    '''
    out = d
    for x, c in zip(contraction_orders(model, d).values(), model.contracted_classes):
        out = out + x * c
    return out


@dataclass(frozen=True)
class BlowupCenter:
    '''
    description of a weight-(a, b) blow-up at a smooth point of a model

    ``through`` lists (generator name, ord of that curve along the new
    exceptional divisor); generators not listed miss the center.
    ``extra_mori`` declares curves that only become extremal on the
    extension, with coordinates on the extended basis.
    '''
    weights: tuple[int, int] = (1, 1)
    exc_name: str = 'exc'
    through: tuple[tuple[str, Fraction], ...] = ()
    extra_mori: tuple[tuple[str, tuple[Fraction, ...]], ...] = ()

    @classmethod
    def make(cls, weights=(1, 1), exc_name='exc', through=(), extra_mori=()) -> 'BlowupCenter':
        if len(weights) != 2:
            raise ConfigurationError(f'weights {list(weights)} are not two integers')
        return cls(
            (int(weights[0]), int(weights[1])),
            exc_name,
            tuple((n, rational(m)) for n, m in (through.items() if isinstance(through, dict) else through)),
            tuple((n, rational_vector(v)) for n, v in extra_mori),
        )


@dataclass(frozen=True)
class BlowupExtension:
    '''
    rank+1 model produced by build_blowup_extension

    ``model`` is the extension viewed as a SurfaceModel (same contracted set
    as the base); ``e_class`` is the new exceptional divisor class with
    e.e = -1/(a b), and ``a_over_base`` = a + b is the log discrepancy of e
    over the base surface with empty boundary.
    '''
    base: SurfaceModel
    model: SurfaceModel
    e_class: DivClass
    a_over_base: Fraction

    def pullback(self, d: DivClass) -> DivClass:
        '''isometric pullback of a base class (zero e-coefficient)'''
        if d.lattice != self.base.lattice:
            raise ValueError('class does not live on the base lattice')
        return self.model.lattice.div(d.coords + (Fraction(0),))


def build_blowup_extension(base: SurfaceModel, center: BlowupCenter) -> BlowupExtension:
    '''
    extend a model by one weight-(a, b) blow-up at a smooth point

    The new basis vector e satisfies e.e = -1/(a b) and is orthogonal to the
    pulled-back base lattice, so pullback is an isometry onto the complement
    of e. A base generator C listed in ``through`` with ord m transforms to
    pull(C) - m e; the exceptional e joins the generator list.
    '''
    a, b = center.weights
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise ConfigurationError(f'weights {center.weights} are not coprime positive integers')
    if center.exc_name in base.lattice.names:
        raise ConfigurationError(f'name {center.exc_name!r} already used in the base lattice')
    through = dict(center.through)
    unknown = set(through) - set(base.gen_names)
    if unknown:
        raise ConfigurationError(f'through-curves {sorted(unknown)} are not declared generators')
    if any(m < 0 for m in through.values()):
        raise ConfigurationError('negative multiplicity in center data')

    r = base.lattice.rank
    e2 = Fraction(-1, a * b)
    names = base.lattice.names + (center.exc_name,)
    rows = tuple(
        tuple(base.lattice.gram[i]) + (Fraction(0),) for i in range(r)
    ) + ((Fraction(0),) * r + (e2,),)
    lat = IntersectionLattice(names, rows)

    def lift(d: DivClass) -> DivClass:
        return lat.div(d.coords + (Fraction(0),))

    e = lat.basis(center.exc_name)
    a_over = Fraction(a + b)
    canonical = lift(base.canonical) + (a_over - 1) * e

    gens: list[tuple[str, DivClass]] = []
    for n, c in base.mori_gens:
        m = through.get(n, Fraction(0))
        ct = lift(c) - m * e
        if (a, b) == (1, 1) and m.denominator == 1 and all(x.denominator == 1 for x in c.coords):
            # ordinary blow-up: arithmetic genus may not drop below a point
            g_after = pair(ct, ct) + pair(canonical, ct)
            if g_after < -2:
                raise ConfigurationError(
                    f'ord {m} along {center.exc_name} is inconsistent for curve {n}')
        gens.append((n, ct))
    gens.append((center.exc_name, e))
    for n, v in center.extra_mori:
        if len(v) != r + 1:
            raise ConfigurationError(f'extra generator {n} has wrong length')
        gens.append((n, lat.div(v)))

    model = SurfaceModel(
        name=f'{base.name}^{center.exc_name}({a},{b})',
        lattice=lat,
        canonical=canonical,
        mori_gens=tuple(gens),
        contracted=base.contracted,
        k_discrepancies=base.k_discrepancies,
    )

    # pullback is an isometry onto the complement of e
    zero = Fraction(0)
    if (any(lat.gram[i] != (*base.lattice.gram[i], zero) for i in range(r))
            or lat.gram[r] != (zero,) * r + (e2,)):
        raise ConfigurationError(f'{model.name}: the extension does not restrict '
                                 f'to the base lattice')

    return BlowupExtension(base=base, model=model, e_class=e, a_over_base=a_over)


def surface_to_doc(model: SurfaceModel) -> dict:
    '''JSON document for a surface model (rationals as "p/q" strings)'''
    return {
        'name': model.name,
        'basis': list(model.lattice.names),
        'gram': [[rational_str(x) for x in row] for row in model.lattice.gram],
        'canonical': [rational_str(x) for x in model.canonical.coords],
        'mori': [{'name': n, 'class': [rational_str(x) for x in c.coords]}
                 for n, c in model.mori_gens],
        'contracted': list(model.contracted),
        'k_discrepancies': {n: rational_str(x) for n, x in model.k_discrepancies},
    }


def surface_from_doc(doc: Mapping) -> SurfaceModel:
    '''parse and validate a surface document'''
    try:
        lat = IntersectionLattice.from_rows(tuple(doc['basis']), doc['gram'])
        model = SurfaceModel(
            name=str(doc.get('name', 'surface')),
            lattice=lat,
            canonical=lat.div(doc['canonical']),
            mori_gens=tuple((g['name'], lat.div(g['class'])) for g in doc['mori']),
            contracted=tuple(doc.get('contracted', ())),
            k_discrepancies=tuple((n, rational(x))
                                  for n, x in doc.get('k_discrepancies', {}).items()),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ConfigurationError(f'bad surface document: {exc}') from exc
    return model.validate()
