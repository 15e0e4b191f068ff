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
from typing import Mapping, Sequence

from .lattice import (
    DivClass,
    EngineError,
    IntersectionLattice,
    integral_matrix,
    is_negative_definite,
    pair,
    rational,
    rational_str,
    rational_vector,
    solve_linear,
    validate_lattice,
)


class ConfigurationError(EngineError):
    '''model data is internally inconsistent'''


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
    def gen_pairing(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        '''(d, rows) with rows[i][j] / d = gen_i . gen_j'''
        cs = [c for _, c in self.mori_gens]
        m = [[Fraction(0)] * len(cs) for _ in cs]
        for i, a in enumerate(cs):
            for j in range(i, len(cs)):
                m[i][j] = m[j][i] = pair(a, cs[j])
        return integral_matrix(m)

    @cached_property
    def _support_grams(self) -> dict:
        '''support tuple -> its Gram matrix, or None when that is not
        negative definite; filled as supports are first solved'''
        return {}

    def support_gram(self, support: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
        '''Gram matrix of a negative definite set of generators, scaled to
        integers by the denominator of gen_pairing'''
        try:
            gram = self._support_grams[support]
        except KeyError:
            _, m = self.gen_pairing
            idx = [self.gen_index[n] for n in support]
            gram = tuple([tuple([m[i][j] for j in idx]) for i in idx])
            if not is_negative_definite(gram):
                gram = None
            self._support_grams[support] = gram
        if gram is None:
            raise ConfigurationError(
                f'{self.name}: support {list(support)} is not negative definite')
        return gram

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
                self.support_gram(self.contracted)
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


def support_solve(model: SurfaceModel, support: tuple[str, ...], rhs):
    '''
    the orthogonal-complement solve: coefficients a_s with
    sum_s a_s (C_s . C_t) = b_t for every curve C_t of the support, so that
    d - sum a_s C_s is orthogonal to the support when b_t = d . C_t

    ``rhs`` has one row per support curve and one column per right-hand
    side, and so does the result.  The support must be negative definite
    (ConfigurationError otherwise); its Gram matrix and that verdict are
    cached on the model.
    '''
    if not support:
        return ()
    d = model.gen_pairing[0]
    return solve_linear(model.support_gram(support),
                        [[d * x for x in row] for row in rhs])


def contraction_orders(model: SurfaceModel, d: DivClass) -> Mapping[str, Fraction]:
    '''coefficient of each contracted curve in the Weil pullback of d'''
    coeffs = support_solve(model, model.contracted,
                           [(-pair(d, c),) for c in model.contracted_classes])
    return {n: x for n, (x,) in zip(model.contracted, coeffs)}


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

    for i in range(r):
        bi = base.lattice.div(tuple(1 if j == i else 0 for j in range(r)))
        assert pair(lift(bi), e) == 0
        for j in range(i, r):
            bj = base.lattice.div(tuple(1 if m == j else 0 for m in range(r)))
            assert pair(lift(bi), lift(bj)) == pair(bi, bj)

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
