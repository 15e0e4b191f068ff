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
lattice extension of a weight-(a, b) blow-up at a smooth point.  One
blow-up is one ExtensionModel: the blown-up surface, a SurfaceModel with no
contracted curve that keeps its center, its exceptional class and the
pullback from the base, built once per center by its base (``extension``).
'''
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

from .lattice import (
    DivClass,
    EngineError,
    Frozen,
    IntersectionLattice,
    Value,
    cached_property,
    check_on,
    combination,
    pair,
    pivot,
    rational,
    validate_lattice,
)


class ConfigurationError(EngineError):
    '''model data is internally inconsistent'''


def _numerator_rows(mori_gens) -> tuple[int, tuple[tuple[int, ...], ...]]:
    '''(den, C): the generators' coordinates as integer rows C over their
    least common denominator den'''
    nums = [c.numerators for _, c in mori_gens]
    den = lcm(*[d for d, _ in nums])
    return den, tuple([xs if d == den else tuple([x * (den // d) for x in xs])
                       for d, xs in nums])


def _repeated(names: Sequence[str]) -> str | None:
    '''the first name that appears a second time in names, if one does'''
    return next((n for i, n in enumerate(names) if n in names[:i]), None)


def _string(what: str, x) -> str:
    '''x, when it is a string; the TypeError names what x is'''
    if not isinstance(x, str):
        raise TypeError(f'{what} {x!r} is not a string')
    return x


def _products(cs, cols) -> list[tuple[int, ...]]:
    '''each row of cs paired with each of cols'''
    return [tuple([sum(map(mul, c, col)) for col in cols]) for c in cs]


class GeneratorTable(Frozen):
    '''
    the declared generators of a model compiled to integers

    With C / den the generator coordinates and G / dg the lattice's scaled
    Gram matrix:

        - ``den`` -- the common denominator of the generator coordinates
        - ``gens`` -- C, one row of integer numerators per generator
        - ``rows`` -- R = C G, so gen_i . x = R[i] . xs / (den dg dx) for
          a class with coordinates xs / dx
        - ``pairing`` -- M = R C^T, so gen_i . gen_j = M[i][j] / (den^2 dg)

    A base model's table is built by these two dense products; a blow-up
    extension's is bordered from its base's (``bordered``).
    '''

    def __init__(self, den: int, gens: tuple[tuple[int, ...], ...],
                 rows: tuple[tuple[int, ...], ...], pairing: tuple[tuple[int, ...], ...]):
        vars(self).update(den=den, gens=gens, rows=rows, pairing=pairing)

    def bordered(self, lam: int, lattice: IntersectionLattice, mori_gens) -> 'GeneratorTable':
        '''
        the table of a blow-up extension of this table's model

        ``lattice`` is the base lattice bordered by e, with scaled Gram
        matrix G' / dE: its base block is lam G for lam = dE / dg, an
        integer because G / dg is in lowest terms, and its last diagonal
        entry is eps = -dE / (a b).  ``mori_gens`` are the base generators
        in their order, each with its e-coordinate appended, then e and the
        extra curves.  With den' their common denominator, kappa = den' /
        den and mu_i the e-numerator of base generator i, the base
        generators' numerators are (kappa C_i, mu_i), so

            R'_i = (kappa lam R_i, mu_i eps)
            M'_ij = kappa^2 lam M_ij + mu_i mu_j eps

        and the rows of e and of the extra curves are products against G'.
        M' is symmetric, so their rows of M' also give the base rows their
        new columns.  A base generator that misses the center (mu_i = 0)
        keeps R_i and M_i when kappa lam = 1, and is passed through.
        '''
        den, cs = _numerator_rows(mori_gens)
        _, gram = lattice.scaled_gram
        eps, b, kappa = gram[-1][-1], len(self.gens), den // self.den
        mus = [c[-1] for c in cs[:b]]
        kl, k2l = kappa * lam, kappa * kappa * lam
        new_rows = _products(cs[b:], list(zip(*gram)))
        new_pairing = _products(new_rows, cs)
        rows, pairing = [], []
        for row, m, mu, new_cols in zip(self.rows, self.pairing, mus, zip(*new_pairing)):
            if mu or kl != 1:
                row = [kl * x for x in row]
                m = [k2l * x + mu * nu * eps for x, nu in zip(m, mus)]
            rows.append((*row, mu * eps))
            pairing.append((*m, *new_cols))
        return GeneratorTable(den, cs, tuple(rows + new_rows), tuple(pairing + new_pairing))

    @cached_property
    def negative(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        '''(idx, block): the positions of the generators with C.C < 0, in
        order, and their block of M, the only rows a chamber walk reads
        (``positivity.volume_profile``); M itself when every generator has
        C.C < 0'''
        m = self.pairing
        idx = tuple([i for i, row in enumerate(m) if row[i] < 0])
        if len(idx) == len(m):
            return idx, m
        return idx, tuple([tuple([m[i][j] for j in idx]) for i in idx])

    def pairings(self, xs: Sequence[int]) -> list[int]:
        '''R xs: every generator paired with a class of numerators xs'''
        return [sum(map(mul, row, xs)) for row in self.rows]

    def adjunction_sum(self, i: int, kc: int, dk: int, dg: int) -> tuple[int, int]:
        '''(g, q) with C_i.C_i + K.C_i = g / q, for a canonical class with
        numerators over dk, its pairing kc = R[i] . ks and the Gram
        denominator dg'''
        return self.pairing[i][i] * dk + kc * self.den, self.den * self.den * dg * dk


class SurfaceModel(Value):
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
    _value = ('name', 'lattice', 'canonical', 'mori_gens', 'contracted', 'k_discrepancies')

    def __init__(self, name: str, lattice: IntersectionLattice, canonical: DivClass,
                 mori_gens: tuple[tuple[str, DivClass], ...], contracted: tuple[str, ...] = (),
                 k_discrepancies: tuple[tuple[str, Fraction], ...] = ()):
        vars(self).update(name=name, lattice=lattice, canonical=canonical, mori_gens=mori_gens,
                          contracted=contracted, k_discrepancies=k_discrepancies)

    @cached_property
    def gen_names(self) -> tuple[str, ...]:
        return tuple([n for n, _ in self.mori_gens])

    def gen(self, name: str) -> DivClass:
        '''the class of the generator called name, the one generator lookup'''
        try:
            return self.mori_gens[self.gen_index[name]][1]
        except (KeyError, TypeError):
            raise ValueError(f'unknown generator {name!r} on {self.name}; '
                             f'have {list(self.gen_names)}') from None

    @cached_property
    def gen_index(self) -> Mapping[str, int]:
        '''generator name -> its position in ``mori_gens``'''
        return {n: i for i, n in enumerate(self.gen_names)}

    @cached_property
    def gen_table(self) -> GeneratorTable:
        '''the generators as integer rows and their pairing matrix'''
        den, cs = _numerator_rows(self.mori_gens)
        rows = _products(cs, list(zip(*self.lattice.scaled_gram[1])))
        return GeneratorTable(den, cs, tuple(rows), tuple(_products(rows, cs)))

    @cached_property
    def _contracted_inverse(self) -> tuple[int, list[list[int]]] | None:
        '''(det, adj) with det > 0 and adj / det = S^-1, for S the contracted
        curves' block of the generator pairing matrix, or None when S is not
        negative definite: one fraction-free elimination of (S | I) decides
        that and leaves row i of S^-1 at scale scales[i], which det brings
        to the integers adj'''
        m = self.gen_table.pairing
        idx = [self.gen_index[n] for n in self.contracted]
        k = len(idx)
        a = [[*[m[i][j] for j in idx], *[int(i == j) for j in idx]] for i in idx]
        scales = [1] * k
        det = abs(pivot(a, scales, range(k)))
        if not det:
            return None
        return det, [[det * x // d for x in row[k:]] for row, d in zip(a, scales)]

    @cached_property
    def _extensions(self) -> dict:
        '''BlowupCenter -> its ExtensionModel, filled as centers are first
        requested; the extension keeps no reference back to this model'''
        return {}

    @cached_property
    def ray_integrals(self) -> dict:
        '''(origin numerators, direction numerators) -> the exact integral
        of the volume profile along that ray and the ray's threshold tau,
        filled as the rays are first integrated (``stability.s_invariant``)'''
        return {}

    def extension(self, center: 'BlowupCenter') -> 'ExtensionModel':
        '''the blow-up extension at ``center``, built once per model and center'''
        ext = self._extensions.get(center)
        if ext is None:
            ext = self._extensions[center] = build_blowup_extension(self, center)
        return ext

    @cached_property
    def discrepancy(self) -> Mapping[str, Fraction]:
        d = dict(self.k_discrepancies)
        for n in self.contracted:
            d.setdefault(n, Fraction(0))
        return d

    @cached_property
    def canonical_pullback(self) -> DivClass:
        '''pull(K_target) = K_res - sum a_j C_j'''
        if not self.contracted:
            return self.canonical
        return combination(self.lattice, [(1, self.canonical), *(
            (-self.discrepancy[n], self.gen(n)) for n in self.contracted)])

    @cached_property
    def anticanonical_pullback(self) -> DivClass:
        return -self.canonical_pullback

    @cached_property
    def degree(self) -> Fraction:
        return pair(self.canonical_pullback, self.canonical_pullback)

    def failures(self) -> tuple[str, ...]:
        '''all validation failures, empty when the model is consistent'''
        out: list[str] = []
        out.extend(f'{self.name}: {f}' for f in validate_lattice(self.lattice))
        twice = _repeated(self.gen_names)
        if twice is not None:
            out.append(f'{self.name}: generator name {twice!r} is used twice')
        for n in self.contracted:
            if n not in self.gen_index:
                out.append(f'{self.name}: contracted curve {n!r} is not a declared generator')
        if set(dict(self.k_discrepancies)) - set(self.contracted):
            out.append(f'{self.name}: discrepancy given for a non-contracted curve')
        if out:
            return tuple(out)
        if self.contracted and self._contracted_inverse is None:
            out.append(f'{self.name}: contracted curves are not negative definite')
        # every intersection number below is an integer product over a
        # positive denominator: with table = (den, C, R, M) and G / dg the
        # scaled Gram matrix, C_i.C_i = M[i][i] / (den^2 dg) and, for a class
        # with numerators xs / dx, C_i.x = R[i] . xs / (den dg dx)
        table = self.gen_table
        den = table.den
        dg = self.lattice.scaled_gram[0]
        _, pk = self.canonical_pullback.numerators
        for n in self.contracted:
            if sum(map(mul, table.rows[self.gen_index[n]], pk)) != 0:
                out.append(f'{self.name}: pull(K) not orthogonal to contracted curve {n}')
        if self.degree <= 0:
            out.append(f'{self.name}: anticanonical degree {self.degree} is not positive')
        dk, ks = self.canonical.numerators
        for i, ((n, c), kc) in enumerate(zip(self.mori_gens, table.pairings(ks))):
            c2 = table.pairing[i][i]
            if c2 >= 0 and kc >= 0:
                out.append(f'{self.name}: generator {n} has C.C = {Fraction(c2, den * den * dg)}'
                           f' >= 0 and K.C = {Fraction(kc, den * dg * dk)} >= 0')
            if dg == 1 and c2 < 0 and c.numerators[0] == 1:
                g, q = table.adjunction_sum(i, kc, dk, dg)
                if g % q or g // q % 2 or g < -2 * q:
                    out.append(f'{self.name}: generator {n} fails adjunction '
                               f'(C.C + K.C = {Fraction(g, q)})')
        return tuple(out)

    def validate(self) -> 'SurfaceModel':
        fails = self.failures()
        if fails:
            raise ConfigurationError('; '.join(fails))
        return self


class ExtensionModel(SurfaceModel):
    '''
    a one-step blow-up X' of a base model (``build_blowup_extension``), a
    SurfaceModel with no contracted curve and K_X' = pull(K_X) + (a+b-1) e

    Besides the SurfaceModel fields it keeps its ``center``, the class
    ``e_class`` of the new exceptional divisor, with e.e = -1/(a b), and the
    base's lattice and generator table, from which its own table is
    bordered (``GeneratorTable.bordered``).  It keeps no reference to the
    base model: the base keeps its extensions, so that would make a
    reference cycle, which outlives the last reference to a decoded catalog.
    '''

    def __init__(self, base_lattice: IntersectionLattice, base_table: GeneratorTable,
                 center: 'BlowupCenter', e_class: DivClass, **fields):
        super().__init__(**fields)
        vars(self).update(base_lattice=base_lattice, base_table=base_table, center=center,
                          e_class=e_class)

    @property
    def a_over_base(self) -> Fraction:
        '''a + b, the log discrepancy of e over the base with empty boundary'''
        return Fraction(sum(self.center.weights))

    def pullback(self, d: DivClass) -> DivClass:
        '''isometric pullback of a base class (zero e-coefficient)'''
        check_on(self.base_lattice, d)
        dx, xs = d.numerators
        return DivClass(self.lattice, dx, (*xs, 0))

    @cached_property
    def gen_table(self) -> GeneratorTable:
        # lam = dE / dg, the ratio of the two scaled Gram denominators
        lam = self.lattice.scaled_gram[0] // self.base_lattice.scaled_gram[0]
        return self.base_table.bordered(lam, self.lattice, self.mori_gens)


def contraction_orders(model: SurfaceModel, d: DivClass) -> Mapping[str, Fraction]:
    '''coefficient of each contracted curve in the Weil pullback of d'''
    pd, _, os = pullback_numerators(model, *d.numerators)
    return {n: Fraction(o, pd) for n, o in zip(model.contracted, os)}


def pullback_numerators(model: SurfaceModel, dx: int, xs: Sequence[int]
                        ) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    '''
    (d, ns, os): the Weil pullback of the class xs / dx as integer
    numerators ns over a positive denominator d, not always the least one,
    and the coefficient os[s] / d of each contracted curve s in it

    With C[s] / den and R[s] the contracted curves' numerators and rows in
    the generator table and (det, adj) the model's ``_contracted_inverse``,
    ys = -adj (R[s] . xs)_s makes det xs + sum_s ys[s] C[s] orthogonal to
    every C[s], so that over det dx is the pullback, and the curve s enters
    it with coefficient den ys[s] / (det dx).  The contracted curves must be
    negative definite (ConfigurationError).
    '''
    if not model.contracted:
        return dx, tuple(xs), ()
    if model._contracted_inverse is None:
        raise ConfigurationError(
            f'{model.name}: support {list(model.contracted)} is not negative definite')
    (det, adj), table = model._contracted_inverse, model.gen_table
    idx = [model.gen_index[n] for n in model.contracted]
    ps = [sum(map(mul, table.rows[i], xs)) for i in idx]
    ys = [-sum(map(mul, row, ps)) for row in adj]
    cols = zip(*[table.gens[i] for i in idx])
    out = [det * x + sum(map(mul, ys, col)) for x, col in zip(xs, cols)]
    return det * dx, tuple(out), tuple([table.den * y for y in ys])


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
    if not model.contracted:
        return d
    check_on(model.lattice, d)
    pd, ns, _ = pullback_numerators(model, *d.numerators)
    return DivClass(model.lattice, pd, ns)


class BlowupCenter(Value):
    '''
    description of a weight-(a, b) blow-up at a smooth point of a model

    ``through`` lists (generator name, ord of that curve along the new
    exceptional divisor), ``orders`` maps each name to its ord, and a
    generator not listed misses the center.  ``extra_mori`` declares curves
    extremal only on the extension, on the extended basis.  The constructor
    makes every check that needs no base; ``build_blowup_extension`` checks
    the rest against one.
    '''
    _value = ('weights', 'exc_name', 'through', 'extra_mori')

    def __init__(self, weights=(1, 1), exc_name='e', through=(), extra_mori=()):
        if len(weights) != 2 or any(type(w) is not int for w in weights):
            raise ConfigurationError(f'weights {list(weights)} are not two integers')
        if min(weights) < 1 or gcd(*weights) != 1:
            raise ConfigurationError(f'weights {tuple(weights)} are not coprime positive integers')
        through = tuple((n, rational(m)) for n, m in through)
        twice = _repeated([n for n, _ in through])
        if twice is not None:
            raise ConfigurationError(f'through-curve {twice!r} is listed twice')
        if any(m < 0 for _, m in through):
            raise ConfigurationError('negative multiplicity in center data')
        vars(self).update(
            weights=tuple(weights),
            exc_name=_string('exceptional divisor name', exc_name),
            through=through, orders=dict(through),
            extra_mori=tuple((_string('extra generator name', n), tuple([rational(x) for x in v]))
                             for n, v in extra_mori))


def build_blowup_extension(base: SurfaceModel, center: BlowupCenter) -> ExtensionModel:
    '''
    extend a model by one weight-(a, b) blow-up at a smooth point

    The new basis vector e satisfies e.e = -1/(a b) and is orthogonal to the
    pulled-back base lattice, so pullback is an isometry onto the complement
    of e. A base generator C listed in ``through`` with ord m transforms to
    pull(C) - m e; the exceptional e joins the generator list, then the
    declared extra curves.  Every generator name must differ from the
    others, since the extension's generator table, bordered from the
    base's on first use, reads its rows by position.
    '''
    a, b = center.weights
    if center.exc_name in base.lattice.names:
        raise ConfigurationError(f'name {center.exc_name!r} already used in the base lattice')
    unknown = set(center.orders) - set(base.gen_names)
    if unknown:
        raise ConfigurationError(f'through-curves {sorted(unknown)} are not declared generators')
    twice = _repeated([*base.gen_names, center.exc_name, *[n for n, _ in center.extra_mori]])
    if twice is not None:
        raise ConfigurationError(f'generator name {twice!r} is used twice on the extension')

    # the base Gram matrix bordered by e.e = -1/(a b), over the least
    # common denominator dn of both
    r = base.lattice.rank
    dg, gram = base.lattice.scaled_gram
    dn = lcm(dg, a * b)
    lat = IntersectionLattice(base.lattice.names + (center.exc_name,), dn, [
        *[(*[x * (dn // dg) for x in row], 0) for row in gram], (0,) * r + (-dn // (a * b),)])

    e = DivClass(lat, 1, (0,) * r + (1,))
    dk, ks = base.canonical.numerators
    canonical = DivClass(lat, dk, (*ks, (a + b - 1) * dk))

    # an ordinary blow-up (e.e = -1, K' = K + e) takes C to C - m e and
    # lowers C.C + K.C = 2 p_a - 2 by m^2 - m, which may not take an
    # integral curve below -2
    table = base.gen_table
    kcs = table.pairings(ks)
    gens: list[tuple[str, DivClass]] = []
    for i, (n, c) in enumerate(base.mori_gens):
        m = center.orders.get(n, 0)
        dc, cs = c.numerators
        if (a, b) == (1, 1) and m.denominator == 1 and dc == 1:
            g, q = table.adjunction_sum(i, kcs[i], dk, dg)
            mi = m.numerator
            if g - (mi * mi - mi) * q < -2 * q:
                raise ConfigurationError(
                    f'ord {m} along {center.exc_name} is inconsistent for curve {n}')
        d = lcm(dc, m.denominator)
        gens.append((n, DivClass(lat, d, (*[x * (d // dc) for x in cs],
                                          -m.numerator * (d // m.denominator)))))
    gens.append((center.exc_name, e))
    for n, v in center.extra_mori:
        if len(v) != r + 1:
            raise ConfigurationError(f'extra generator {n} has wrong length')
        gens.append((n, lat.div(v)))

    # the through-curves tell apart the extensions of one base at one weight
    at = ','.join(n if m == 1 else f'{n}:{m}' for n, m in center.through)
    return ExtensionModel(
        base.lattice, table, center, e,
        name=f'{base.name}^{center.exc_name}({a},{b})' + (f'[{at}]' if at else ''),
        lattice=lat,
        canonical=canonical,
        mori_gens=tuple(gens),
    )


def surface_from_doc(doc: Mapping) -> SurfaceModel:
    '''parse and validate a surface document; a malformed one raises KeyError,
    TypeError, AttributeError or ValueError, and the catalog names the entry'''
    lat = IntersectionLattice.from_rows([_string('basis entry', x) for x in doc['basis']],
                                        doc['gram'])
    return SurfaceModel(
        lattice=lat,
        canonical=lat.div(doc['canonical']),
        mori_gens=tuple((_string('generator name', g['name']), lat.div(g['class']))
                        for g in doc['mori']),
        contracted=tuple(_string('contracted curve', n) for n in doc.get('contracted', ())),
        k_discrepancies=tuple((n, rational(x))
                              for n, x in doc.get('k_discrepancies', {}).items()),
        name=_string('name', doc['name']),
    ).validate()
