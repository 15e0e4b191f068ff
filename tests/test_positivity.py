import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import builders
from oracle import ZariskiOracle, profile_failures, reference_pair
from kwall.lattice import EngineError, IntersectionLattice, pair, signature
from kwall.positivity import (
    NotPseudoEffective,
    QuadraticPiece,
    VolumeProfile,
    integrate_profile,
    is_nef,
    profile_to_doc,
    volume_profile,
    zariski_decompose,
)
from kwall.catalog import load_catalog
from kwall.stability import valuation_profile
from kwall.surface import (
    BlowupCenter,
    ConfigurationError,
    GeneratorTable,
    SurfaceModel,
    build_blowup_extension,
)

F = Fraction

# sha256 of every catalog profile document: each chamber's support,
# t-interval and coefficients, so any change to a chamber walk shows here
PROFILES_DIGEST = 'e97e9e6ceee347423e31ef1dbd39598e7fc07bfc476325ec516e652730b6addc'


def _ray(model, origin, direction, expected, tau, integral):
    prof = volume_profile(model, origin, direction)
    assert prof.tau == tau
    assert profile_failures(prof, degree=pair(origin, origin)) == ()
    got = [(p.t_lo, p.t_hi, p.coeffs, set(p.chamber_support)) for p in prof.pieces]
    assert got == [(F(a), F(b), tuple(F(x) for x in q), set(s))
                   for a, b, q, s in expected]
    assert integrate_profile(prof) == integral
    return prof


def test_sigma5_along_a_line():
    m = builders.sigma5()
    _ray(m, -1 * m.canonical, m.gen('line12'),
         [(0, 1, (5, -2, -1), ()),
          (1, 2, (8, -8, 2), {'exc1', 'exc2', 'line34'})],
         tau=2, integral=F(13, 3))


def test_xt_along_quartic_section():
    m = builders.xt()
    _ray(m, m.anticanonical_pullback, m.lattice.div((1, 4, -1, -1, -1, -1)),
         [(0, 1, (5, -4, 0), ()),
          (1, F(3, 2), (9, -12, 4), {'exc1', 'exc2', 'exc3', 'exc4'})],
         tau=F(3, 2), integral=F(19, 6))


def test_xt_along_contracted_section():
    m = builders.xt()
    _ray(m, m.anticanonical_pullback, m.gen('sigma'),
         [(0, F(1, 2), (5, 0, -4), ()),
          (F(1, 2), F(3, 2), (6, -4, 0), {'fib1', 'fib2', 'fib3', 'fib4'})],
         tau=F(3, 2), integral=F(13, 3))


def test_xq_extension_along_exceptional():
    ext = builders.xq_ext_r()
    origin = ext.pullback(builders.xq().anticanonical_pullback)
    _ray(ext, origin, ext.e_class,
         [(0, 2, (5, 0, -1), ()),
          (2, F(5, 2), (25, -20, 4), {f'ray{i}' for i in range(1, 6)})],
         tau=F(5, 2), integral=F(15, 2))


def test_index3_along_contracted_fiber():
    m = builders.index3()
    _ray(m, m.anticanonical_pullback, m.gen('fiber5'),
         [(0, F(1, 3), (5, 0, F(-9, 2)), {'sect'}),
          (F(1, 3), F(10, 3), (F(50, 9), F(-10, 3), F(1, 2)),
           {'sect', 'exc1', 'exc2', 'exc3', 'exc4', 'exc5'})],
         tau=F(10, 3), integral=F(55, 9))


def test_xprime_along_contracted_fiber():
    m = builders.xprime()
    _ray(m, m.anticanonical_pullback, m.gen('l3'),
         [(0, F(1, 2), (5, 0, F(-8, 3)), {'s3'}),
          (F(1, 2), F(3, 2), (F(23, 4), -3, F(1, 3)),
           {'s3', 'exc1', 'exc2', 'exc3'}),
          (F(3, 2), F(7, 2), (F(49, 8), F(-7, 2), F(1, 2)),
           {'s3', 'exc1', 'exc2', 'exc3', 'exc-g'})],
         tau=F(7, 2), integral=F(41, 6))


def test_xprime_extension_along_exceptional():
    ext = builders.xprime_ext_p()
    origin = ext.pullback(builders.xprime().anticanonical_pullback)
    _ray(ext, origin, ext.e_class,
         [(0, 2, (5, 0, F(-1, 2)), ()),
          (2, 3, (F(17, 3), F(-2, 3), F(-1, 3)), {'fiber-g'}),
          (3, F(7, 2), (F(98, 3), F(-56, 3), F(8, 3)),
           {'fiber-g', 'conic1', 'conic2', 'conic3'})],
         tau=F(7, 2), integral=F(32, 3))


def test_x12_along_exceptional():
    m = builders.x12()
    _ray(m, m.anticanonical_pullback, m.gen('exc-a1'),
         [(0, 3, (5, -2, F(1, 6)), {'a1', 'a2-head', 'a2-tail'}),
          (3, 4, (8, -4, F(1, 2)), {'a1', 'a2-head', 'a2-tail', 'exc-a2'})],
         tau=4, integral=F(23, 3))


def test_x11_along_line():
    m = builders.x11()
    _ray(m, m.anticanonical_pullback, m.gen('line-pq'),
         [(0, 2, (5, -2, 0), {'a1p', 'a1q'}),
          (2, 3, (9, -6, 1), {'a1p', 'a1q', 'exc-p', 'exc-q'})],
         tau=3, integral=F(19, 3))


def test_x11_extension_along_exceptional():
    # the A1 curve is dragged into the support by the exceptional over its
    # residual point, so this ray has three chambers
    ext = builders.x11_ext()
    origin = ext.pullback(builders.x11().anticanonical_pullback)
    _ray(ext, origin, ext.e_class,
         [(0, 1, (5, 0, -1), ()),
          (1, 3, (F(37, 6), F(-7, 3), F(1, 6)), {'exc-p', 'tang-p', 'a1p'}),
          (3, 4, (F(32, 3), F(-16, 3), F(2, 3)),
           {'exc-p', 'tang-p', 'a1p', 'tang-q'})],
         tau=4, integral=F(28, 3))


def test_zariski_known_negative_part():
    m = builders.sigma5()
    mk = -1 * m.canonical
    d = mk - F(3, 2) * m.gen('line12')
    res = zariski_decompose(m, d)
    assert dict(res.negative_support) == {
        'exc1': F(1, 2), 'exc2': F(1, 2), 'line34': F(1, 2)}
    # the four facts of a Zariski decomposition, re-derived in Fractions:
    # P + N = D, P orthogonal to the support, P nef, the support definite
    support = [m.gen(n) for n, _ in res.negative_support]
    negative = m.lattice.zero()
    for n, a in res.negative_support:
        negative = negative + a * m.gen(n)
    assert res.positive + negative == d
    assert [pair(res.positive, c) for c in support] == [0, 0, 0]
    assert all(pair(res.positive, c) >= 0 for _, c in m.mori_gens)
    assert signature([[pair(a, b) for b in support] for a in support]) == (0, 3, 0)
    res2 = zariski_decompose(m, mk - F(1, 2) * m.gen('line12'))
    assert res2.negative_support == ()
    assert res2.positive == mk - F(1, 2) * m.gen('line12')
    res3 = zariski_decompose(m, mk)
    assert res3.negative_support == () and res3.positive == mk


def test_a_broken_certificate_is_an_engine_fault():
    '''a generator table whose rows R disagree with its pairings M = R C^T:
    the walk solves against M, the certificate pairs P through R, and the
    mismatch is reported as an engine fault naming the surface and the
    generator, not as a class outside the cone'''
    m = builders.sigma5()
    t = m.gen_table
    rows = [list(r) for r in t.rows]
    rows[m.gen_names.index('line34')][m.lattice.index('e1')] += 1
    vars(m)['gen_table'] = GeneratorTable(t.den, t.gens, tuple(map(tuple, rows)), t.pairing)
    assert _refusal(zariski_decompose, m, -1 * m.canonical - F(3, 2) * m.gen('line12')) == (
        EngineError, "sigma5: the decomposition fails its certificate at ['line34']")


def test_nef_reports():
    m = builders.sigma5()
    mk = -1 * m.canonical
    assert bool(is_nef(m, mk))
    assert bool(is_nef(m, m.lattice.zero()))
    rep = is_nef(m, mk - F(3, 2) * m.gen('line12'))
    assert not rep and rep.witness in {'exc1', 'exc2', 'line34'}


def test_junk_input_rejected():
    m = builders.sigma5()
    with pytest.raises(EngineError):
        zariski_decompose(m, -1 * m.lattice.basis('e1'))
    with pytest.raises(ConfigurationError):
        volume_profile(m, m.lattice.basis('e1'), m.gen('line12'))
    with pytest.raises(ConfigurationError):
        volume_profile(m, m.lattice.zero(), m.gen('line12'))
    with pytest.raises(ConfigurationError):
        volume_profile(m, -1 * m.canonical, m.lattice.zero())


def test_profile_value_and_doc():
    m = builders.sigma5()
    prof = volume_profile(m, -1 * m.canonical, m.gen('line12'))
    assert prof.value(F(1, 2)) == F(15, 4)
    assert prof.value(2) == 0
    with pytest.raises(ValueError):
        prof.value(3)
    doc = profile_to_doc(prof)
    assert doc['tau'] == '2'
    assert [p['coeffs'] for p in doc['pieces']] == [['5', '-2', '-1'],
                                                    ['8', '-8', '2']]


def test_chamber_supports_nested():
    for make in (builders.sigma5, builders.xt, builders.x11, builders.x12,
                 builders.xq, builders.xprime, builders.index3):
        m = make()
        o = m.anticanonical_pullback
        for name, _ in m.mori_gens:
            prof = volume_profile(m, o, m.gen(name))
            seen: set = set()
            for p in prof.pieces:
                assert seen <= set(p.chamber_support)
                seen = set(p.chamber_support)


CATALOG_SURFACES = {m.name: m for m in load_catalog().surfaces}


def _mixed_sign_ray(m, data):
    '''origin -K or -2K, and a direction that combines the generators with
    integer coefficients in [-2, 2]'''
    o = data.draw(st.sampled_from((1, 2))) * m.anticanonical_pullback
    ks = data.draw(st.lists(st.integers(-2, 2), min_size=len(m.mori_gens),
                            max_size=len(m.mori_gens)))
    direction = m.lattice.zero()
    for k, (_, c) in zip(ks, m.mori_gens):
        direction = direction + k * c
    return o, direction


@pytest.mark.parametrize('name', sorted(CATALOG_SURFACES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_supports_grow_along_mixed_sign_rays(name, data):
    '''from the nef origins -K and -2K the support only grows along any
    ray, whatever the signs of the direction, so the walk never meets a
    shrinking support'''
    m = CATALOG_SURFACES[name]
    o, direction = _mixed_sign_ray(m, data)
    try:
        prof = volume_profile(m, o, direction)
    except EngineError as exc:
        assert 'shrinks' not in str(exc)
        return
    for a, b in zip(prof.pieces, prof.pieces[1:]):
        assert set(a.chamber_support) <= set(b.chamber_support)


# built once: the oracle enumerates every negative definite generator subset
ORACLES = {name: ZariskiOracle(m) for name, m in CATALOG_SURFACES.items()}


@pytest.mark.parametrize('name', sorted(CATALOG_SURFACES))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_profile_values_match_the_subset_oracle(name, data):
    '''the integer chamber walk against a route that shares none of its
    tables: at both ends and the midpoint of every piece the profile's value
    is P.P, with P the oracle's nef part and the oracle's Fraction pairing'''
    m, oracle = CATALOG_SURFACES[name], ORACLES[name]
    o, direction = _mixed_sign_ray(m, data)
    try:
        prof = volume_profile(m, o, direction)
    except EngineError as exc:
        msg = str(exc)
        assert re.search('never vanishes|irrational volume threshold|zero profile direction',
                         msg), msg
        if 'never vanishes' in msg:
            # the ray stays big for ever exactly when -direction is
            # pseudo-effective
            assert oracle.positive_part(-1 * direction) is not None
        if 'irrational volume threshold' in msg:
            # the volume does reach zero, so the ray leaves the cone
            assert oracle.positive_part(-1 * direction) is None
        return
    for piece in prof.pieces:
        for t in (piece.t_lo, (piece.t_lo + piece.t_hi) / 2, piece.t_hi):
            p = oracle.positive_part(o - t * direction)
            assert prof.value(t) == reference_pair(m.lattice.gram, p.coords, p.coords)


def test_catalog_extension_rays_match_the_subset_oracle():
    '''the walk on the 10 catalog blow-up extensions, whose tables are
    bordered from their bases', against the oracle: at both ends and the
    midpoint of every piece of each catalog ray, the profile's value is
    P.P for the oracle's nef part P'''
    rays = {}
    for f in load_catalog().fixtures:
        for v in (f.valuation, *f.equivariant):
            if v.model is not v.base:
                rays.setdefault(id(v.model), (v.model, set()))[1].add((v.origin, v.e_class))
    assert len(rays) == 10
    for m, model_rays in rays.values():
        oracle = ZariskiOracle(m)
        for o, direction in model_rays:
            prof = volume_profile(m, o, direction)
            for piece in prof.pieces:
                for t in (piece.t_lo, (piece.t_lo + piece.t_hi) / 2, piece.t_hi):
                    p = oracle.positive_part(o - t * direction)
                    assert prof.value(t) == reference_pair(m.lattice.gram, p.coords, p.coords)


def test_a_shrinking_support_is_refused():
    '''e1 and e1 - e2 meet negatively, which two distinct irreducible curves
    never do, so the theory behind the walk fails for this generator list:
    along this ray a support coefficient turns negative inside the piece'''
    lat = IntersectionLattice.diagonal(('h', 'e1', 'e2'), (1, -1, -1))
    m = SurfaceModel('bad', lat, lat.div((-3, 1, 1)),
                     (('e1', lat.basis('e1')), ('d', lat.div((0, 1, -1)))))
    with pytest.raises(EngineError, match=r"bad: support \['e1', 'd'\] shrinks on \[0, 1\]"):
        volume_profile(m, lat.basis('h'), lat.div((1, -1, 2)))


def _refusal(call, *args):
    with pytest.raises(EngineError) as exc:
        call(*args)
    return type(exc.value), str(exc.value)


def test_a_singular_support_is_refused():
    '''a generator list with a repeated ray: both copies join at once and
    their Gram matrix [[-1, -2], [-2, -4]] is singular, a zero pivot'''
    lat = IntersectionLattice.diagonal(('h', 'e'), (1, -1))
    m = SurfaceModel('twice', lat, lat.div((-3, 1)),
                     (('e', lat.basis('e')), ('e2', lat.div((0, 2)))))
    assert _refusal(volume_profile, m, lat.basis('h'), lat.div((0, -1))) == (
        ConfigurationError, "twice: support ['e', 'e2'] is not negative definite")
    # f.f = 0: the support [f] is singular at its first pivot
    m = SurfaceModel('fibre', lat, lat.div((-3, 1)),
                     (('e', lat.basis('e')), ('f', lat.div((1, -1)))))
    assert _refusal(zariski_decompose, m, lat.div((-1, 0))) == (
        NotPseudoEffective,
        "fibre: support walk left the negative definite cone at ['f']")


def test_a_missing_generator_shows_as_an_irrational_threshold():
    '''sigma5 blown up at a general point lacks the new (-1)-curves
    h - e_i - e, which would end a chamber at t = 1 on the extension's own
    -K walked along e; without them the last volume quadratic has
    discriminant 20'''
    ext = build_blowup_extension(load_catalog().surface('sigma5'), BlowupCenter.make(exc_name='g'))
    assert _refusal(volume_profile, ext, ext.anticanonical_pullback, ext.e_class) == (
        EngineError, 'irrational volume threshold (disc 20)')


def test_a_support_with_a_wrong_sign_pivot_is_refused():
    '''the second leading minor of a negative definite support is positive;
    here it is negative.  On a surface the Hodge index theorem keeps the
    walk's joiners definite, so the volume case needs a lattice of
    signature (2, 1), which no surface has'''
    lat = IntersectionLattice.diagonal(('h', 'e'), (1, -1))
    # e.e = -1, d.d = -3 and e.d = 2: minors -1, then 3 - 4 = -1
    m = SurfaceModel('steep', lat, lat.div((-3, 1)),
                     (('e', lat.basis('e')), ('d', lat.div((1, -2)))))
    assert _refusal(zariski_decompose, m, lat.div((-3, 1))) == (
        NotPseudoEffective,
        "steep: support walk left the negative definite cone at ['e', 'd']")
    lat = IntersectionLattice.diagonal(('h1', 'h2', 'e'), (1, 1, -1))
    # a.a = -2, b.b = -3 and a.b = -3: minors -2, then 6 - 9 = -3.  The
    # walk reads only rows with C.C < 0, so both must be negative; they
    # join together at t = 2
    m = SurfaceModel('split', lat, lat.div((-3, -3, 1)),
                     (('a', lat.div((1, 1, 2))), ('b', lat.div((1, 0, 2)))))
    assert _refusal(volume_profile, m, lat.div((0, 2, -1)), lat.div((1, 1, 0))) == (
        ConfigurationError, "split: support ['a', 'b'] is not negative definite")


MODELS = [builders.sigma5, builders.xn, builders.x11, builders.x12,
          builders.xq, builders.xt, builders.xprime]


@pytest.mark.parametrize('make', MODELS, ids=lambda f: f.__name__)
def test_profiles_along_every_generator(make):
    '''dual route: piecewise value against a fresh point decomposition'''
    m = make()
    o = m.anticanonical_pullback
    deg = pair(o, o)
    for name, _ in m.mori_gens:
        prof = volume_profile(m, o, m.gen(name))
        assert profile_failures(prof, degree=deg) == ()
        for k in range(8):
            t = prof.tau * k / 7
            p = zariski_decompose(m, o - t * m.gen(name)).positive
            assert prof.value(t) == pair(p, p)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_ray_profiles_are_valid(data):
    make = data.draw(st.sampled_from(MODELS))
    m = make()
    names = list(m.gen_names)
    weights = data.draw(st.lists(
        st.fractions(min_value=0, max_value=3, max_denominator=6),
        min_size=len(names), max_size=len(names)))
    direction = m.lattice.zero()
    for w, n in zip(weights, names):
        direction = direction + w * m.gen(n)
    if direction.is_zero():
        return
    o = m.anticanonical_pullback
    prof = volume_profile(m, o, direction)
    assert profile_failures(prof, degree=pair(o, o)) == ()
    assert integrate_profile(prof) > 0
    mid = prof.tau / 2
    p = zariski_decompose(m, o - mid * direction).positive
    assert prof.value(mid) == pair(p, p)


def test_walk_matches_subset_oracle():
    '''the chamber walk and an exhaustive negative-definite subset search
    must agree on every pseudo-effective class'''
    from oracle import ZariskiOracle

    rng = random.Random(20260825)
    for make in (builders.sigma5, builders.xn, builders.x11, builders.x12,
                 builders.xt, builders.xq):
        m = make()
        oracle = ZariskiOracle(m)
        gens = [c for _, c in m.mori_gens]
        for _ in range(30):
            d = m.anticanonical_pullback * F(rng.randrange(0, 3))
            for c in gens:
                d = d + F(rng.randrange(0, 7), rng.randrange(1, 4)) * c
            if d.is_zero():
                continue
            assert zariski_decompose(m, d).positive == oracle.positive_part(d)


def test_integrate_trivial_profile():
    piece = QuadraticPiece((3, 0, 0), 1, (0, 1), (1, 1), ())
    assert integrate_profile(VolumeProfile((piece,), F(1))) == 3
    assert NotPseudoEffective.__mro__[1] is EngineError


def test_walk_pieces_equal_pieces_built_from_fractions():
    '''a walk keeps each piece in its own integers; they read back as the
    Fractions they stand for, the same chamber with every integer scaled
    (not in lowest terms) reads back the same ends, coefficients and
    integral, and both integrals equal the integral of the quadratic
    summed term by term over Fractions'''
    cat = load_catalog()
    walked = 0
    for f in cat.fixtures:
        for p in valuation_profile(f.valuation).pieces:
            lo, hi = F(*p.lo), F(*p.hi)
            coeffs = tuple(F(k, p.scale) for k in p.k)
            (ln, ld), (hn, hd) = p.lo, p.hi
            q = QuadraticPiece(tuple(3 * k for k in p.k), 3 * p.scale, (5 * ln, 5 * ld),
                               (7 * hn, 7 * hd), p.chamber_support)
            assert (p.t_lo, p.t_hi, p.coeffs) == (q.t_lo, q.t_hi, q.coeffs) == (lo, hi, coeffs)
            by_terms = sum(c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
                           for i, c in enumerate(coeffs))
            assert (integrate_profile(VolumeProfile((p,), hi))
                    == integrate_profile(VolumeProfile((q,), hi)) == by_terms)
            walked += 1
    assert walked > len(cat.fixtures)


def test_every_catalog_profile_is_pinned():
    cat = load_catalog()
    docs = [[f.id, profile_to_doc(valuation_profile(f.valuation))] for f in cat.fixtures]
    assert len(docs) == 45
    blob = json.dumps(docs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PROFILES_DIGEST
