import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from builders import surface_to_doc
from kwall.catalog import load_catalog
from kwall.lattice import IntersectionLattice, combination, pair
from kwall.positivity import QuadraticPiece, volume_profile, zariski_decompose
from kwall.surface import (
    BlowupCenter,
    ConfigurationError,
    ExtensionModel,
    SurfaceModel,
    build_blowup_extension,
    contraction_orders,
    pullback_weil,
    surface_from_doc,
)

F = Fraction


def make_p2() -> SurfaceModel:
    lat = IntersectionLattice.diagonal(('h',), (1,))
    return SurfaceModel('p2', lat, lat.div((-3,)), (('line', lat.basis('h')),))


def make_sigma5() -> SurfaceModel:
    lat = IntersectionLattice.diagonal(('h', 'e1', 'e2', 'e3', 'e4'), (1, -1, -1, -1, -1))
    gens = [(f'exc{i}', lat.basis(f'e{i}')) for i in range(1, 5)]
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for i, j in pairs:
        coords = [1, 0, 0, 0, 0]
        coords[i] = coords[j] = -1
        gens.append((f'line{i}{j}', lat.div(coords)))
    return SurfaceModel('sigma5', lat, lat.div((-3, 1, 1, 1, 1)), tuple(gens))


def test_engine_values_are_immutable():
    '''assigning or deleting an attribute of a class, a model or a volume
    piece raises, and a cached value still fills on first read'''
    model = make_sigma5()
    values = [(model.lattice.div((-3, 1, 1, 1, 1)), 'numerators', 'coords'),
              (model, 'name', 'degree'),
              (QuadraticPiece((8, -8, 2), 2, (0, 1), (4, 2), ('e',)), 'k', 't_hi')]
    for obj, field, cached in values:
        assert cached not in vars(obj)
        value = getattr(obj, cached)
        assert vars(obj)[cached] is value
        before = dict(vars(obj))
        for name in (field, cached):
            with pytest.raises(AttributeError, match='is immutable'):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match='is immutable'):
                delattr(obj, name)
        assert vars(obj) == before


def make_index3() -> SurfaceModel:
    # second Hirzebruch surface blown up at five points of one fiber, then
    # the fiber transform (-5) and the negative section (-2) contract to a
    # single index-3 quotient point
    names = ('sect', 'fib', 'e1', 'e2', 'e3', 'e4', 'e5')
    rows = [
        [-2, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0],
    ] + [[0] * 2 + [-1 if j == i else 0 for j in range(5)] for i in range(5)]
    lat = IntersectionLattice.from_rows(names, rows)
    fiber5 = lat.div((0, 1, -1, -1, -1, -1, -1))
    gens = [('sect', lat.basis('sect')), ('fiber5', fiber5)]
    gens += [(f'exc{i}', lat.basis(f'e{i}')) for i in range(1, 6)]
    gens.append(('sect-inf', lat.div((1, 2, 0, 0, 0, 0, 0))))
    return SurfaceModel(
        'index3', lat, lat.div((-2, -4, 1, 1, 1, 1, 1)), tuple(gens),
        contracted=('fiber5', 'sect'),
        k_discrepancies=(('fiber5', F(-2, 3)), ('sect', F(-1, 3))),
    )


def make_xq() -> SurfaceModel:
    lat = IntersectionLattice.diagonal(('h', 'e1', 'e2', 'e3', 'e4', 'e5'),
                                       (1, -1, -1, -1, -1, -1))
    axis = lat.div((1, -1, -1, -1, -1, -1))
    gens = [('axis', axis)]
    gens += [(f'exc{i}', lat.basis(f'e{i}')) for i in range(1, 6)]
    gens += [(f'ray{i}', lat.div([1] + [-1 if j == i else 0 for j in range(1, 6)]))
             for i in range(1, 6)]
    return SurfaceModel(
        'xq', lat, lat.div((-3, 1, 1, 1, 1, 1)), tuple(gens),
        contracted=('axis',), k_discrepancies=(('axis', F(-1, 2)),),
    )


def test_degrees():
    assert make_sigma5().degree == 5
    assert make_p2().degree == 9
    assert make_xq().degree == 5
    assert make_index3().degree == 5


def test_models_validate():
    for m in (make_p2(), make_sigma5(), make_xq(), make_index3()):
        assert m.failures() == ()


def test_index3_canonical_pullback():
    m = make_index3()
    pk = m.anticanonical_pullback
    assert pk.coords == (F(5, 3), F(10, 3), F(-1, 3), F(-1, 3), F(-1, 3), F(-1, 3), F(-1, 3))
    for n in m.contracted:
        assert pair(pk, m.gen(n)) == 0


def test_index3_weil_pullbacks_match_known_values():
    m = make_index3()
    lat = m.lattice
    # exceptional over a blown-up point
    pb = pullback_weil(m, lat.basis('e1'))
    assert pb - lat.basis('e1') == F(2, 9) * m.gen('fiber5') + F(1, 9) * m.gen('sect')
    # generic fiber through the singular point
    pb = pullback_weil(m, lat.basis('fib'))
    assert pb - lat.basis('fib') == F(1, 9) * m.gen('fiber5') + F(5, 9) * m.gen('sect')
    # disjoint positive section
    sec = lat.div((1, 2, 0, 0, 0, 0, 0))
    pb = pullback_weil(m, sec)
    assert pb - sec == F(2, 9) * m.gen('fiber5') + F(1, 9) * m.gen('sect')
    # section through exactly one blown-up point needs no correction
    thru = lat.div((1, 2, -1, 0, 0, 0, 0))
    assert pullback_weil(m, thru) == thru


def test_pullback_weil_orthogonality_random():
    m = make_index3()
    rng = random.Random(7)
    for _ in range(50):
        d = m.lattice.div([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)])
        pb = pullback_weil(m, d)
        for n in m.contracted:
            assert pair(pb, m.gen(n)) == 0


@pytest.mark.parametrize('name', [m.name for m in load_catalog().surfaces if m.contracted])
def test_pullback_weil_on_every_catalog_contraction(name):
    '''the 16 catalog surfaces with contracted curves have 1 to 5 of them,
    and their A2 chains have a non-diagonal inverse: the pullback meets
    every contracted curve in 0 and adds to the class its contraction
    orders times the curves'''
    m = load_catalog().surface(name)
    rng = random.Random(7)
    for _ in range(20):
        d = m.lattice.div([F(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(m.lattice.rank)])
        pb, orders = pullback_weil(m, d), contraction_orders(m, d)
        assert all(pair(pb, m.gen(n)) == 0 for n in m.contracted)
        assert pb - d == combination(m.lattice, [(orders[n], m.gen(n)) for n in m.contracted])


def test_contraction_orders():
    m = make_xq()
    # a line through one of the five collinear points misses the contracted axis
    ray = m.lattice.div((1, -1, 0, 0, 0, 0))
    assert contraction_orders(m, ray)['axis'] == 0
    # a generic line meets it once: pull(h) = h + (1/4) axis
    orders = contraction_orders(m, m.lattice.basis('h'))
    assert orders['axis'] == F(1, 4)


def test_pullback_weil_identity_without_contraction():
    m = make_sigma5()
    d = m.lattice.div((2, -1, 0, 3, '1/2'))
    assert pullback_weil(m, d) == d


def test_ordinary_blowup_extension():
    base = make_sigma5()
    ext = build_blowup_extension(base, BlowupCenter(weights=(1, 1), exc_name='e5'))
    assert pair(ext.e_class, ext.e_class) == -1
    assert ext.a_over_base == 2
    k = ext.canonical
    assert pair(k, k) == pair(base.canonical, base.canonical) - 1


def test_weighted_blowup_extension():
    base = make_sigma5()
    ext = build_blowup_extension(
        base,
        BlowupCenter(weights=(1, 2), exc_name='w',
                     through=(('line12', 2), ('line34', 1))),
    )
    assert pair(ext.e_class, ext.e_class) == F(-1, 2)
    assert ext.a_over_base == 3
    lt = ext.gen('line12')
    assert lt == ext.pullback(base.gen('line12')) - 2 * ext.e_class
    assert pair(lt, ext.e_class) == 1


def test_an_extension_is_named_by_its_weights_and_through_curves():
    '''each through-curve is listed in the centre's order, with its ord
    along the exceptional divisor where that is not 1'''
    base = make_sigma5()
    plain = build_blowup_extension(base, BlowupCenter(exc_name='g'))
    assert plain.name == f'{base.name}^g(1,1)'
    through = BlowupCenter(weights=(1, 2), exc_name='w',
                           through=(('line12', 2), ('line34', 1)))
    assert build_blowup_extension(base, through).name == f'{base.name}^w(1,2)[line12:2,line34]'


def test_extension_pullback_is_isometry():
    base = make_sigma5()
    ext = build_blowup_extension(base, BlowupCenter(weights=(2, 3), exc_name='w'))
    rng = random.Random(11)
    for _ in range(100):
        a = base.lattice.div([F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(5)])
        b = base.lattice.div([F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(5)])
        assert pair(ext.pullback(a), ext.pullback(b)) == pair(a, b)
        assert pair(ext.pullback(a), ext.e_class) == 0


def test_p2_blowup_preserves_hyperplane_square():
    base = make_p2()
    ext = build_blowup_extension(base, BlowupCenter(weights=(1, 1), exc_name='e1'))
    h = ext.pullback(base.lattice.basis('h'))
    assert pair(h, h) == 1


def test_extension_rejects_bad_input():
    # each centre is built inside its pytest.raises, since the constructor
    # makes the checks that need no base
    base = make_sigma5()
    for kwargs, message in [
            (dict(weights=(2, 4)), 'weights (2, 4) are not coprime positive integers'),
            (dict(weights=(0, 1)), 'weights (0, 1) are not coprime positive integers'),
            (dict(exc_name='h'), "name 'h' already used in the base lattice"),
            (dict(through=(('nope', 1),)), "through-curves ['nope'] are not declared generators"),
            (dict(through=(('line12', -1),)), 'negative multiplicity in center data'),
            (dict(through=(('line12', 1), ('line12', F(1, 2)))),
             "through-curve 'line12' is listed twice"),
            # a (-1)-curve cannot have a triple point
            (dict(through=(('line12', 3),)), 'ord 3 along e is inconsistent for curve line12'),
            (dict(extra_mori=(('x', (1, 0)),)), 'extra generator x has wrong length'),
            # a generator's name is its row in the generator table
            (dict(extra_mori=(('line12', (0,) * 6),)),
             "generator name 'line12' is used twice on the extension"),
            (dict(exc_name='exc1'), "generator name 'exc1' is used twice on the extension"),
            (dict(extra_mori=(('x', (0,) * 6),) * 2),
             "generator name 'x' is used twice on the extension")]:
        with pytest.raises(ConfigurationError) as err:
            build_blowup_extension(base, BlowupCenter(**kwargs))
        assert str(err.value) == message


def test_a_centre_refuses_what_needs_no_base_when_made():
    for kwargs, message in [
            (dict(weights=(2, 4)), 'weights (2, 4) are not coprime positive integers'),
            (dict(weights=(-1, 1)), 'weights (-1, 1) are not coprime positive integers'),
            (dict(through=(('a', 1), ('a', 2))), "through-curve 'a' is listed twice"),
            (dict(through=(('a', F(-1, 2)),)), 'negative multiplicity in center data')]:
        with pytest.raises(ConfigurationError) as err:
            BlowupCenter(**kwargs)
        assert str(err.value) == message
    center = BlowupCenter(through=(('a', 2), ('b', '1/2')))
    assert center.orders == {'a': 2, 'b': F(1, 2)}
    # orders is derived from through, so it takes no part in equality
    assert center == BlowupCenter(through=(('a', 2), ('b', F(1, 2))))


def _dense(model):
    '''(den, C, R, M) of a model's generators by the dense products R = C G
    and M = R C^T, for C / den the generators and G / dg the Gram matrix'''
    _, gram = model.lattice.scaled_gram
    nums = [c.numerators for _, c in model.mori_gens]
    den = lcm(*[d for d, _ in nums])
    cs = [[x * (den // d) for x in xs] for d, xs in nums]
    rows = [[sum(x * g for x, g in zip(c, col)) for col in zip(*gram)] for c in cs]
    return den, cs, rows, [[sum(x * y for x, y in zip(r, c)) for c in cs] for r in rows]


def _table(model):
    t = model.gen_table
    return t.den, [list(c) for c in t.gens], [list(r) for r in t.rows], [list(m) for m in t.pairing]


def test_catalog_extension_tables_equal_the_dense_products():
    cat = load_catalog()
    models = {id(v.model): v.model for f in cat.fixtures for v in (f.valuation, *f.equivariant)
              if v.model is not v.base}
    assert len(models) == 10
    for m in models.values():
        assert isinstance(m, ExtensionModel)
        assert _table(m) == _dense(m), m.name


def test_catalog_centre_orders_give_the_strict_transforms():
    '''on every catalog blow-up valuation's extension, a base generator C
    is pull(C) - ord e, with ord its centre order, 0 off the centre'''
    cat = load_catalog()
    vals = {id(v): v for f in cat.fixtures for v in (f.valuation, *f.equivariant)
            if v.model is not v.base}
    # the 12 fixture valuations and one equivariant valuation
    assert len(vals) == 13
    for v in vals.values():
        ext = v.model
        for n, c in v.base.mori_gens:
            strict = ext.pullback(c) - ext.center.orders.get(n, 0) * ext.e_class
            assert ext.gen(n) == strict, (ext.name, n)


WEIGHTS = [(a, b) for a in range(1, 4) for b in range(1, 4) if gcd(a, b) == 1]


@st.composite
def centers(draw):
    '''a catalog surface and a center on it: coprime weights up to 3,
    multiplicities in halves along up to three generators, and up to two
    extra curves with rational coordinates'''
    base = draw(st.sampled_from(load_catalog().surfaces))
    through = draw(st.dictionaries(st.sampled_from(base.gen_names),
                                   st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]),
                                   max_size=3))
    r = base.lattice.rank + 1
    coord = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    extra = draw(st.lists(st.lists(coord, min_size=r, max_size=r), max_size=2))
    return base, BlowupCenter(weights=draw(st.sampled_from(WEIGHTS)), exc_name='new-e',
                              through=tuple(through.items()),
                              extra_mori=[(f'new-{i}', v) for i, v in enumerate(extra)])


SIGMA5 = load_catalog().surface('sigma5')


@settings(max_examples=60, deadline=None)
@given(centers())
# kappa lam = 1 and every base generator but exc1 misses the center, so
# those rows are passed through
@example((SIGMA5, BlowupCenter(exc_name='new-e', through=(('exc1', 1),))))
# kappa lam = 4: weights (1, 2) give lam = 2, a half multiplicity kappa = 2
@example((SIGMA5, BlowupCenter(weights=(1, 2), exc_name='new-e',
                               through=(('exc1', F(1, 2)),))))
def test_bordered_extension_tables_equal_the_dense_products(drawn):
    '''an extension's table, bordered from its base's, is the table the
    dense products give on the extension's own lattice and generators'''
    base, center = drawn
    try:
        ext = build_blowup_extension(base, center)
    except ConfigurationError as exc:
        # a multiplicity that the genus of an integral curve does not allow
        assert 'is inconsistent for curve' in str(exc)
        assume(False)
    assert _table(ext) == _dense(ext)


def test_extension_center_on_contracted_curve():
    # blowing up a point of the contracted axis is allowed; the valuation
    # layer owns the discrepancy correction for such centers
    xq = make_xq()
    ext = build_blowup_extension(xq, BlowupCenter(through=(('axis', 1),), exc_name='e'))
    assert pair(ext.gen('axis'), ext.e_class) == 1
    assert ext.a_over_base == 2


def test_failures_reported():
    m = make_xq()
    bad = SurfaceModel(m.name, m.lattice, m.canonical, m.mori_gens,
                       contracted=('ghost',))
    assert any('ghost' in f for f in bad.failures())
    # two (-1)-curves meeting in one point are not negative definite
    bad2 = SurfaceModel(m.name, m.lattice, m.canonical, m.mori_gens,
                        contracted=('exc1', 'ray2'))
    assert any('negative definite' in f for f in bad2.failures())
    # class that is neither negative nor K-negative cannot be extremal
    lat = m.lattice
    bad3 = SurfaceModel('x', lat, m.canonical,
                        m.mori_gens + (('bogus', lat.div((-1, 0, 0, 0, 0, 0))),))
    assert any('bogus' in f for f in bad3.failures())


def test_surface_doc_roundtrip():
    m = make_index3()
    doc = surface_to_doc(m)
    m2 = surface_from_doc(doc)
    assert m2.lattice == m.lattice
    assert m2.canonical == m.canonical
    assert m2.degree == 5
    with pytest.raises(KeyError, match='canonical'):
        surface_from_doc({'basis': ['h'], 'gram': [['1']]})


def make_p2_at_nine_points() -> SurfaceModel:
    '''the plane blown up at nine points: K.K = 0, so no positive degree'''
    names = ('h',) + tuple(f'e{i}' for i in range(1, 10))
    lat = IntersectionLattice.diagonal(names, (1,) + (-1,) * 9)
    return SurfaceModel('p2_9', lat, lat.div((-3,) + (1,) * 9),
                        tuple((f'exc{i}', lat.basis(f'e{i}')) for i in range(1, 10)))


def _extended(m: SurfaceModel, name: str, gens=(), **contraction) -> SurfaceModel:
    return SurfaceModel(name, m.lattice, m.canonical, m.mori_gens + gens, **contraction)


REFUSED_MODELS = [
    (lambda: _extended(make_xq(), 'xq', contracted=('axis',),
                       k_discrepancies=(('axis', F(-1, 3)),)),
     ('xq: pull(K) not orthogonal to contracted curve axis',)),
    (lambda: _extended(make_xq(), 'x', (('bogus', make_xq().lattice.div((-1, 0, 0, 0, 0, 0))),)),
     ('x: generator bogus has C.C = 1 >= 0 and K.C = 3 >= 0',)),
    (lambda: _extended(make_sigma5(), 'sigma5', (('twice', make_sigma5().lattice.div((0, 2, 0, 0, 0))),)),
     ('sigma5: generator twice fails adjunction (C.C + K.C = -6)',)),
    (make_p2_at_nine_points, ('p2_9: anticanonical degree 0 is not positive',)),
    (lambda: _extended(make_sigma5(), 'sigma5', (('exc1', make_sigma5().lattice.basis('e1')),)),
     ("sigma5: generator name 'exc1' is used twice",)),
    (lambda: _extended(make_xq(), 'xq', contracted=('exc1', 'ray2')),
     ('xq: contracted curves are not negative definite',
      'xq: pull(K) not orthogonal to contracted curve exc1',
      'xq: pull(K) not orthogonal to contracted curve ray2')),
    (lambda: _extended(make_xq(), 'xq', k_discrepancies=(('exc1', F(1)),)),
     ('xq: discrepancy given for a non-contracted curve',)),
]


@pytest.mark.parametrize('build, failures', REFUSED_MODELS,
                         ids=['pullback-not-orthogonal', 'neither-negative', 'adjunction',
                              'degree-not-positive', 'generator-name-twice',
                              'contraction-not-definite', 'discrepancy-off-the-contraction'])
def test_model_refusals_name_the_failed_check(build, failures):
    m = build()
    assert m.failures() == failures
    with pytest.raises(ConfigurationError) as err:
        m.validate()
    assert str(err.value) == '; '.join(failures)


def _elsewhere():
    '''a class of the plane's lattice, foreign to every other model'''
    return make_p2().lattice.basis('h')


# the one refusal of a foreign class names the basis it should live on
ON_SIGMA5 = r'^class 1\*h does not live on the lattice with basis h, e1, e2, e3, e4$'

REFUSED_INPUTS = [
    (lambda: combination(make_sigma5().lattice, [(1, _elsewhere())]), ValueError, ON_SIGMA5),
    (lambda: zariski_decompose(make_sigma5(), _elsewhere()), ValueError, ON_SIGMA5),
    (lambda: volume_profile(make_sigma5(), _elsewhere(), make_sigma5().lattice.basis('e1')),
     ValueError, ON_SIGMA5),
    (lambda: build_blowup_extension(make_sigma5(), BlowupCenter(exc_name='w'))
     .pullback(_elsewhere()),
     ValueError, ON_SIGMA5),
    (lambda: pullback_weil(make_xq(), _elsewhere()),
     ValueError, r'^class 1\*h does not live on the lattice with basis h, e1, e2, e3, e4, e5$'),
    # built without validate(): the plane's line is not contractible
    (lambda: pullback_weil(_extended(make_p2(), 'p2', contracted=('line',)),
                           make_p2().lattice.basis('h')),
     ConfigurationError, r"p2: support \['line'\] is not negative definite"),
    (lambda: IntersectionLattice.diagonal(('h', 'h'), (1, -1)),
     ValueError, 'duplicate basis names'),
    (lambda: make_sigma5().lattice.index('e5'),
     KeyError, "no basis vector 'e5'"),
]


@pytest.mark.parametrize('call, error, message', REFUSED_INPUTS,
                         ids=['combination', 'zariski-decompose', 'volume-profile',
                              'extension-pullback', 'pullback-weil', 'contraction-not-definite',
                              'duplicate-basis-names', 'unknown-basis-name'])
def test_lattice_mismatches_are_refused(call, error, message):
    '''without its check, each of the first five calls would zip-truncate
    the foreign class into a wrong answer'''
    with pytest.raises(error, match=message):
        call()
