from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import builders
import kwall.stability
from kwall.positivity import integrate_profile
from kwall.stability import (
    AffineRatFn,
    LogPair,
    ValuationSpec,
    Verdict,
    beta,
    index_feasibility,
    log_discrepancy,
    polystability_check,
    quotient_order_bound,
    s_invariant,
    solve_wall,
    valuation_profile,
    vgit_slope,
)
from kwall.lattice import IntersectionLattice
from kwall.surface import BlowupCenter, ConfigurationError, SurfaceModel

F = Fraction


def d_1_17(m):
    '''quadruple line plus the residual conic-degenerate part'''
    return LogPair.make(m, [('line12', 4), ('line34', 2), ('exc1', 2), ('exc2', 2)])


def d_nodal(m):
    '''same component pattern on the one-node degeneration'''
    return LogPair.make(m, [('line12', 4), ('line34', 2), ('exc1', 2), ('exc2', 2)])


def test_affine_algebra():
    f = AffineRatFn(1, -4)
    assert f.value(F(1, 17)) == F(13, 17)
    g = f - AffineRatFn(F(13, 15), F(-26, 15))
    assert (g.const, g.slope) == (F(2, 15), F(-34, 15))
    assert str(g) == '2/15 - 34/15 c'
    assert str(AffineRatFn(0, 2)) == '2 c'
    assert str(AffineRatFn(F(1, 2), 0)) == '1/2'
    assert (-g + g).is_zero
    assert not f.is_zero


def test_pair_validation():
    m = builders.sigma5()
    p = d_1_17(m)
    assert p.failures() == ()
    assert p.anticanonical_factor == 2
    with pytest.raises(ConfigurationError, match='multiple of the anticanonical'):
        LogPair.make(m, [('line12', 3), ('line34', 2), ('exc1', 2), ('exc2', 2)])
    with pytest.raises(ConfigurationError, match='negative multiplicity'):
        LogPair.make(m, [('line12', -4), ('line34', 2)])
    assert (LogPair.c_lo, LogPair.c_hi) == (0, F(1, 2))
    xn = builders.xn()
    with pytest.raises(ConfigurationError, match='contracted curve'):
        LogPair.make(xn, [('node', 2), ('line12', 4), ('line34', 2),
                          ('exc1', 2), ('exc2', 2)])


def _not_a_multiple(coords) -> str:
    text = ', '.join(str(F(x)) for x in coords)
    return f'boundary class ({text}) is not a non-negative multiple of the anticanonical class'


def _p2_at_nine_points():
    names = ('h',) + tuple(f'e{i}' for i in range(1, 10))
    lat = IntersectionLattice.diagonal(names, (1,) + (-1,) * 9)
    return SurfaceModel('p2_9', lat, lat.div((-3,) + (1,) * 9),
                        tuple((f'exc{i}', lat.basis(f'e{i}')) for i in range(1, 10)))


DEGREE_NOT_POSITIVE = 'degree is not positive, the scaled polarisation cannot be ample'


@pytest.mark.parametrize('surface, parts, message', [
    # one copy of line12 short of the quintic boundary
    (builders.sigma5, [('line12', 3), ('line34', 2), ('exc1', 2), ('exc2', 2)],
     _not_a_multiple((5, -1, -1, -2, -2))),
    # K itself is a negative multiple of -K
    (builders.sigma5, [(('k', (-3, 1, 1, 1, 1)), 1)],
     _not_a_multiple((-3, 1, 1, 1, 1))),
    # the pullback through the node adds a contracted curve
    (builders.xn, [('line12', 4), ('line34', 2), ('exc1', 2)],
     _not_a_multiple((6, -2, -4, -2, -2))),
    (builders.xn, [('line12', -4), ('line34', 2)],
     'component line12 has negative multiplicity -4; '
     + _not_a_multiple((-2, 4, 4, -2, -2))),
    # a fractional multiplicity, and a component meeting the contracted axis
    (builders.xq, [('ray1', 2), ('ray2', F(1, 3))],
     _not_a_multiple((F(7, 3), -2, F(-1, 3), 0, 0, 0))),
    (builders.xq, [('exc1', 1)],
     _not_a_multiple((F(1, 4), F(3, 4), F(-1, 4), F(-1, 4), F(-1, 4), F(-1, 4)))),
    # degree 0: every boundary but the empty one is refused
    (_p2_at_nine_points, [('exc1', 1)],
     _not_a_multiple((0, 1, 0, 0, 0, 0, 0, 0, 0, 0)) + '; ' + DEGREE_NOT_POSITIVE),
    (_p2_at_nine_points, [], DEGREE_NOT_POSITIVE),
], ids=['extra-line', 'negative-multiple', 'through-the-node', 'negative-multiplicity',
        'fractional-orders', 'meets-the-axis', 'degree-zero', 'degree-zero-empty'])
def test_pair_refusals_are_pinned(surface, parts, message):
    m = surface()
    # a labelled part gives its class by coordinates on m
    parts = [((comp[0], m.lattice.div(comp[1])) if isinstance(comp, tuple) else comp, mult)
             for comp, mult in parts]
    with pytest.raises(ConfigurationError) as err:
        LogPair.make(m, parts)
    assert str(err.value) == f'{m.name}: {message}'


def test_boundary_orders():
    p = d_nodal(builders.xn())
    assert p.boundary_order('line12') == 4
    assert p.boundary_order('exc1') == 2
    assert p.boundary_order('exc4') == 0
    assert p.boundary_order('node') == 0
    with pytest.raises(ConfigurationError, match='neither a generator'):
        p.boundary_order('ghost')


def test_boundary_order_through_singular_point():
    # a line through the blown-up cluster meets the contracted curve, so the
    # cycle-level order is forced by the pullback solve, not a coordinate
    xn = builders.xn()
    generic = LogPair.make(xn, [(('q3-line', xn.lattice.div((1, 0, 0, -1, 0))), 2),
                                ('line13', 2), ('line23', 2), ('exc4', 2)])
    assert generic.failures() == ()
    assert generic.boundary_order('node') == 4
    assert generic.boundary_order('q3-line') == 2
    v = ValuationSpec.on_surface(generic, 'q3-line')
    assert (v.a_x, v.ord_b) == (1, 2)
    node = ValuationSpec.on_surface(generic, 'node')
    assert log_discrepancy(generic, node) == AffineRatFn(1, -4)


def test_tangent_boundary_on_quartic_cone_degeneration():
    # boundary of the cone-like model: triple section plus the four
    # exceptional marks; it misses the contracted curve entirely
    xt = builders.xt()
    p = LogPair.make(xt, [(('Cprime', xt.lattice.div((1, 4, -1, -1, -1, -1))), 3),
                          ('exc1', 1), ('exc2', 1), ('exc3', 1), ('exc4', 1)])
    assert p.failures() == ()
    assert p.boundary_order('sigma') == 0
    assert p.boundary_order('Cprime') == 3
    a = log_discrepancy(p, ValuationSpec.on_surface(p, 'Cprime'))
    assert (a.const, a.slope) == (1, -3)
    a_sing = log_discrepancy(p, ValuationSpec.on_surface(p, 'sigma'))
    assert (a_sing.const, a_sing.slope) == (F(1, 2), 0)


def test_log_discrepancy_line():
    p = d_1_17(builders.sigma5())
    v = ValuationSpec.on_surface(p, 'line12')
    a = log_discrepancy(p, v)
    assert (a.const, a.slope) == (1, -4)
    untouched = ValuationSpec.on_surface(p, 'line13')
    assert log_discrepancy(p, untouched) == AffineRatFn(1, 0)


def test_s_invariant_line():
    p = d_1_17(builders.sigma5())
    s = s_invariant(p, ValuationSpec.on_surface(p, 'line12'))
    assert (s.const, s.slope) == (F(13, 15), F(-26, 15))


def _counting_walks(monkeypatch):
    walks = []
    real = kwall.stability.volume_profile
    monkeypatch.setattr(kwall.stability, 'volume_profile',
                        lambda *args: walks.append(args) or real(*args))
    return walks


def test_each_ray_of_a_model_is_integrated_once(monkeypatch):
    '''the integral is kept on the model per ray: a second valuation along
    the same ray, on a second pair over the model, does not walk again'''
    walks = _counting_walks(monkeypatch)
    m = builders.sigma5()
    p, other = d_1_17(m), LogPair.make(m, [])
    first = s_invariant(p, ValuationSpec.on_surface(p, 'line12'))
    assert s_invariant(p, ValuationSpec.on_surface(p, 'line12')) == first
    assert s_invariant(other, ValuationSpec.on_surface(other, 'line12')) == AffineRatFn(
        first.const, 0)
    assert len(walks) == 1
    s_invariant(p, ValuationSpec.on_surface(p, 'line34'))
    assert len(walks) == 2


def test_rays_are_told_apart_by_origin_and_direction(monkeypatch):
    '''the extension's own -K starts a different ray along the same
    exceptional curve than the pulled-back -K of the base'''
    walks = _counting_walks(monkeypatch)
    m = builders.sigma5()
    # the point where line12 meets exc1
    p = d_1_17(m)
    over_base = ValuationSpec.on_extension(
        p, BlowupCenter.make(exc_name='e', through=(('line12', 1), ('exc1', 1))))
    ext = over_base.model
    q = LogPair.make(ext, [])
    on_model = ValuationSpec('e', ext, ext.e_class, F(1), F(0))
    s, t = s_invariant(p, over_base), s_invariant(q, on_model)
    assert len(walks) == 2 and len(ext.ray_integrals) == 2
    assert s.const == integrate_profile(valuation_profile(over_base)) / m.degree
    assert t.const == integrate_profile(valuation_profile(on_model)) / ext.degree
    assert s.const != t.const


def test_beta_and_wall_line():
    p = d_1_17(builders.sigma5())
    b = beta(p, ValuationSpec.on_surface(p, 'line12'))
    assert (b.const, b.slope) == (F(2, 15), F(-34, 15))
    assert solve_wall(b).root == F(1, 17)
    # sign pattern around the wall
    assert b.value(F(1, 17) - F(1, 1000)) > 0
    assert b.value(F(1, 17) + F(1, 1000)) < 0


def test_beta_exceptional_over_node():
    p = d_nodal(builders.xn())
    e = ValuationSpec.on_surface(p, 'node')
    assert (e.a_x, e.ord_b) == (1, 0)
    b = beta(p, e)
    assert (b.const, b.slope) == (F(-2, 15), F(34, 15))
    assert solve_wall(b).root == F(1, 17)
    assert b.value(F(1, 20)) < 0 < b.value(F(1, 10))


def test_beta_horizontal_line_on_node_model():
    p = d_nodal(builders.xn())
    b = beta(p, ValuationSpec.on_surface(p, 'line12'))
    assert (b.const, b.slope) == (F(2, 15), F(-34, 15))


def test_empty_boundary_sanity():
    m = builders.p2()
    p = LogPair.make(m, [])
    assert p.anticanonical_factor == 0
    b = beta(p, ValuationSpec.on_surface(p, 'line'))
    assert b.is_zero
    res = solve_wall(b)
    assert res.identically_zero and res.root is None


def test_solve_wall_edges():
    assert solve_wall(AffineRatFn(1, 0)).root is None
    assert solve_wall(AffineRatFn(1, -1)).root is None  # root 1 outside
    assert solve_wall(AffineRatFn(-1, 4)).root == F(1, 4)
    assert solve_wall(AffineRatFn(-1, 4), F(1, 4), F(1, 2)).root is None
    assert not solve_wall(AffineRatFn(1, -4)).identically_zero


# small numerators and denominators, so that sums cancel and roots land on
# the interval ends often
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _reference_str(const, slope):
    '''the display form of const + slope c, from the Fractions'''
    if slope == 0:
        return str(const)
    tail = f'{abs(slope)} c'
    if const == 0:
        return tail if slope > 0 else f'-{tail}'
    return f'{const} {"+" if slope > 0 else "-"} {tail}'


def _built_every_way(const, slope):
    '''the function const + slope c from each constructor'''
    d = const.denominator * slope.denominator
    cn, sn = const.numerator * slope.denominator, slope.numerator * const.denominator
    out = [AffineRatFn(const, slope), AffineRatFn(str(const), str(slope)),
           AffineRatFn.from_numerators(-3 * d, -3 * cn, -3 * sn)]
    if const.denominator == slope.denominator == 1:
        out.append(AffineRatFn(int(const), int(slope)))
    return out


@settings(max_examples=200)
@given(c0=SMALL, s0=SMALL, c1=SMALL, s1=SMALL, c=SMALL)
@example(c0=F(1, 2), s0=F(-1, 3), c1=F(1, 2), s1=F(-1, 3), c=F(0))
def test_affine_functions_match_fraction_arithmetic(c0, s0, c1, s1, c):
    '''sums, differences, negations, values and display forms read the
    Fractions that plain Fraction arithmetic gives, and equal functions
    compare and hash equal whichever constructor or operation built them'''
    f, g = AffineRatFn(c0, s0), AffineRatFn(c1, s1)
    for h, const, slope in [(f, c0, s0), (f + g, c0 + c1, s0 + s1),
                            (f - g, c0 - c1, s0 - s1), (-f, -c0, -s0)]:
        assert (h.const, h.slope) == (const, slope)
        assert h.value(c) == const + slope * c
        assert str(h) == _reference_str(const, slope)
        assert h.is_zero == (const == slope == 0)
        d, cn, sn = h.numerators
        assert d > 0 and F(cn, d) == const and F(sn, d) == slope
        for other in _built_every_way(const, slope):
            assert other == h and hash(other) == hash(h)
            assert other.numerators == h.numerators
    assert (f - g + g) == f and hash(f - g + g) == hash(f)
    assert (f == g) == ((c0, s0) == (c1, s1))


def _reference_wall(const, slope, lo, hi):
    '''the root of const + slope c in the open (lo, hi), by Fractions'''
    if const == slope == 0:
        return None, True
    if slope == 0:
        return None, False
    root = -const / slope
    return (root if lo < root < hi else None), False


@settings(max_examples=200)
@given(const=SMALL, slope=SMALL, lo=SMALL, hi=SMALL)
@example(const=F(-1), slope=F(4), lo=F(1, 4), hi=F(1, 2))     # root at lo
@example(const=F(-1), slope=F(2), lo=F(1, 4), hi=F(1, 2))     # root at hi
@example(const=F(1, 3), slope=F(-2, 3), lo=F(1, 2), hi=F(1))  # at lo, falling
@example(const=F(3, 2), slope=F(0), lo=F(-3), hi=F(3))        # zero slope
@example(const=F(0), slope=F(0), lo=F(0), hi=F(1, 2))         # identically zero
@example(const=F(-1), slope=F(3), lo=F(0), hi=F(1, 2))        # a wall inside
def test_solve_wall_matches_a_fraction_reference(const, slope, lo, hi):
    '''the root is refused at either end of the open interval'''
    sol = solve_wall(AffineRatFn(const, slope), lo, hi)
    assert (sol.root, sol.identically_zero) == _reference_wall(const, slope, lo, hi)
    assert sol.root is None or type(sol.root) is F


@given(a0=st.fractions(min_value=0, max_value=3, max_denominator=20),
       m=st.fractions(min_value=0, max_value=8, max_denominator=20),
       s=st.fractions(min_value=F(1, 10), max_value=4, max_denominator=30))
def test_wall_algebra(a0, m, s):
    b = AffineRatFn(a0, -m) - AffineRatFn(s, -2 * s)
    res = solve_wall(b)
    if 2 * s == m:
        assert res.root is None
        assert res.identically_zero == (a0 == s)
    else:
        w = (s - a0) / (2 * s - m)
        assert res.root == (w if 0 < w < F(1, 2) else None)


def _xn_equivariant(p):
    m = p.surface
    h_line = ValuationSpec('h-line', m, m.lattice.div((1, 0, 0, -1, 0)),
                           F(1), F(0), 'vertical')
    return [
        ValuationSpec.on_surface(p, 'line34', 'vertical'),
        ValuationSpec.on_surface(p, 'exc1', 'vertical'),
        ValuationSpec.on_surface(p, 'exc2', 'vertical'),
        ValuationSpec.on_surface(p, 'exc4', 'vertical'),
        h_line,
        ValuationSpec.on_surface(p, 'line12', 'horizontal'),
    ]


def test_polystability_at_the_wall():
    p = d_nodal(builders.xn())
    vs = _xn_equivariant(p)
    report = polystability_check(p, vs, F(1, 17))
    assert report.verdict is Verdict.POLYSTABLE
    assert report.witnesses == ()
    assert dict(report.margins)['line12'] == 0
    assert all(x > 0 for n, x in report.margins if n != 'line12')


def test_polystability_off_the_wall():
    p = d_nodal(builders.xn())
    vs = _xn_equivariant(p)
    for c in (F(1, 17) - F(1, 1000), F(1, 17) + F(1, 1000), F(1, 10)):
        report = polystability_check(p, vs, c)
        assert report.verdict is Verdict.UNSTABLE
        assert 'line12' in {n for n, _ in report.witnesses}
    below = polystability_check(p, vs + [ValuationSpec.on_surface(p, 'node')],
                                F(1, 20))
    assert below.verdict is Verdict.UNSTABLE
    assert dict(below.witnesses)['node'] < 0


def test_polystability_boundary_and_errors():
    p = d_nodal(builders.xn())
    grazing = [ValuationSpec.on_surface(p, 'node', 'vertical')]
    report = polystability_check(p, grazing, F(1, 17))
    assert report.verdict is Verdict.SEMISTABLE_BOUNDARY
    assert report.witnesses == (('node', F(0)),)
    with pytest.raises(ConfigurationError, match='equivariant'):
        polystability_check(p, [], F(1, 17))
    with pytest.raises(ConfigurationError, match='outside the admissible'):
        polystability_check(p, grazing, F(1, 2))


def test_valuation_tags_and_klt_guard():
    m = builders.sigma5()
    p = d_1_17(m)
    with pytest.raises(ConfigurationError, match='tag'):
        ValuationSpec.on_surface(p, 'line12', 'diagonal')
    with pytest.raises(ConfigurationError, match='log discrepancy'):
        ValuationSpec('bad', m, m.gen('line12'), F(-1), F(0))


def test_extension_valuation_defaults():
    m = builders.sigma5()
    p = d_1_17(m)
    center = BlowupCenter.make(exc_name='e', through=(('line12', 1),))
    v = ValuationSpec.on_extension(p, center, tag='plain')
    assert v.model is m.extension(center) and v.base is m
    assert v.name == 'e'
    assert (v.a_x, v.ord_b) == (2, 4)
    assert log_discrepancy(p, v) == AffineRatFn(2, -4)
    other = d_1_17(builders.sigma5())
    assert log_discrepancy(other, v) == AffineRatFn(2, -4)
    with pytest.raises(ConfigurationError, match='not live over'):
        log_discrepancy(d_nodal(builders.xn()), v)


def test_extension_ord_b_is_bounded_below_by_the_centre_data():
    '''a labelled component has no centre order, so ord_b must be stated;
    the generator components through the centre bound it from below'''
    m = builders.sigma5()
    # d_1_17 with its quadruple line given by a label instead of a name
    p = LogPair.make(m, [(('quad', m.gen('line12')), 4), ('line34', 2), ('exc1', 2),
                         ('exc2', 2)])
    center = BlowupCenter.make(exc_name='e', through=(('line12', 1), ('exc1', 1)))
    with pytest.raises(ConfigurationError, match="component 'quad' has no centre data"):
        ValuationSpec.on_extension(p, center)
    with pytest.raises(ConfigurationError, match='stated ord_b 3/2 is below 2'):
        ValuationSpec.on_extension(p, center, ord_b=F(3, 2))
    assert ValuationSpec.on_extension(p, center, ord_b=2).ord_b == 2
    # with the line named, the centre data gives its order too
    assert ValuationSpec.on_extension(d_1_17(m), center).ord_b == 6


def test_quotient_order_bound():
    assert quotient_order_bound(9) == 1
    eps = F(1, 100)
    assert quotient_order_bound(5 * (1 - 2 * eps) ** 2) < 2
    c = F(1, 17) + F(1, 1000)
    assert quotient_order_bound(5 * (1 - 2 * c) ** 2) < 3
    assert quotient_order_bound(F(9, 2)) == 2
    with pytest.raises(ConfigurationError) as err:
        quotient_order_bound(0)
    assert str(err.value) == 'degree 0 is not positive'


@given(d1=st.fractions(min_value=F(1, 10), max_value=9, max_denominator=40),
       d2=st.fractions(min_value=F(1, 10), max_value=9, max_denominator=40))
def test_quotient_order_bound_monotone(d1, d2):
    if d1 < d2:
        assert quotient_order_bound(d1) > quotient_order_bound(d2)


def test_index_feasibility():
    # a boundary order of at least 4 caps the cover degree at 9/5
    for c in (F(1, 10), F(1, 4), F(49, 100)):
        assert index_feasibility(1, 1, c, 4)
        assert not index_feasibility(1, 2, c, 4)
        assert not index_feasibility(2, 1, c, 4)
        assert index_feasibility(1, 1, c, 0)
    assert not index_feasibility(1, 3, F(1, 4), 3)
    assert index_feasibility(1, 3, F(12, 25), 3)
    with pytest.raises(ConfigurationError):
        index_feasibility(0, 1, F(1, 4), 0)
    with pytest.raises(ConfigurationError):
        index_feasibility(1, 1, F(1, 2), 0)
    with pytest.raises(ConfigurationError):
        index_feasibility(1, 1, F(1, 4), -1)


def test_vgit_slope():
    assert vgit_slope(F(1, 4)) == F(5, 2)
    assert vgit_slope(F(11, 28)) == F(10, 7)
    assert vgit_slope(F(3, 10)) == F(95, 47)
    with pytest.raises(ConfigurationError):
        vgit_slope(F(1, 4) - F(1, 1000))
    with pytest.raises(ConfigurationError):
        vgit_slope(F(1, 2))
    samples = [F(1, 4) + F(k, 100) for k in range(0, 25, 4)]
    values = [vgit_slope(c) for c in samples]
    assert values == sorted(values, reverse=True)
