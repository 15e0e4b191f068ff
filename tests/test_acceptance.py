'''
acceptance gate: ten criteria, one printed line each

Run with -s to see the lines; every criterion recomputes its claim from
first principles against the shipped catalog.
'''

import random
import time
from fractions import Fraction as F

import builders
from oracle import ZariskiOracle, printed_margin, profile_failures
from kwall.catalog import load_catalog, load_fixture
from kwall.lattice import pair
from kwall.positivity import integrate_profile, zariski_decompose
from kwall.stability import (
    Verdict,
    beta,
    index_feasibility,
    polystability_check,
    quotient_order_bound,
    s_invariant,
    solve_wall,
    valuation_profile,
    vgit_slope,
)

# expected vanishing orders at c = 0 of the displayed rows
PREFACTORS = {
    'Sigma5/D_1_17/L1': '13/15',
    'Xt/D_11_52/Cprime': '19/30',
    'Xt/D_11_52/E': '13/15',
    'X12/D_4_23/F3': '23/15',
    'Xprime/D_13_41/E': '32/15',
    'Xprime/D_13_41/l3': '41/30',
    'Xq/D_1_4/E': '3/2',
    'Index3/exclusion/l': '11/9',
}

# displayed volume profiles: tau, (t_lo, t_hi, (c0, c1, c2)) pieces, integral
PROFILES = {
    'Sigma5/D_1_17/L1': ('2', [('0', '1', ('5', '-2', '-1')),
                               ('1', '2', ('8', '-8', '2'))], '13/3'),
    'X12/D_4_23/F3': ('4', [('0', '3', ('5', '-2', '1/6')),
                            ('3', '4', ('8', '-4', '1/2'))], '23/3'),
    'Xt/D_11_52/Cprime': ('3/2', [('0', '1', ('5', '-4', '0')),
                                  ('1', '3/2', ('9', '-12', '4'))], '19/6'),
    'Xt/D_11_52/E': ('3/2', [('0', '1/2', ('5', '0', '-4')),
                             ('1/2', '3/2', ('6', '-4', '0'))], '13/3'),
    'Xq/D_1_4/E': ('5/2', [('0', '2', ('5', '0', '-1')),
                           ('2', '5/2', ('25', '-20', '4'))], '15/2'),
    'Xprime/D_13_41/l3': ('7/2', [('0', '1/2', ('5', '0', '-8/3')),
                                  ('1/2', '3/2', ('23/4', '-3', '1/3')),
                                  ('3/2', '7/2', ('49/8', '-7/2', '1/2'))], '41/6'),
    'Xprime/D_13_41/E': ('7/2', [('0', '2', ('5', '0', '-1/2')),
                                 ('2', '3', ('17/3', '-2/3', '-1/3')),
                                 ('3', '7/2', ('98/3', '-56/3', '8/3'))], '32/3'),
    'Index3/exclusion/l': ('10/3', [('0', '1/3', ('5', '0', '-9/2')),
                                    ('1/3', '10/3', ('50/9', '-10/3', '1/2'))], '55/9'),
}

# torus-fixed anchors and the valuation that drives each wall
ANCHORS = {
    'Xn/D_1_17/E': 'line12',
    'Xt/D_11_52/Cprime': 'cprime',
    'Xq/D_1_4/E': 'E',
    'Xprime/D_13_41/l3': 'l3',
}

RANK_LE_6_BUILDERS = (
    builders.p2, builders.sigma5, builders.xn, builders.x11, builders.x12,
    builders.x2, builders.x3, builders.x4, builders.xt, builders.xt3,
    builders.xt4, builders.xq, builders.xq32, builders.xq41, builders.xq5,
    builders.xprime, builders.xprime_deg,
)


def test_criterion_01_wall_table_rederived_quickly():
    t0 = time.perf_counter()
    cat = load_catalog()
    roots = set()
    for f in cat.fixtures:
        sol = solve_wall(beta(f.pair, f.valuation), f.pair.c_lo, f.pair.c_hi)
        assert sol.root == f.expected.wall, f.id
        if sol.root is not None:
            roots.add(sol.root)
    assert len(roots) == 24
    assert sorted(roots) == list(cat.wall_table.walls)
    assert {e.value for e in cat.wall_table.entries if e.divisorial} == {
        F(1, 17), F(11, 52), F(1, 4)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    print(f'PASS criterion 1: 24/24 walls rederived, '
          f'divisorial 1/17 11/52 1/4, {elapsed:.2f}s')


def test_criterion_02_expected_vanishing_prefactors():
    for fid, want in PREFACTORS.items():
        f = load_fixture(fid)
        s = s_invariant(f.pair, f.valuation)
        assert s.const == F(want), fid
        assert s.slope == -2 * s.const, fid
    print(f'PASS criterion 2: {len(PREFACTORS)} expected vanishing '
          f'prefactors match')


def test_criterion_03_printed_margins_match_their_cells():
    cat = load_catalog()
    shown = 0
    for f in cat.fixtures:
        if f.display is None or f.display.beta_text is None:
            continue
        margin = beta(f.pair, f.valuation)
        assert printed_margin(margin, f.display.scale) == f.display.beta_text, f.id
        shown += 1
    assert shown == 17
    assert set(cat.wall_table.walls) == {
        f.expected.wall for f in cat.fixtures if f.expected.wall is not None}
    # the one recorded cell whose root contradicts its own row stays
    # unattached and is flagged in the notes
    odd = cat.fixture('X12/D_2_9/a2-head')
    assert odd.display is not None and odd.display.beta_text is None
    assert any('(23c-4)/15' in note for note in odd.notes)
    margin = beta(odd.pair, odd.valuation)
    assert printed_margin(margin) == '(9c-2)/5'
    assert solve_wall(margin, odd.pair.c_lo, odd.pair.c_hi).root == F(2, 9)
    print('PASS criterion 3: 17/17 printed margins match at their scales; '
          'inconsistent cell flagged')


def test_criterion_04_displayed_profiles_piece_by_piece():
    for fid, (tau, pieces, integral) in PROFILES.items():
        prof = valuation_profile(load_fixture(fid).valuation)
        assert prof.tau == F(tau), fid
        assert len(prof.pieces) == len(pieces), fid
        for got, (lo, hi, coeffs) in zip(prof.pieces, pieces):
            assert got.t_lo == F(lo) and got.t_hi == F(hi), fid
            assert got.coeffs == tuple(F(x) for x in coeffs), fid
        assert integrate_profile(prof) == F(integral), fid
    # the recorded closing piece (8t^2-32t+50)/3 does not close: it leaves
    # volume 12 at tau, where the derived (2/3)(2t-7)^2 piece reaches zero
    prof = valuation_profile(load_fixture('Xprime/D_13_41/E').valuation)
    tau = F(7, 2)
    recorded = (8 * tau ** 2 - 32 * tau + 50) / 3
    assert recorded == 12
    assert prof.value(tau) == 0
    assert prof.pieces[-1].coeffs == (F(98, 3), F(-56, 3), F(8, 3))
    assert 3 * prof.pieces[-1].coeffs[2] == 8
    print('PASS criterion 4: 8/8 displayed profiles match piece by piece; '
          'recorded closing piece refuted (12 != 0 at tau)')


def _sampling_gens(m):
    '''generators pairing >= 0 with every other generator

    Distinct irreducible curves always do; the jet-contact display classes
    of the degenerate cones decompose against the fiber chain and would
    push random combinations outside the walkable part of the cone.
    '''
    gens = list(m.mori_gens)
    return [(n, c) for n, c in gens
            if all(pair(c, c2) >= 0 for n2, c2 in gens if n2 != n)]


def test_criterion_05_chamber_walk_agrees_with_subset_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20250825)
    total = 0
    for build in RANK_LE_6_BUILDERS:
        m = build()
        assert m.lattice.rank <= 6, m.name
        oracle = ZariskiOracle(m)
        zero = m.lattice.div((0,) * m.lattice.rank)
        pool = _sampling_gens(m)
        assert len(pool) >= m.lattice.rank, m.name
        for _ in range(60):
            d = zero
            for _, cls in pool:
                if rng.random() < 0.5:
                    d = d + F(rng.randint(0, 5), rng.randint(1, 3)) * cls
            if rng.random() < 0.4:
                d = d + rng.randint(1, 3) * m.anticanonical_pullback
            z = zariski_decompose(m, d)
            p0 = oracle.positive_part(d)
            assert p0 is not None and z.positive == p0, (m.name, d)
            n = zero
            for name, mult in z.negative_support:
                n = n + mult * m.gen(name)
            assert n == d - p0, (m.name, d)
            total += 1
    elapsed = time.perf_counter() - t0
    assert total >= 1000
    assert elapsed < 60
    print(f'PASS criterion 5: {total} random classes over '
          f'{len(RANK_LE_6_BUILDERS)} models agree with the subset oracle, '
          f'{elapsed:.1f}s')


def test_criterion_06_every_profile_validates_and_integrates():
    checked = 0
    for f in load_catalog().fixtures:
        prof = valuation_profile(f.valuation)
        assert profile_failures(prof) == (), f.id
        base = f.valuation.base
        assert prof.value(F(0)) == base.degree, f.id
        if f.id != 'P2/sanity/line':
            assert base.degree == 5, f.id
        exact = float(integrate_profile(prof))
        quad = 0.0
        for pc in prof.pieces:
            c0, c1, c2 = (float(x) for x in pc.coeffs)
            lo, hi = float(pc.t_lo), float(pc.t_hi)
            mid = (lo + hi) / 2
            quad += (hi - lo) / 6 * (
                (c0 + c1 * lo + c2 * lo * lo)
                + 4 * (c0 + c1 * mid + c2 * mid * mid)
                + (c0 + c1 * hi + c2 * hi * hi))
        assert abs(exact - quad) <= 1e-9 * max(1.0, abs(exact)), f.id
        checked += 1
    assert checked == 45
    print('PASS criterion 6: 45/45 profiles validate; exact integrals '
          'within 1e-9 of float quadrature')


def test_criterion_07_degree_bounds_pin_the_singularities():
    bound = quotient_order_bound(5 * (1 - 2 * F(1, 100)) ** 2)
    assert bound == F(4500, 2401) and bound < 2
    bound = quotient_order_bound(5 * (1 - 2 * F(1017, 17000)) ** 2)
    assert 2 < bound < 3
    assert abs(float(bound) - 2.3225) < 1e-4
    # a boundary of order >= 4 cancels the coefficient: only d n^2 <= 9/5
    # survives, independently of c
    for c in (F(1, 100), F(1, 10), F(2, 5), F(49, 100)):
        assert index_feasibility(1, 1, c, 4)
        for d, n in ((2, 1), (1, 2), (3, 1), (1, 3), (2, 2)):
            assert not index_feasibility(d, n, c, 4)
    print('PASS criterion 7: quotient order bound 4500/2401 < 2, then '
          '~2.3225 < 3; order-4 boundary forces d n^2 <= 9/5')


def test_criterion_08_anchors_polystable_only_on_the_wall():
    eps = F(1, 1000)
    for fid, driver in ANCHORS.items():
        f = load_fixture(fid)
        wall = f.expected.wall
        on = polystability_check(f.pair, f.equivariant, wall)
        assert on.verdict is Verdict.POLYSTABLE, fid
        for c in (wall - eps, wall + eps):
            off = polystability_check(f.pair, f.equivariant, c)
            assert off.verdict is Verdict.UNSTABLE, (fid, c)
            assert driver in {name for name, _ in off.witnesses}, (fid, c)
    print('PASS criterion 8: 4/4 anchors polystable on the wall, unstable '
          'with a named witness 1/1000 on either side')


def test_criterion_09_plane_margin_identically_zero():
    f = load_fixture('P2/sanity/line')
    sol = solve_wall(beta(f.pair, f.valuation), f.pair.c_lo, f.pair.c_hi)
    assert sol.identically_zero
    assert sol.root is None
    print('PASS criterion 9: plane sanity margin is identically zero')


def test_criterion_10_vgit_slope_calibrates_and_decreases():
    assert vgit_slope(F(1, 4)) == F(5, 2)
    cs = [F(1, 4) + k * F(1, 101) for k in range(26)]
    slopes = [vgit_slope(c) for c in cs]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    print('PASS criterion 10: vgit slope is 5/2 at 1/4 and strictly '
          'decreasing towards 1/2')
