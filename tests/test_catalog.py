import gc
import json
import weakref
from fractions import Fraction

import pytest

import builders
from builders import surface_to_doc
from oracle import printed_margin
import kwall.catalog
import kwall.positivity
import kwall.stability
import kwall.surface
from kwall.catalog import (
    CatalogError,
    catalog_path,
    load_catalog,
    load_fixture,
    pair_from_doc,
    valuation_from_doc,
)
from kwall.lattice import pair
from kwall.positivity import volume_profile
from kwall.stability import (
    LogPair,
    Verdict,
    beta,
    log_discrepancy,
    polystability_check,
    s_invariant,
    solve_wall,
)
from kwall.surface import SurfaceModel

F = Fraction

CATALOG = load_catalog()

BUILDERS = (builders.p2, builders.sigma5, builders.xn, builders.x11,
            builders.x12, builders.x2, builders.x3, builders.x4,
            builders.xt, builders.xt3, builders.xt4, builders.xq,
            builders.xq32, builders.xq41, builders.xq5, builders.xprime,
            builders.xprime_deg, builders.index3)

# families named Xt3/Xt4/XprimeDeg are degenerations listed under the
# parent family in the wall table
PARENT = {'Xt3': 'Xt', 'Xt4': 'Xt', 'XprimeDeg': 'Xprime'}


def test_shipped_surfaces_match_independent_builders():
    assert len(CATALOG.surfaces) == len(BUILDERS)
    for build in BUILDERS:
        ours = build()
        shipped = CATALOG.surface(ours.name)
        assert surface_to_doc(shipped) == surface_to_doc(ours)


def test_fixture_inventory():
    ids = [f.id for f in CATALOG.fixtures]
    assert len(ids) == len(set(ids)) == 45
    for kept in ('Sigma5/D_1_17/L1', 'Xt/D_11_52/Cprime',
                 'Xprime/D_13_41/E', 'Xq/D_1_4/E', 'P2/sanity/line'):
        assert kept in ids
    assert list(load_catalog().ids()) == ids


@pytest.mark.parametrize('fid', [f.id for f in CATALOG.fixtures])
def test_fixture_rederives_from_first_principles(fid):
    f = CATALOG.fixture(fid)
    a = log_discrepancy(f.pair, f.valuation)
    s = s_invariant(f.pair, f.valuation)
    b = beta(f.pair, f.valuation)
    assert a == f.expected.log_discrepancy
    if f.expected.vanishing_order is not None:
        assert s == f.expected.vanishing_order
    if f.expected.margin is not None:
        assert b == f.expected.margin
    assert b.const == a.const - s.const and b.slope == a.slope - s.slope
    assert solve_wall(b).root == f.expected.wall


@pytest.mark.parametrize('fid', [f.id for f in CATALOG.fixtures
                                 if f.display is not None
                                 and f.display.beta_text is not None])
def test_display_margin_text_is_the_scaled_margin(fid):
    f = CATALOG.fixture(fid)
    b = beta(f.pair, f.valuation)
    assert printed_margin(b, f.display.scale) == f.display.beta_text


def test_wall_table_is_sorted_and_complete():
    walls = load_catalog().wall_table.walls
    assert len(walls) == 24
    assert list(walls) == sorted(walls)
    assert walls[0] == F(1, 17) and walls[-1] == F(11, 28)
    assert {e.value for e in CATALOG.wall_table.entries if e.divisorial} == {
        F(1, 17), F(11, 52), F(1, 4)}


def test_wall_table_families_cover_the_fixture_walls():
    grouped = {}
    for f in CATALOG.fixtures:
        if f.expected.wall is None:
            continue
        fam = PARENT.get(f.family, f.family)
        grouped.setdefault(f.expected.wall, set()).add(fam)
    assert set(grouped) == set(CATALOG.wall_table.walls)
    for entry in CATALOG.wall_table.entries:
        assert set(entry.families) == grouped[entry.value]
        assert entry.kind in ('divisorial', 'flip')
        assert entry.description


def test_family_filters_prefix_match():
    assert len(CATALOG.ids()) == 45
    assert len(CATALOG.ids('X12')) == 9
    assert len(CATALOG.ids('Xt')) == 7
    assert len(CATALOG.ids('Xq')) == 9
    q_walls = {CATALOG.fixture(i).expected.wall for i in CATALOG.ids('Xq')}
    assert len(q_walls) == 8
    assert CATALOG.ids('Nope') == ()


def test_unknown_fixture_id_lists_available_ids():
    with pytest.raises(CatalogError) as err:
        load_fixture('Xq/D_0_1/ghost')
    assert 'Xq/D_0_1/ghost' in str(err.value)
    assert 'Sigma5/D_1_17/L1' in str(err.value)


def test_derived_rows_are_exactly_the_quintic_cone_chambers():
    derived = [f.id for f in CATALOG.fixtures
               if f.expected.vanishing_order is None]
    assert derived == [
        'Xq/D_19_68/exc-e', 'Xq/D_23_76/ech2', 'Xq/D_9_28/exc-e',
        'Xq/D_31_92/chain-node', 'Xq/D_7_20/exc-e', 'Xq/D_13_36/ech3',
        'Xq/D_11_28/ech4',
    ]
    for f in CATALOG.fixtures:
        assert f.expected.trust in ('golden', 'frozen')


def test_index_three_row_never_destabilises():
    f = CATALOG.fixture('Index3/exclusion/l')
    b = beta(f.pair, f.valuation)
    assert b.const == F(-8, 9) and b.slope == F(16, 9)
    assert solve_wall(b).root is None
    for c in (F(1, 100), F(1, 4), F(499, 1000)):
        assert b.value(c) < 0


def test_plane_sanity_row_is_identically_zero():
    f = CATALOG.fixture('P2/sanity/line')
    assert solve_wall(beta(f.pair, f.valuation)).identically_zero


def test_notes_surface_the_inconsistent_display_cells():
    a2 = CATALOG.fixture('X12/D_2_9/a2-head')
    assert a2.display.beta_text is None
    assert any('(23c-4)/15' in n for n in a2.notes)
    cusp = CATALOG.fixture('X12/D_8_31/exc-a1')
    assert any('x^2y-z^3' in n for n in cusp.notes)
    prof = CATALOG.fixture('Xprime/D_13_41/E')
    assert any('(2/3)(2t-7)^2' in n for n in prof.notes)


def test_equivariant_checklists():
    anchors = {'Xn/D_1_17/E', 'Xt/D_11_52/Cprime', 'Xq/D_1_4/E',
               'Xprime/D_13_41/l3'}
    for f in CATALOG.fixtures:
        if f.id not in anchors:
            assert f.equivariant == ()
            continue
        tags = [v.tag for v in f.equivariant]
        assert tags.count('horizontal') == 1
        assert set(tags) == {'horizontal', 'vertical'}


def test_polystability_at_the_divisorial_anchor():
    f = CATALOG.fixture('Xn/D_1_17/E')
    wall = f.expected.wall
    assert polystability_check(f.pair, f.equivariant, wall).verdict \
        is Verdict.POLYSTABLE
    off = polystability_check(f.pair, f.equivariant, wall + F(1, 1000))
    assert off.verdict is Verdict.UNSTABLE and off.witnesses


def test_env_override_points_at_a_different_catalog(tmp_path, monkeypatch):
    doc = json.loads(catalog_path().read_text())
    doc['walls'][0]['value'] = '1/16'
    alt = tmp_path / 'alt.json'
    alt.write_text(json.dumps(doc))
    monkeypatch.setenv('KWALL_CATALOG', str(alt))
    assert catalog_path() == alt
    assert load_catalog().wall_table.walls[0] == F(1, 16)
    monkeypatch.delenv('KWALL_CATALOG')
    assert load_catalog().wall_table.walls[0] == F(1, 17)


def test_a_missing_catalog_file_is_refused(tmp_path):
    with pytest.raises(CatalogError, match='does not exist'):
        load_catalog(tmp_path / 'missing.json')


def test_standalone_documents_decode_to_the_fixture_pair():
    f = load_fixture('Sigma5/D_1_17/L1')
    p = pair_from_doc({'surface': 'sigma5',
                       'boundary': [{'gen': 'line12', 'mult': '4'},
                                    {'gen': 'line34', 'mult': '2'},
                                    {'gen': 'exc1', 'mult': '2'},
                                    {'gen': 'exc2', 'mult': '2'}]})
    assert p.surface is f.pair.surface
    assert p.boundary == f.pair.boundary
    v = valuation_from_doc(p, {'kind': 'surface', 'name': 'line12'})
    assert v.e_class == f.valuation.e_class
    assert v.a_x == f.valuation.a_x and v.ord_b == f.valuation.ord_b
    with pytest.raises(CatalogError):
        pair_from_doc({'boundary': []})
    with pytest.raises(CatalogError):
        valuation_from_doc(p, {'kind': 'class', 'name': 'x'})


def _cache_state(cat):
    '''per model: the attributes cached on it'''
    models = {m.name: m for m in cat.surfaces}
    models.update((f.valuation.model.name, f.valuation.model) for f in cat.fixtures)
    return {n: sorted(vars(m)) for n, m in models.items()}


def test_a_fresh_decode_starts_cold(monkeypatch):
    '''compiled tables hang off the decoded objects, so a fresh decode
    starts from the same cold state and redoes the same work, however much
    earlier decodes computed; the work counted is the chamber walks' pivots,
    each of which also decides that the grown support is still definite'''
    calls = []
    real = kwall.positivity.pivot

    def counted(a, scales, rows, prev=1):
        rows = list(rows)
        calls.extend(rows)
        return real(a, scales, rows, prev)

    monkeypatch.setattr(kwall.positivity, 'pivot', counted)

    def decode_and_walk():
        kwall.catalog._load_resolved.cache_clear()
        cat = load_catalog()
        state = _cache_state(cat)
        # an extension's generator table is bordered on its first use
        extensions = {id(v.model): v.model for f in cat.fixtures
                      for v in (f.valuation, *f.equivariant)
                      if v.model is not v.base}
        assert len(extensions) == 10
        assert not any('gen_table' in vars(m) for m in extensions.values())
        before = len(calls)
        for f in cat.fixtures:
            beta(f.pair, f.valuation)
        assert _cache_state(cat) != state
        return cat, state, len(calls) - before

    first, cold, walked = decode_and_walk()
    # decoding only decides the definiteness of the contracted curves, which
    # its pullbacks need
    for m in first.surfaces:
        assert ('_contracted_gram' in cold[m.name]) == bool(m.contracted), m.name
    second, state, rewalked = decode_and_walk()
    assert state == cold
    assert rewalked == walked > 0
    for a, b in zip(first.surfaces, second.surfaces):
        assert a is not b and a.lattice is not b.lattice


def test_a_decode_and_walk_pass_walks_each_ray_once(monkeypatch):
    '''the 45 fixtures walk 37 distinct rays of their models, and each
    ray is walked once per decode'''
    walks = []
    real = kwall.stability.volume_profile
    monkeypatch.setattr(kwall.stability, 'volume_profile',
                        lambda *args: walks.append(args) or real(*args))
    for _ in range(2):
        kwall.catalog._load_resolved.cache_clear()
        cat = load_catalog()
        for f in cat.fixtures:
            beta(f.pair, f.valuation)
        rays = {(id(m), origin, direction) for m, origin, direction in walks}
        assert len(cat.fixtures) == 45
        assert len(walks) == len(rays) == 37
        walks.clear()


def test_a_walls_pass_walks_261_rows_and_rewrites_at_most_417(monkeypatch):
    '''work-count guard: one walls pass on a fresh decode walks 261
    generator rows, those with C.C < 0 (314 with every declared generator),
    and, its pivots stepped one row at a time, rewrites at most 417 rows
    (3,938 entries; 484 rows and 5,319 entries when every generator was
    walked, 758 and 8,280 while the walk also eliminated the two volume
    rows), in 37 walks of 93 chambers.  A rewritten row is a new list in
    place of the old one, the pivot row aside'''
    real, walk = kwall.positivity.pivot, kwall.stability.volume_profile
    rewritten, pieces, walked_rows = [], [], []

    def counted(a, scales, rows, prev=1):
        for r in rows:
            old = list(a)
            prev = real(a, scales, (r,), prev)
            rewritten.extend(len(x) for i, x in enumerate(a) if i != r and x is not old[i])
            if not prev:
                return 0
        return prev

    def walked(model, *args):
        out = walk(model, *args)
        pieces.append(len(out.pieces))
        walked_rows.append(len(model.gen_table.negative[0]))
        return out

    monkeypatch.setattr(kwall.positivity, 'pivot', counted)
    monkeypatch.setattr(kwall.stability, 'volume_profile', walked)
    kwall.catalog._load_resolved.cache_clear()
    cat = load_catalog()
    for f in cat.fixtures:
        solve_wall(beta(f.pair, f.valuation), f.pair.c_lo, f.pair.c_hi)
    assert (len(pieces), sum(pieces), sum(walked_rows)) == (37, 93, 261)
    assert len(rewritten) <= 417 and sum(rewritten) <= 3938


def _catalog_rays(cat):
    '''(model, origin, direction, valuation names) for each distinct ray
    of the catalog's fixture and equivariant valuations'''
    rays = {}
    for f in cat.fixtures:
        for v in (f.valuation, *f.equivariant):
            key = (id(v.model), v.origin.numerators, v.e_class.numerators)
            rays.setdefault(key, (v.model, v.origin, v.e_class, []))[3].append(v.name)
    return list(rays.values())


def _pieces(profile):
    return [(p.k, p.scale, p.lo, p.hi, p.chamber_support) for p in profile.pieces]


def test_no_generator_with_a_nonnegative_square_changes_a_walk():
    '''a generator with C.C >= 0 never joins a support or ends a chamber
    (the light-cone lemma, on a lattice of signature (1, r - 1)): no
    catalog ray's support holds one, and declaring one more, the sum of the
    first two generators whose sum has C.C >= 0, leaves every catalog ray's
    profile as it was'''
    extended = 0
    for model, origin, direction, names in _catalog_rays(CATALOG):
        squares = {n: pair(c, c) for n, c in model.mori_gens}
        profile = volume_profile(model, origin, direction)
        for p in profile.pieces:
            assert all(squares[n] < 0 for n in p.chamber_support), (model.name, names)
        gens = [c for _, c in model.mori_gens]
        total = next((c + d for i, c in enumerate(gens) for d in gens[i + 1:]
                      if pair(c + d, c + d) >= 0), None)
        if total is None:
            continue
        more = SurfaceModel(model.name, model.lattice, model.canonical,
                            (*model.mori_gens, ('sum', total)), model.contracted,
                            model.k_discrepancies)
        assert len(more.gen_table.negative[0]) == len(model.gen_table.negative[0])
        assert _pieces(volume_profile(more, origin, direction)) == _pieces(profile), names
        extended += 1
    # every ray but p2's line: p2 declares one generator
    assert extended == 67


def test_every_catalog_ord_b_is_at_most_k_tau():
    '''pull(B) - ord_b E is effective, so ord_b <= k tau for each of the 45
    fixture and 34 equivariant valuations, with k the anticanonical factor
    and tau the threshold of the valuation's ray; six sit at the bound'''
    tight = set()
    valuations = [(f, v) for f in CATALOG.fixtures for v in (f.valuation, *f.equivariant)]
    for f, v in valuations:
        bound = f.pair.anticanonical_factor * volume_profile(v.model, v.origin, v.e_class).tau
        assert v.ord_b <= bound, (f.id, v.name)
        if v.ord_b == bound:
            tight.add((f.id, v.name, v.ord_b))
    assert len(valuations) == 79
    assert tight == {('P2/sanity/line', 'line', 0), ('Sigma5/D_1_17/L1', 'line12', 4),
                     ('Xn/D_1_17/E', 'line12', 4), ('Xprime/D_13_41/E', 'E', 7),
                     ('Xq/D_1_4/E', 'E', 5), ('Xt/D_11_52/Cprime', 'cprime', 3)}


def test_each_fixture_validates_its_own_pair(monkeypatch):
    '''each of the 45 fixtures builds and validates its own pair, and a
    fresh decode builds its own'''
    validated = []
    real = LogPair.validate
    monkeypatch.setattr(LogPair, 'validate', lambda p: validated.append(p) or real(p))

    def decode():
        kwall.catalog._load_resolved.cache_clear()
        return [f.pair for f in load_catalog().fixtures]

    first = decode()
    assert len(validated) == len({id(p) for p in first}) == len(first) == 45
    second = decode()
    assert len(validated) == 2 * 45
    assert not {id(p) for p in first} & {id(p) for p in second}


def test_each_extension_is_built_once_per_decode(monkeypatch):
    '''valuations that blow up the same center of the same surface share
    one extension model, and a fresh decode builds its own'''
    built = []
    real = kwall.surface.build_blowup_extension
    monkeypatch.setattr(kwall.surface, 'build_blowup_extension',
                        lambda base, center: built.append(center) or real(base, center))
    doc = json.loads(catalog_path().read_text())
    centers = {(f['surface'], json.dumps(v['center'], sort_keys=True))
               for f in doc['fixtures'] for v in (f['valuation'], *f.get('equivariant', ()))
               if v['kind'] == 'blowup'}

    def decode():
        # keyed by id, and holding the models, so that no id is reused
        kwall.catalog._load_resolved.cache_clear()
        cat = load_catalog()
        return {id(v.model): v.model for f in cat.fixtures
                for v in (f.valuation, *f.equivariant) if v.model is not v.base}

    first = decode()
    assert len(built) == len(first) == len(centers) == 10
    second = decode()
    assert len(built) == 2 * len(centers)
    assert not first.keys() & second.keys()


def test_a_walked_catalog_is_freed_without_the_cycle_collector():
    '''no surface or extension model is part of a reference cycle: with the
    cycle collector off, dropping a decoded and walked catalog frees them'''
    gc.disable()
    try:
        kwall.catalog._load_resolved.cache_clear()
        cat = load_catalog()
        for fixture in cat.fixtures:
            beta(fixture.pair, fixture.valuation)
        models = [*cat.surfaces, *[x for m in cat.surfaces for x in m._extensions.values()]]
        assert len(models) == 18 + 10
        refs = [weakref.ref(m) for m in models]
        del cat, fixture, models
        kwall.catalog._load_resolved.cache_clear()
        assert [r().name for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_two_decodes_hold_equal_values():
    '''lattices, classes, models, blow-up centres and affine margins compare
    and hash by value, so two decodes of one catalog hold equal ones; every
    other engine object, a volume piece say, equals only itself'''
    kwall.catalog._load_resolved.cache_clear()
    first = load_catalog()
    kwall.catalog._load_resolved.cache_clear()
    second = load_catalog()
    same = []
    for a, b in zip(first.surfaces, second.surfaces):
        same += [(a, b), (a.lattice, b.lattice), (a.canonical, b.canonical),
                 *zip(dict(a.mori_gens).values(), dict(b.mori_gens).values())]
    extensions = []
    for fa, fb in zip(first.fixtures, second.fixtures):
        va, vb = fa.valuation, fb.valuation
        same += [(va.model, vb.model), (fa.expected.log_discrepancy, fb.expected.log_discrepancy),
                 (log_discrepancy(fa.pair, va), log_discrepancy(fb.pair, vb))]
        if va.model is not va.base:
            same.append((va.model.center, vb.model.center))
            extensions.append(va)
    assert len(extensions) == 12
    for a, b in same:
        assert a is not b and a == b and hash(a) == hash(b), a
    for v in extensions:
        assert v.model != v.base and v.base != v.model
    m, v, margin = first.surfaces[0], extensions[0], first.fixtures[0].expected.log_discrepancy
    for x in (m.lattice, m.canonical, m, v.model.center, margin):
        assert type(x).__eq__(x, None) is NotImplemented
        assert not x == None and not x == 0 and x != 0  # noqa: E711
    piece = volume_profile(v.model, v.origin, v.e_class).pieces[0]
    assert piece == piece
    assert piece != type(piece)(piece.k, piece.scale, piece.lo, piece.hi, piece.chamber_support)
