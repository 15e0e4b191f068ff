'''
hand-built surface models used across the test suite

These are constructed independently of the shipped catalog so that tests can
cross-check catalog data against a second derivation.  Every builder returns
a validated model; ``surface_to_doc`` writes a model back as a catalog surface
document.
'''
from fractions import Fraction

from kwall.lattice import IntersectionLattice
from kwall.surface import BlowupCenter, SurfaceModel, build_blowup_extension

F = Fraction


def p2() -> SurfaceModel:
    lat = IntersectionLattice.diagonal(('h',), (1,))
    return SurfaceModel('p2', lat, lat.div((-3,)),
                        (('line', lat.basis('h')),)).validate()


def sigma5() -> SurfaceModel:
    '''plane blown up in four general points'''
    lat = IntersectionLattice.diagonal(('h', 'e1', 'e2', 'e3', 'e4'),
                                       (1, -1, -1, -1, -1))
    gens = [(f'exc{i}', lat.basis(f'e{i}')) for i in range(1, 5)]
    for i, j in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        coords = [1, 0, 0, 0, 0]
        coords[i] = coords[j] = -1
        gens.append((f'line{i}{j}', lat.div(coords)))
    return SurfaceModel('sigma5', lat, lat.div((-3, 1, 1, 1, 1)),
                        tuple(gens)).validate()


def xn() -> SurfaceModel:
    '''degree 5, one A1: fourth blown-up point infinitely near the third'''
    lat = IntersectionLattice.diagonal(('h', 'g1', 'g2', 'g3', 'g4'),
                                       (1, -1, -1, -1, -1))
    d = lat.div
    gens = (
        ('exc1', lat.basis('g1')),
        ('exc2', lat.basis('g2')),
        ('node', d((0, 0, 0, 1, -1))),
        ('exc4', lat.basis('g4')),
        ('line12', d((1, -1, -1, 0, 0))),
        ('line13', d((1, -1, 0, -1, 0))),
        ('line23', d((1, 0, -1, -1, 0))),
        ('line34', d((1, 0, 0, -1, -1))),
    )
    return SurfaceModel('xn', lat, d((-3, 1, 1, 1, 1)), gens,
                        contracted=('node',)).validate()


def x11() -> SurfaceModel:
    '''degree 5, two A1: both blow-ups carry an infinitely near point'''
    lat = IntersectionLattice.diagonal(('h', 'g1', 'g2', 'g3', 'g4'),
                                       (1, -1, -1, -1, -1))
    d = lat.div
    gens = (
        ('a1p', d((0, 1, -1, 0, 0))),
        ('a1q', d((0, 0, 0, 1, -1))),
        ('exc-p', lat.basis('g2')),
        ('exc-q', lat.basis('g4')),
        ('line-pq', d((1, -1, 0, -1, 0))),
        ('tang-p', d((1, -1, -1, 0, 0))),
        ('tang-q', d((1, 0, 0, -1, -1))),
    )
    return SurfaceModel('x11', lat, d((-3, 1, 1, 1, 1)), gens,
                        contracted=('a1p', 'a1q')).validate()


def x12() -> SurfaceModel:
    '''degree 5, A1 + A2'''
    lat = IntersectionLattice.diagonal(('h', 'g1', 'g2', 'g3', 'g4'),
                                       (1, -1, -1, -1, -1))
    d = lat.div
    gens = (
        ('a1', d((0, 1, -1, 0, 0))),
        ('exc-a1', lat.basis('g2')),
        ('a2-head', d((1, -1, -1, -1, 0))),
        ('a2-tail', d((0, 0, 0, 1, -1))),
        ('exc-a2', lat.basis('g4')),
        ('line-tail', d((1, 0, 0, -1, -1))),
    )
    return SurfaceModel('x12', lat, d((-3, 1, 1, 1, 1)), gens,
                        contracted=('a1', 'a2-head', 'a2-tail')).validate()


def x2() -> SurfaceModel:
    '''degree 5, one A2: general point plus a length-3 tower whose
    curvilinear direction follows a conic'''
    lat = IntersectionLattice.diagonal(('h', 'g1', 'g2', 'g3', 'g4'),
                                       (1, -1, -1, -1, -1))
    d = lat.div
    gens = (
        ('exc1', lat.basis('g1')),
        ('a2-head', d((0, 0, 1, -1, 0))),
        ('a2-tail', d((0, 0, 0, 1, -1))),
        ('exc-last', lat.basis('g4')),
        ('line-12', d((1, -1, -1, 0, 0))),
        ('tang-2', d((1, 0, -1, -1, 0))),
        ('line-1', d((1, -1, 0, 0, 0))),
        ('conic', d((2, -1, -1, -1, -1))),
    )
    return SurfaceModel('x2', lat, d((-3, 1, 1, 1, 1)), gens,
                        contracted=('a2-head', 'a2-tail')).validate()


def x3() -> SurfaceModel:
    '''degree 5, one A3: a single length-4 tower along a conic'''
    lat = IntersectionLattice.diagonal(('h', 'g1', 'g2', 'g3', 'g4'),
                                       (1, -1, -1, -1, -1))
    d = lat.div
    gens = (
        ('ch1', d((0, 1, -1, 0, 0))),
        ('ch2', d((0, 0, 1, -1, 0))),
        ('ch3', d((0, 0, 0, 1, -1))),
        ('exc-last', lat.basis('g4')),
        ('tang', d((1, -1, -1, 0, 0))),
        ('line', d((1, -1, 0, 0, 0))),
        ('conic', d((2, -1, -1, -1, -1))),
    )
    return SurfaceModel('x3', lat, d((-3, 1, 1, 1, 1)), gens,
                        contracted=('ch1', 'ch2', 'ch3')).validate()


def x4() -> SurfaceModel:
    '''degree 5, one A4: a length-4 tower following a line for three steps;
    the line transform closes the chain'''
    lat = IntersectionLattice.diagonal(('h', 'g1', 'g2', 'g3', 'g4'),
                                       (1, -1, -1, -1, -1))
    d = lat.div
    gens = (
        ('tang-line', d((1, -1, -1, -1, 0))),
        ('ch1', d((0, 1, -1, 0, 0))),
        ('ch2', d((0, 0, 1, -1, 0))),
        ('ch3', d((0, 0, 0, 1, -1))),
        ('exc-last', lat.basis('g4')),
        ('line', d((1, -1, 0, 0, 0))),
    )
    return SurfaceModel('x4', lat, d((-3, 1, 1, 1, 1)), gens,
                        contracted=('tang-line', 'ch1', 'ch2', 'ch3')).validate()


def xt() -> SurfaceModel:
    '''degree 5 cone-like surface: fourth Hirzebruch surface blown up in
    four points on distinct fibers, negative section contracted to 1/4(1,1)'''
    names = ('sigma', 'f', 'f1', 'f2', 'f3', 'f4')
    rows = [
        [-4, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ] + [[0, 0] + [-1 if j == i else 0 for j in range(4)] for i in range(4)]
    lat = IntersectionLattice.from_rows(names, rows)
    d = lat.div
    gens = [('sigma', lat.basis('sigma'))]
    gens += [(f'exc{i}', lat.basis(f'f{i}')) for i in range(1, 5)]
    gens += [(f'fib{i}', d((0, 1) + tuple(-1 if j == i else 0 for j in range(1, 5))))
             for i in range(1, 5)]
    return SurfaceModel('xt', lat, d((-2, -6, 1, 1, 1, 1)), tuple(gens),
                        contracted=('sigma',),
                        k_discrepancies=(('sigma', F(-1, 2)),)).validate()


def xt3() -> SurfaceModel:
    '''quadric blown up in a length-3 tower along one ruling line plus one
    more point of it; the (-4)-line and the tower chain contract'''
    names = ('a', 'b', 'e1', 'e2', 'e3', 'e4')
    rows = [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ] + [[0, 0] + [-1 if j == i else 0 for j in range(4)] for i in range(4)]
    lat = IntersectionLattice.from_rows(names, rows)
    d = lat.div
    gens = (
        ('lx', d((1, 0, -1, -1, -1, -1))),
        ('ch1', d((0, 0, 1, -1, 0, 0))),
        ('ch2', d((0, 0, 0, 1, -1, 0))),
        ('exc3', lat.basis('e3')),
        ('exc4', lat.basis('e4')),
        ('l', d((0, 1, -1, 0, 0, 0))),
        ('fib4', d((0, 1, 0, 0, 0, -1))),
        ('cprime', lat.basis('a')),
        ('ruling', lat.basis('b')),
    )
    return SurfaceModel('xt3', lat, d((-2, -2, 1, 1, 1, 1)), gens,
                        contracted=('lx', 'ch1', 'ch2'),
                        k_discrepancies=(('lx', F(-1, 2)),)).validate()


def xt4() -> SurfaceModel:
    '''quadric blown up in a length-4 tower along one ruling line'''
    names = ('a', 'b', 'e1', 'e2', 'e3', 'e4')
    rows = [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ] + [[0, 0] + [-1 if j == i else 0 for j in range(4)] for i in range(4)]
    lat = IntersectionLattice.from_rows(names, rows)
    d = lat.div
    gens = (
        ('lx', d((1, 0, -1, -1, -1, -1))),
        ('ch1', d((0, 0, 1, -1, 0, 0))),
        ('ch2', d((0, 0, 0, 1, -1, 0))),
        ('ch3', d((0, 0, 0, 0, 1, -1))),
        ('exc4', lat.basis('e4')),
        ('l', d((0, 1, -1, 0, 0, 0))),
        ('cprime', lat.basis('a')),
        ('ruling', lat.basis('b')),
    )
    return SurfaceModel('xt4', lat, d((-2, -2, 1, 1, 1, 1)), gens,
                        contracted=('lx', 'ch1', 'ch2', 'ch3'),
                        k_discrepancies=(('lx', F(-1, 2)),)).validate()


def xq() -> SurfaceModel:
    '''degree 5, plane blown up in five collinear points, line contracted
    to 1/4(1,1)'''
    lat = IntersectionLattice.diagonal(('h', 'e1', 'e2', 'e3', 'e4', 'e5'),
                                       (1, -1, -1, -1, -1, -1))
    d = lat.div
    gens = [('axis', d((1, -1, -1, -1, -1, -1)))]
    gens += [(f'exc{i}', lat.basis(f'e{i}')) for i in range(1, 6)]
    gens += [(f'ray{i}', d([1] + [-1 if j == i else 0 for j in range(1, 6)]))
             for i in range(1, 6)]
    return SurfaceModel('xq', lat, d((-3, 1, 1, 1, 1, 1)), tuple(gens),
                        contracted=('axis',),
                        k_discrepancies=(('axis', F(-1, 2)),)).validate()


def xq32() -> SurfaceModel:
    '''five collinear points degenerated to a 3-tower and a 2-tower along
    the axis line'''
    lat = IntersectionLattice.diagonal(('h', 'e1', 'e2', 'e3', 'f1', 'f2'),
                                       (1, -1, -1, -1, -1, -1))
    d = lat.div
    gens = (
        ('axis', d((1, -1, -1, -1, -1, -1))),
        ('ech1', d((0, 1, -1, 0, 0, 0))),
        ('ech2', d((0, 0, 1, -1, 0, 0))),
        ('fch', d((0, 0, 0, 0, 1, -1))),
        ('exc-e', lat.basis('e3')),
        ('exc-f', lat.basis('f2')),
        ('ray-e', d((1, -1, 0, 0, 0, 0))),
        ('ray-f', d((1, 0, 0, 0, -1, 0))),
        ('free-line', lat.basis('h')),
    )
    return SurfaceModel('xq32', lat, d((-3, 1, 1, 1, 1, 1)), gens,
                        contracted=('axis', 'ech1', 'ech2', 'fch'),
                        k_discrepancies=(('axis', F(-1, 2)),)).validate()


def xq41() -> SurfaceModel:
    '''five collinear points degenerated to a 4-tower plus one simple point'''
    lat = IntersectionLattice.diagonal(('h', 'e1', 'e2', 'e3', 'e4', 'f1'),
                                       (1, -1, -1, -1, -1, -1))
    d = lat.div
    gens = (
        ('axis', d((1, -1, -1, -1, -1, -1))),
        ('ech1', d((0, 1, -1, 0, 0, 0))),
        ('ech2', d((0, 0, 1, -1, 0, 0))),
        ('ech3', d((0, 0, 0, 1, -1, 0))),
        ('exc-e', lat.basis('e4')),
        ('exc-f', lat.basis('f1')),
        ('ray-e', d((1, -1, 0, 0, 0, 0))),
        ('ray-f', d((1, 0, 0, 0, 0, -1))),
        ('free-line', lat.basis('h')),
    )
    return SurfaceModel('xq41', lat, d((-3, 1, 1, 1, 1, 1)), gens,
                        contracted=('axis', 'ech1', 'ech2', 'ech3'),
                        k_discrepancies=(('axis', F(-1, 2)),)).validate()


def xq5() -> SurfaceModel:
    '''five collinear points all degenerated to a single 5-tower'''
    lat = IntersectionLattice.diagonal(('h', 'e1', 'e2', 'e3', 'e4', 'e5'),
                                       (1, -1, -1, -1, -1, -1))
    d = lat.div
    gens = (
        ('axis', d((1, -1, -1, -1, -1, -1))),
        ('ech1', d((0, 1, -1, 0, 0, 0))),
        ('ech2', d((0, 0, 1, -1, 0, 0))),
        ('ech3', d((0, 0, 0, 1, -1, 0))),
        ('ech4', d((0, 0, 0, 0, 1, -1))),
        ('exc-e', lat.basis('e5')),
        ('ray-e', d((1, -1, 0, 0, 0, 0))),
        ('free-line', lat.basis('h')),
    )
    return SurfaceModel('xq5', lat, d((-3, 1, 1, 1, 1, 1)), gens,
                        contracted=('axis', 'ech1', 'ech2', 'ech3', 'ech4'),
                        k_discrepancies=(('axis', F(-1, 2)),)).validate()


def xprime_deg() -> SurfaceModel:
    '''xprime with the three fiber points degenerated to a length-3 tower
    along the fiber, adding an A2 next to the 1/8(1,3) point'''
    names = ('sigma', 'f', 'e1', 'e2', 'e3', 'g')
    rows = [
        [-2, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ] + [[0, 0] + [-1 if j == i else 0 for j in range(4)] for i in range(4)]
    lat = IntersectionLattice.from_rows(names, rows)
    d = lat.div
    gens = (
        ('l3', d((0, 1, -1, -1, -1, 0))),
        ('s3', d((1, 0, 0, 0, 0, -1))),
        ('ech1', d((0, 0, 1, -1, 0, 0))),
        ('ech2', d((0, 0, 0, 1, -1, 0))),
        ('exc3', lat.basis('e3')),
        ('exc-g', lat.basis('g')),
        ('fiber-g', d((0, 1, 0, 0, 0, -1))),
        ('conic1', d((1, 2, -1, 0, 0, 0))),
        ('conic12', d((1, 2, -1, -1, 0, 0))),
        ('conic123', d((1, 2, -1, -1, -1, 0))),
        ('free-fiber', lat.basis('f')),
    )
    return SurfaceModel('xprime_deg', lat, d((-2, -4, 1, 1, 1, 1)), gens,
                        contracted=('l3', 's3', 'ech1', 'ech2'),
                        k_discrepancies=(('l3', F(-1, 2)),
                                         ('s3', F(-1, 2)))).validate()


def index3() -> SurfaceModel:
    '''degree 5, index 3: second Hirzebruch surface blown up in five points
    of one fiber; fiber transform and negative section contract together'''
    names = ('sect', 'fib', 'e1', 'e2', 'e3', 'e4', 'e5')
    rows = [
        [-2, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0],
    ] + [[0, 0] + [-1 if j == i else 0 for j in range(5)] for i in range(5)]
    lat = IntersectionLattice.from_rows(names, rows)
    d = lat.div
    gens = [('sect', lat.basis('sect')),
            ('fiber5', d((0, 1, -1, -1, -1, -1, -1)))]
    gens += [(f'exc{i}', lat.basis(f'e{i}')) for i in range(1, 6)]
    gens.append(('sect-inf', d((1, 2, 0, 0, 0, 0, 0))))
    return SurfaceModel('index3', lat, d((-2, -4, 1, 1, 1, 1, 1)), tuple(gens),
                        contracted=('fiber5', 'sect'),
                        k_discrepancies=(('fiber5', F(-2, 3)),
                                         ('sect', F(-1, 3)))).validate()


def xprime() -> SurfaceModel:
    '''degree 5, 1/8(1,3): second Hirzebruch surface blown up in three
    points of one fiber and one point of the negative section; the two
    resulting (-3)-curves meet once and contract together'''
    names = ('sigma', 'f', 'f1', 'f2', 'f3', 'g')
    rows = [
        [-2, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ] + [[0, 0] + [-1 if j == i else 0 for j in range(4)] for i in range(4)]
    lat = IntersectionLattice.from_rows(names, rows)
    d = lat.div
    gens = (
        ('l3', d((0, 1, -1, -1, -1, 0))),
        ('s3', d((1, 0, 0, 0, 0, -1))),
        ('exc1', lat.basis('f1')),
        ('exc2', lat.basis('f2')),
        ('exc3', lat.basis('f3')),
        ('exc-g', lat.basis('g')),
        ('fiber-g', d((0, 1, 0, 0, 0, -1))),
        ('conic1', d((1, 2, -1, 0, 0, 0))),
        ('conic2', d((1, 2, 0, -1, 0, 0))),
        ('conic3', d((1, 2, 0, 0, -1, 0))),
    )
    return SurfaceModel('xprime', lat, d((-2, -4, 1, 1, 1, 1)), gens,
                        contracted=('l3', 's3'),
                        k_discrepancies=(('l3', F(-1, 2)),
                                         ('s3', F(-1, 2)))).validate()


def x11_ext():
    '''x11 blown up in the point where exc-p meets tang-p'''
    return build_blowup_extension(
        x11(), BlowupCenter(exc_name='e', through=(('exc-p', 1), ('tang-p', 1))))


def xq_ext_r():
    '''xq blown up in the common point of the five moving rays'''
    return build_blowup_extension(
        xq(), BlowupCenter(exc_name='e',
                           through=tuple((f'ray{i}', 1) for i in range(1, 6))))


def xprime_ext_p():
    '''weight-(1, 2) blow-up of xprime in the point of fiber-g where the
    three conics touch it'''
    return build_blowup_extension(
        xprime(), BlowupCenter(weights=(1, 2), exc_name='e',
                               through=(('fiber-g', 1), ('conic1', 2),
                                        ('conic2', 2), ('conic3', 2))))


def sigma5_ext_p():
    '''weight-(1, 2) blow-up of sigma5 in a point of line34, the heavy
    direction transverse to it; strict transforms of the curves with
    second-order contact at the point come in as extra generators'''
    return build_blowup_extension(
        sigma5(), BlowupCenter(
            weights=(1, 2), exc_name='e', through=(('line34', 1),),
            extra_mori=(('l1-strict', (1, 0, 0, 0, 0, -2)),
                        ('c1-strict', (2, -1, -1, -1, 0, -2)),
                        ('c2-strict', (2, -1, -1, 0, -1, -2)))))


def surface_to_doc(model: SurfaceModel) -> dict:
    '''JSON document for a surface model (rationals as "p/q" strings)'''
    return {
        'name': model.name,
        'basis': list(model.lattice.names),
        'gram': [[str(x) for x in row] for row in model.lattice.gram],
        'canonical': [str(x) for x in model.canonical.coords],
        'mori': [{'name': n, 'class': [str(x) for x in c.coords]}
                 for n, c in model.mori_gens],
        'contracted': list(model.contracted),
        'k_discrepancies': {n: str(x) for n, x in model.k_discrepancies},
    }
