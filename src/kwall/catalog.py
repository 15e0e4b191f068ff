'''
Built-in fixture catalog: surfaces, boundary divisors, valuations, walls.

Fixtures live in a versioned JSON resource (data/catalog.json, overridable
through the KWALL_CATALOG environment variable) and decode into validated
engine objects.  Each fixture pins the affine log discrepancy its valuation
must reproduce, optionally the expected vanishing order and margin, and the
wall coefficient the margin's root must hit; the wall table is the sorted
list of all wall coefficients the catalog as a whole must produce, with one
metadata entry per wall.

Trust convention for expected values: "golden" marks targets the engine has
to reproduce from an external source of truth, "frozen" marks values first
derived by the engine itself and pinned against regressions.
'''
from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from itertools import count
from pathlib import Path
from typing import Optional

from .lattice import Frozen, cached_property, rational
from .stability import AffineRatFn, LogPair, ValuationSpec
from .surface import (
    BlowupCenter,
    ConfigurationError,
    SurfaceModel,
    _repeated,
    surface_from_doc,
)

DATA_PATH = Path(__file__).resolve().parent / 'data' / 'catalog.json'
ENV_VAR = 'KWALL_CATALOG'


class CatalogError(ConfigurationError):
    '''catalog resource missing, malformed, or queried with a bad id'''


class Expected(Frozen):
    '''pinned targets for one fixture; None means derived on demand'''

    def __init__(self, log_discrepancy: AffineRatFn, vanishing_order: Optional[AffineRatFn],
                 margin: Optional[AffineRatFn], wall: Optional[Fraction], trust: str):
        vars(self).update(log_discrepancy=log_discrepancy, vanishing_order=vanishing_order,
                          margin=margin, wall=wall, trust=trust)


class Display(Frozen):
    '''presentation metadata: the printed margin is scale * (A - S)'''

    def __init__(self, scale: Fraction, beta_text: Optional[str] = None,
                 curve: Optional[str] = None, weights: tuple[int, ...] = ()):
        vars(self).update(scale=scale, beta_text=beta_text, curve=curve, weights=weights)


class Fixture(Frozen):
    '''one catalog row: a pair, its valuation and the pinned targets'''

    def __init__(self, id: str, pair: LogPair, valuation: ValuationSpec, expected: Expected,
                 display: Optional[Display] = None, notes: tuple[str, ...] = (),
                 equivariant: tuple[ValuationSpec, ...] = ()):
        vars(self).update(id=id, pair=pair, valuation=valuation, expected=expected,
                          display=display, notes=notes, equivariant=equivariant)

    @property
    def family(self) -> str:
        return self.id.split('/', 1)[0]


class WallEntry(Frozen):
    '''one wall of the stored table with its metadata'''

    def __init__(self, value: Fraction, kind: str, families: tuple[str, ...], description: str):
        vars(self).update(value=value, kind=kind, families=families, description=description)

    @property
    def divisorial(self) -> bool:
        return self.kind == 'divisorial'


class WallTable(Frozen):
    '''the stored walls, sorted by value'''

    def __init__(self, entries: tuple[WallEntry, ...]):
        vars(self).update(entries=entries)

    @property
    def walls(self) -> tuple[Fraction, ...]:
        return tuple(e.value for e in self.entries)


class Catalog(Frozen):
    '''a decoded catalog resource'''

    def __init__(self, surfaces: tuple[SurfaceModel, ...], fixtures: tuple[Fixture, ...],
                 wall_table: WallTable):
        vars(self).update(surfaces=surfaces, fixtures=fixtures, wall_table=wall_table)

    @cached_property
    def _surface_index(self) -> dict:
        return {m.name: m for m in self.surfaces}

    @cached_property
    def _fixture_index(self) -> dict:
        return {f.id: f for f in self.fixtures}

    def surface(self, name: str) -> SurfaceModel:
        try:
            return self._surface_index[name]
        except (KeyError, TypeError):
            known = ', '.join(sorted(self._surface_index))
            raise CatalogError(
                f'unknown surface {name!r}; available: {known}') from None

    def fixture(self, fixture_id: str) -> Fixture:
        try:
            return self._fixture_index[fixture_id]
        except KeyError:
            known = ', '.join(f.id for f in self.fixtures)
            raise CatalogError(
                f'unknown fixture id {fixture_id!r}; '
                f'available: {known}') from None

    def ids(self, family: Optional[str] = None) -> tuple[str, ...]:
        if family is None:
            return tuple(f.id for f in self.fixtures)
        return tuple(f.id for f in self.fixtures
                     if f.family.startswith(family))


def _string(doc, key: str, default: str) -> str:
    x = doc.get(key, default)
    if not isinstance(x, str):
        raise TypeError(f'{key!r} is not a string')
    return x


def _list_of(doc, key: str, kind: type) -> tuple:
    '''doc[key] (default []) as a tuple, when it is a list of values of
    exactly the type ``kind``: str, or int (which no bool passes for)'''
    xs = doc.get(key, [])
    if not isinstance(xs, list) or not all(type(x) is kind for x in xs):
        noun = 'strings' if kind is str else 'integers'
        raise TypeError(f'{key!r} is not a list of {noun}')
    return tuple(xs)


def _decode_affine(doc) -> AffineRatFn:
    return AffineRatFn(doc['const'], doc['slope'])


def _decode_part(model: SurfaceModel, doc):
    mult = rational(doc['mult'])
    if 'gen' in doc:
        if doc['gen'] not in model.gen_names:
            raise CatalogError(
                f'{model.name}: boundary part names unknown generator '
                f'{doc["gen"]!r}; have {list(model.gen_names)}')
        return doc['gen'], mult
    cls = model.lattice.div(doc['class'])
    if 'label' in doc:
        if not isinstance(doc['label'], str):
            raise CatalogError(f'{model.name}: boundary label {doc["label"]!r} is not a string')
        return (doc['label'], cls), mult
    return cls, mult


def _decode_valuation(pair: LogPair, doc) -> ValuationSpec:
    kind = doc.get('kind')
    tag = doc.get('tag', 'plain')
    name = doc.get('name', '')
    if not isinstance(name, str):
        raise TypeError(f'valuation name {name!r} is not a string')
    if kind == 'surface':
        return ValuationSpec.on_surface(pair, doc['name'], tag=tag)
    if kind == 'class':
        cls = pair.surface.lattice.div(doc['class'])
        return ValuationSpec(name=doc['name'], model=pair.surface,
                             e_class=cls, a_x=rational(doc['a_x']),
                             ord_b=rational(doc['ord_b']), tag=tag)
    if kind == 'blowup':
        cdoc = doc['center']
        center = BlowupCenter.make(
            weights=cdoc.get('weights', (1, 1)),
            exc_name=cdoc.get('exc_name', 'e'),
            through=cdoc.get('through', ()),
            extra_mori=cdoc.get('extra_mori', ()))
        a_x = rational(doc['a_x']) if 'a_x' in doc else None
        ord_b = rational(doc['ord_b']) if 'ord_b' in doc else None
        return ValuationSpec.on_extension(pair, center, name=name, tag=tag, a_x=a_x, ord_b=ord_b)
    raise CatalogError(f'unknown valuation kind {kind!r}')


def _decode_expected(doc) -> Expected:
    def affine_or_none(key):
        sub = doc.get(key)
        if sub is None or sub == 'derived':
            return None
        return _decode_affine(sub)

    wall = doc.get('wall')
    return Expected(
        log_discrepancy=_decode_affine(doc['A']),
        vanishing_order=affine_or_none('S'),
        margin=affine_or_none('beta'),
        wall=None if wall is None else rational(wall),
        trust=_string(doc, 'trust', 'frozen'))


def _decode_display(doc) -> Display:
    return Display(
        scale=rational(doc.get('scale', 1)),
        beta_text=doc.get('beta'),
        curve=doc.get('curve'),
        weights=_list_of(doc, 'weights', int))


def _decode_fixture(surfaces: dict, doc, i: int) -> Fixture:
    '''decode fixture number i of the catalog'''
    if not isinstance(doc['id'], str):
        raise CatalogError(f'fixture id {doc["id"]!r} is not a string')
    name = doc['surface']
    try:
        model = surfaces[name]
    except KeyError:
        raise CatalogError(
            f'fixture {doc["id"]!r} names unknown surface {name!r}') from None
    try:
        pair = LogPair.make(model, [_decode_part(model, p) for p in doc.get('boundary', ())])
        valuation = _decode_valuation(pair, doc['valuation'])
        equivariant = tuple(_decode_valuation(pair, v) for v in doc.get('equivariant', ()))
    except ConfigurationError as exc:
        # the surface carries several fixtures: name the one at fault
        raise type(exc)(f'fixture {i} {doc["id"]!r}: {exc}') from None
    display = doc.get('display')
    return Fixture(
        id=doc['id'],
        pair=pair,
        valuation=valuation,
        expected=_decode_expected(doc['expected']),
        display=None if display is None else _decode_display(display),
        notes=_list_of(doc, 'notes', str),
        equivariant=equivariant)


def _decode_wall(doc) -> WallEntry:
    kind = doc['kind']
    if kind not in ('divisorial', 'flip'):
        raise ValueError(f'unknown wall kind {kind!r}')
    return WallEntry(value=rational(doc['value']), kind=kind,
                     families=_list_of(doc, 'families', str),
                     description=_string(doc, 'description', ''))


# what decoding raises on a missing field, a wrong-typed JSON value or a
# string that is not a number
_MALFORMED = (KeyError, TypeError, AttributeError, ValueError)


def _malformed(what: str, exc: Exception) -> CatalogError:
    if isinstance(exc, KeyError):
        return CatalogError(f'{what} is missing field {exc.args[0]!r}')
    return CatalogError(f'{what} is malformed: {exc}')


def _decode_each(what: str, docs, decode) -> tuple:
    '''decode a list of JSON objects, naming the one that is malformed'''
    out = []
    try:
        for doc in docs:
            out.append(decode(doc))
    except _MALFORMED as exc:
        raise _malformed(f'{what} {len(out)}', exc) from None
    return tuple(out)


def catalog_path() -> Path:
    '''embedded resource path, or the KWALL_CATALOG override'''
    override = os.environ.get(ENV_VAR)
    return Path(override) if override else DATA_PATH


@lru_cache(maxsize=None)
def _load_resolved(path_str: str) -> Catalog:
    path = Path(path_str)
    if not path.is_file():
        raise CatalogError(f'catalog resource {path_str} does not exist')
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CatalogError(f'catalog resource {path_str} is not JSON: {exc}')
    missing = [k for k in ('surfaces', 'fixtures', 'walls')
               if not isinstance(doc, dict) or k not in doc]
    if missing:
        raise CatalogError(f'catalog resource {path_str} has no {missing[0]!r} section')
    if type(doc.get('version', 0)) is not int:
        raise CatalogError(f'catalog version {doc["version"]!r} is not an integer')
    surfaces = _decode_each('surface', doc['surfaces'], surface_from_doc)
    index = {m.name: m for m in surfaces}
    # decode is called once per fixture in turn, so this counts their places
    position = count()
    fixtures = _decode_each('fixture', doc['fixtures'],
                            lambda d: _decode_fixture(index, d, next(position)))
    twice = _repeated([f.id for f in fixtures])
    if twice is not None:
        raise CatalogError(f'duplicate fixture id {twice!r}')
    entries = _decode_each('wall', doc['walls'], _decode_wall)
    values = [e.value for e in entries]
    if values != sorted(values):
        raise CatalogError('wall table is not sorted')
    return Catalog(surfaces=surfaces, fixtures=fixtures, wall_table=WallTable(entries))


def load_catalog(path=None) -> Catalog:
    '''load and cache the catalog at ``path`` (default: catalog_path())'''
    p = Path(path) if path is not None else catalog_path()
    return _load_resolved(str(p.resolve()))


def load_fixture(fixture_id: str) -> Fixture:
    '''
    one validated fixture by id

    TESTS:
        >>> load_catalog().ids('Sigma5')
        ('Sigma5/D_1_17/L1',)
        >>> load_fixture('Sigma5/D_1_17/L1').expected.wall
        Fraction(1, 17)
    '''
    return load_catalog().fixture(fixture_id)


def pair_from_doc(doc) -> LogPair:
    '''
    validated pair from a standalone document

    Schema: {"surface": catalog name, "boundary": [part, ...]} where a part
    is {"mult": p/q} plus either {"gen": name} or {"class": [...]} with an
    optional "label".
    '''
    if not isinstance(doc, dict):
        raise CatalogError('pair document must be a json object')
    if 'surface' not in doc:
        raise CatalogError("pair document has no 'surface' field")
    model = load_catalog().surface(doc['surface'])
    parts = _decode_each('boundary part', doc.get('boundary', ()),
                         lambda p: _decode_part(model, p))
    return LogPair.make(model, parts)


def valuation_from_doc(pair: LogPair, doc) -> ValuationSpec:
    '''
    validated valuation from a standalone document, resolved against a pair

    Same schema as the catalog fixture "valuation" object: kind "surface"
    with a generator name, kind "class" with a class plus a_x and ord_b, or
    kind "blowup" with a center description.
    '''
    if not isinstance(doc, dict):
        raise CatalogError('valuation document must be a json object')
    try:
        return _decode_valuation(pair, doc)
    except _MALFORMED as exc:
        raise _malformed('valuation document', exc) from None
