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
from pathlib import Path
from typing import Optional

from .lattice import EngineError, Frozen, rational
from .stability import AffineRatFn, LogPair, ValuationSpec
from .surface import (
    BlowupCenter,
    ConfigurationError,
    SurfaceModel,
    _string,
    surface_from_doc,
)

try:
    # CPython's built-in hash, as random takes it, since importing hashlib
    # loads OpenSSL; CPython 3.12 renamed the module _sha2
    from _sha256 import sha256
except ImportError:
    from _sha2 import sha256

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

    def __init__(self, scale: Fraction, beta_text: Optional[str] = None):
        vars(self).update(scale=scale, beta_text=beta_text)


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
    '''a decoded catalog resource: the resolved path it was read from, the
    sha256 of the bytes it was decoded from, and its surfaces by name and
    fixtures by id, in catalog order'''

    def __init__(self, path: Path, surfaces: dict[str, SurfaceModel],
                 fixtures: dict[str, Fixture], wall_table: WallTable, sha256: str):
        vars(self).update(path=path, _surfaces=surfaces, _fixtures=fixtures,
                          surfaces=tuple(surfaces.values()), fixtures=tuple(fixtures.values()),
                          wall_table=wall_table, sha256=sha256)

    def surface(self, name: str) -> SurfaceModel:
        try:
            return self._surfaces[name]
        except (KeyError, TypeError):
            known = ', '.join(sorted(self._surfaces))
            raise CatalogError(
                f'unknown surface {name!r}; available: {known}') from None

    def fixture(self, fixture_id: str) -> Fixture:
        try:
            return self._fixtures[fixture_id]
        except KeyError:
            raise CatalogError(f'unknown fixture id {fixture_id!r}; '
                               f'available: {", ".join(self._fixtures)}') from None

    def ids(self, family: Optional[str] = None) -> tuple[str, ...]:
        if family is None:
            return tuple(self._fixtures)
        return tuple(f.id for f in self.fixtures if f.family.startswith(family))


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
    if set(doc) - {'mult'} not in ({'gen'}, {'class'}, {'class', 'label'}):
        raise ValueError(f'keys {sorted(doc)} are not gen+mult, class+mult or class+label+mult')
    if 'gen' in doc:
        return (doc['gen'], model.gen(doc['gen'])), mult
    cls = model.lattice.div(doc['class'])
    if 'label' in doc:
        return (_string('boundary label', doc['label']), cls), mult
    return cls, mult


def _decode_valuation(pair: LogPair, doc) -> ValuationSpec:
    kind = doc.get('kind')
    tag = doc.get('tag', 'plain')
    name = _string('valuation name', doc.get('name', ''))
    if kind == 'surface':
        return ValuationSpec.on_surface(pair, doc['name'], tag=tag)
    if kind == 'class':
        cls = pair.surface.lattice.div(doc['class'])
        return ValuationSpec(name=doc['name'], model=pair.surface,
                             e_class=cls, a_x=rational(doc['a_x']),
                             ord_b=rational(doc['ord_b']), tag=tag)
    if kind == 'blowup':
        if 'a_x' in doc:
            raise ValueError("a blow-up derives 'a_x' from its centre; remove the key")
        given = doc['center']
        if not isinstance(given, dict):
            raise TypeError(f'centre {given!r} is not an object')
        # the constructor's keywords are the fields it keeps
        unknown = sorted(set(given).difference(BlowupCenter._value))
        if unknown:
            raise ValueError(f'unknown centre key {unknown[0]!r}')
        center = BlowupCenter(**given)
        ord_b = rational(doc['ord_b']) if 'ord_b' in doc else None
        return ValuationSpec.on_extension(pair, center, name=name, tag=tag, ord_b=ord_b)
    raise ValueError(f'unknown valuation kind {kind!r}')


def _decode_expected(doc) -> Expected:
    def affine_or_none(key):
        sub = doc.get(key)
        if sub is None or sub == 'derived':
            return None
        return _decode_affine(sub)

    wall = doc.get('wall')
    trust = _string('trust', doc.get('trust', 'frozen'))
    if trust not in ('golden', 'frozen'):
        raise ValueError(f'unknown trust {trust!r}')
    return Expected(
        log_discrepancy=_decode_affine(doc['A']),
        vanishing_order=affine_or_none('S'),
        margin=affine_or_none('beta'),
        wall=None if wall is None else rational(wall),
        trust=trust)


def _decode_display(doc) -> Display:
    # no command prints curve or weights, but they are checked as input
    _string('display curve', doc.get('curve', ''))
    _list_of(doc, 'weights', int)
    return Display(
        scale=rational(doc.get('scale', 1)),
        beta_text=_string('display beta', doc['beta']) if 'beta' in doc else None)


def _decode_fixture(surfaces: dict, doc) -> Fixture:
    fid = _string('fixture id', doc['id'])
    name = doc['surface']
    if name not in surfaces:
        raise ValueError(f'unknown surface {name!r}')
    model = surfaces[name]
    pair = LogPair(model, _decode_each('boundary part', doc.get('boundary', ()),
                                       lambda p: _decode_part(model, p)))
    valuation = _decode_valuation(pair, doc['valuation'])
    equivariant = _decode_each('equivariant valuation', doc.get('equivariant', ()),
                               lambda v: _decode_valuation(pair, v))
    display = doc.get('display')
    return Fixture(
        id=fid,
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
                     description=_string('description', doc.get('description', '')))


# what decoding raises on a missing field, a wrong-typed JSON value or a
# string that is not a number, and the engine's refusals of what it decoded
_REFUSED = (KeyError, TypeError, AttributeError, ValueError, EngineError)


def named(what: str, exc: Exception) -> EngineError:
    '''the refusal exc named after ``what`` it came from: a missing field
    or a malformed value becomes a CatalogError, and an engine refusal keeps
    its type with ``what`` in front, so that nested names read outside in'''
    if isinstance(exc, EngineError):
        return type(exc)(f'{what}: {exc}')
    if isinstance(exc, KeyError):
        return CatalogError(f'{what} is missing field {exc.args[0]!r}')
    return CatalogError(f'{what} is malformed: {exc}')


def _index(what: str, items) -> dict:
    '''a dict of the (key, item) pairs, refusing the first key given twice'''
    index = {}
    for key, item in items:
        if key in index:
            raise CatalogError(f'duplicate {what} {key!r}')
        index[key] = item
    return index


def _decode_each(what: str, docs, decode) -> tuple:
    '''decode a list of JSON objects, naming the one refused by its place'''
    out = []
    try:
        for doc in docs:
            out.append(decode(doc))
    except _REFUSED as exc:
        raise named(f'{what} {len(out)}', exc) from None
    return tuple(out)


def read_document(path: Path, what: str) -> tuple:
    '''the bytes of the UTF-8 file at ``path`` and the JSON document they
    hold, refused under ``what`` and the path when it cannot be read or parsed'''
    try:
        data = path.read_bytes()
        return data, json.loads(data.decode('utf-8'))
    except OSError as exc:
        raise CatalogError(f'{what} {path} is not readable: {exc}') from None
    except ValueError as exc:
        # a JSONDecodeError, a UnicodeDecodeError or an integer literal
        # beyond CPython's limit on its digits
        raise CatalogError(f'{what} {path} is not JSON: {exc}') from None


@lru_cache(maxsize=None)
def _load_resolved(path: Path) -> Catalog:
    data, doc = read_document(path, 'catalog resource')
    missing = [k for k in ('surfaces', 'fixtures', 'walls')
               if not isinstance(doc, dict) or k not in doc]
    if missing:
        raise CatalogError(f'catalog resource {path} has no {missing[0]!r} section')
    if type(doc.get('version', 0)) is not int:
        raise CatalogError(f'catalog version {doc["version"]!r} is not an integer')
    decoded = _decode_each('surface', doc['surfaces'], surface_from_doc)
    surfaces = _index('surface name', [(m.name, m) for m in decoded])
    decoded = _decode_each('fixture', doc['fixtures'], lambda d: _decode_fixture(surfaces, d))
    fixtures = _index('fixture id', [(f.id, f) for f in decoded])
    entries = _decode_each('wall', doc['walls'], _decode_wall)
    values = [e.value for e in entries]
    if values != sorted(values):
        raise CatalogError('wall table is not sorted')
    return Catalog(path=path, surfaces=surfaces, fixtures=fixtures,
                   wall_table=WallTable(entries), sha256=sha256(data).hexdigest())


def load_catalog(path=None) -> Catalog:
    '''
    load and cache the catalog at ``path``, by default the file that
    KWALL_CATALOG names or else the embedded resource; the catalog keeps
    the resolved path

    TESTS:
        >>> load_catalog().ids('Sigma5')
        ('Sigma5/D_1_17/L1',)
        >>> load_catalog().fixture('Sigma5/D_1_17/L1').expected.wall
        Fraction(1, 17)
    '''
    if path is None:
        path = os.environ.get(ENV_VAR) or DATA_PATH
    return _load_resolved(Path(path).resolve())


def pair_from_doc(cat: Catalog, doc) -> LogPair:
    '''
    validated pair from a standalone document, its surface looked up in cat

    Schema: {"surface": catalog name, "boundary": [part, ...]} where a part
    is {"mult": p/q} plus exactly one of {"gen": name}, {"class": [...]} or
    {"class": [...], "label": name}.
    '''
    if not isinstance(doc, dict):
        raise CatalogError('pair document must be a json object')
    if 'surface' not in doc:
        raise CatalogError("pair document has no 'surface' field")
    model = cat.surface(doc['surface'])
    return LogPair(model, _decode_each('boundary part', doc.get('boundary', ()),
                                       lambda p: _decode_part(model, p)))


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
    except _REFUSED as exc:
        raise named('valuation document', exc) from None
