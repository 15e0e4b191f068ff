'''
command line front end over the shipped fixture catalog

Every run prints a single report: markdown by default, json with --json.  A
report carries the command line, the catalog path with a sha256 of its bytes,
the results, and a status.  Nothing else goes in, so two runs over the same
catalog produce byte-identical output.

Exit codes: 0 success, 2 bad input or configuration, 3 the engine refused
(a class outside the pseudo-effective cone, say), 4 a recomputation
disagreed with the stored catalog.
'''

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from .catalog import (
    CatalogError,
    catalog_path,
    load_catalog,
    load_fixture,
    pair_from_doc,
    valuation_from_doc,
)
from .lattice import DivClass, EngineError, pair, rational, rational_str
from .positivity import (
    NotPseudoEffective,
    integrate_profile,
    profile_to_doc,
    volume_profile,
    zariski_decompose,
)
from .stability import (
    HALF,
    beta,
    index_feasibility,
    log_discrepancy,
    quotient_order_bound,
    s_invariant,
    solve_wall,
    valuation_profile,
    vgit_slope,
)
from .surface import ConfigurationError, SurfaceModel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ENGINE = 3
EXIT_MISMATCH = 4


def _vec(d: DivClass) -> str:
    return '(' + ', '.join(rational_str(x) for x in d.coords) + ')'


def _coords(d: DivClass) -> list[str]:
    return [rational_str(x) for x in d.coords]


def _opt(x: Fraction | None) -> str | None:
    return None if x is None else rational_str(x)


def _affine_text(f) -> str:
    '''prefactor form when the function is a multiple of (1 - 2c)'''
    if f.slope == -2 * f.const != 0:
        return f'({rational_str(f.const)})(1 - 2c)'
    return str(f)


def _quad_text(coeffs) -> str:
    '''
    render c0 + c1 t + c2 t^2 with exact coefficients

    TESTS::

        >>> _quad_text([Fraction(5), Fraction(-2), Fraction(-1)])
        '5 - 2 t - t^2'
        >>> _quad_text([Fraction(0), Fraction(0), Fraction(2)])
        '2 t^2'
        >>> _quad_text([Fraction(0), Fraction(0), Fraction(0)])
        '0'
    '''
    parts: list[str] = []
    for c, sym in zip(coeffs, ('', 't', 't^2')):
        if c == 0:
            continue
        mag = abs(c)
        if sym and mag == 1:
            body = sym
        elif sym:
            body = f'{rational_str(mag)} {sym}'
        else:
            body = rational_str(mag)
        if not parts:
            parts.append(body if c > 0 else f'-{body}')
        else:
            parts.append(f'+ {body}' if c > 0 else f'- {body}')
    return ' '.join(parts) if parts else '0'


def _catalog_input() -> dict:
    p = catalog_path()
    try:
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
    except OSError as exc:
        raise CatalogError(f'catalog {p} is not readable: {exc}') from None
    return {'catalog': str(p), 'sha256': digest}


def parse_divisor(model: SurfaceModel, text: str) -> DivClass:
    '''divisor spec: comma separated coordinates, a generator name, or the
    shorthands "ac" / "2ac" for the anticanonical pullback and its double'''
    if text == 'ac':
        return model.anticanonical_pullback
    if text == '2ac':
        return 2 * model.anticanonical_pullback
    if ',' in text:
        return model.lattice.div([rational(x) for x in text.split(',')])
    try:
        return model.gen(text)
    except KeyError:
        raise ConfigurationError(
            f'unknown divisor {text!r} on {model.name}; give a generator '
            f'name, coordinates, "ac" or "2ac"') from None


def _pieces_lines(pieces) -> list[str]:
    lines = ['| range | volume | negative support |', '| --- | --- | --- |']
    for pc in pieces:
        poly = _quad_text([rational(x) for x in pc['coeffs']])
        supp = ', '.join(pc['support']) or '-'
        lines.append(f'| [{pc["t_lo"]}, {pc["t_hi"]}] | {poly} | {supp} |')
    return lines


def cmd_surface_show(args) -> tuple[dict, list[str], str, int]:
    model = load_catalog().surface(args.name)
    lat = model.lattice
    gens = [{
        'name': n,
        'class': _coords(c),
        'self_intersection': rational_str(pair(c, c)),
        'canonical_degree': rational_str(pair(model.canonical, c)),
    } for n, c in model.mori_gens]
    contracted = [{'name': n, 'discrepancy': rational_str(model.discrepancy[n])}
                  for n in model.contracted]
    results = {
        'name': model.name,
        'rank': lat.rank,
        'basis': list(lat.names),
        'degree': rational_str(model.degree),
        'canonical': _coords(model.canonical),
        'anticanonical_pullback': _coords(model.anticanonical_pullback),
        'mori': gens,
        'contracted': contracted,
    }
    body = [
        f'rank {lat.rank}, basis {", ".join(lat.names)}, '
        f'degree {rational_str(model.degree)}',
        f'K = {_vec(model.canonical)}, '
        f'pullback of -K = {_vec(model.anticanonical_pullback)}',
        '',
        '| generator | class | C.C | K.C |',
        '| --- | --- | --- | --- |',
    ]
    body += [f'| {g["name"]} | ({", ".join(g["class"])}) '
             f'| {g["self_intersection"]} | {g["canonical_degree"]} |'
             for g in gens]
    if contracted:
        body += ['', 'contracted: ' + ', '.join(
            f'{c["name"]} (discrepancy {c["discrepancy"]})' for c in contracted)]
    else:
        body += ['', 'contracted: none']
    return results, body, 'ok', EXIT_OK


def cmd_zariski(args) -> tuple[dict, list[str], str, int]:
    model = load_catalog().surface(args.surface)
    d = parse_divisor(model, args.divisor)
    if args.ray is None:
        z = zariski_decompose(model, d)
        neg = [{'name': n, 'mult': rational_str(m)} for n, m in z.negative_support]
        results = {
            'surface': model.name,
            'divisor': _coords(d),
            'positive': _coords(z.positive),
            'negative': neg,
        }
        neg_text = ' + '.join(f'({m["mult"]}) {m["name"]}' for m in neg) or '0'
        body = [f'surface {model.name}', '',
                f'D = {_vec(d)}',
                f'P = {_vec(z.positive)}',
                f'N = {neg_text}']
        return results, body, 'ok', EXIT_OK
    ray = parse_divisor(model, args.ray)
    prof = volume_profile(model, d, ray)
    doc = profile_to_doc(prof)
    integral = integrate_profile(prof)
    results = {
        'surface': model.name,
        'origin': _coords(d),
        'ray': _coords(ray),
        'tau': doc['tau'],
        'pieces': doc['pieces'],
        'integral': rational_str(integral),
    }
    body = [f'surface {model.name}', '',
            f'origin {_vec(d)}, ray {_vec(ray)}, tau = {doc["tau"]}', '',
            *_pieces_lines(doc['pieces']), '',
            f'integral over [0, tau]: {rational_str(integral)}']
    return results, body, 'ok', EXIT_OK


def cmd_profile(args) -> tuple[dict, list[str], str, int]:
    f = load_fixture(args.fixture)
    v = f.valuation
    base = v.base_surface()
    profile = valuation_profile(v)
    doc = profile_to_doc(profile)
    integral = integrate_profile(profile)
    s0 = integral / base.degree
    results = {
        'fixture': f.id,
        'surface': base.name,
        'valuation': v.name,
        'tau': doc['tau'],
        'pieces': doc['pieces'],
        'integral': rational_str(integral),
        'vanishing_order_at_zero': rational_str(s0),
    }
    body = [f'surface {base.name}, valuation {v.name}, tau = {doc["tau"]}', '',
            *_pieces_lines(doc['pieces']), '',
            f'integral over [0, tau]: {rational_str(integral)}',
            f'expected vanishing order at c = 0: {rational_str(s0)}']
    return results, body, 'ok', EXIT_OK


def _load_doc(path: Path):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise CatalogError(f'{path}: not readable: {exc}') from None
    except json.JSONDecodeError as exc:
        raise CatalogError(f'{path}: invalid json: {exc}') from None


def cmd_beta(args) -> tuple[dict, list[str], str, int]:
    target = Path(args.target)
    if target.is_file():
        if args.valuation is None:
            raise ConfigurationError(
                'pair file input needs a valuation file or generator name')
        p = pair_from_doc(_load_doc(target))
        vpath = Path(args.valuation)
        vdoc = (_load_doc(vpath) if vpath.is_file()
                else {'kind': 'surface', 'name': args.valuation})
        v = valuation_from_doc(p, vdoc)
        f = None
    else:
        if args.valuation is not None:
            raise ConfigurationError(
                'a valuation argument only applies to pair file input')
        f = load_fixture(args.target)
        p, v = f.pair, f.valuation
    a = log_discrepancy(p, v)
    s = s_invariant(p, v)
    b = beta(p, v)
    sol = solve_wall(b, p.c_lo, p.c_hi)
    results = {
        'surface': p.surface.name,
        'valuation': {'name': v.name, 'tag': v.tag,
                      'a_x': rational_str(v.a_x), 'ord_b': rational_str(v.ord_b)},
        'log_discrepancy': str(a),
        'expected_vanishing': _affine_text(s),
        'beta': 'identically zero' if sol.identically_zero else str(b),
        'margin': {'const': rational_str(b.const),
                   'slope': rational_str(b.slope)},
        'wall': _opt(sol.root),
    }
    body = [f'surface {p.surface.name}, valuation {v.name} ({v.tag})', '',
            f'A = {a}',
            f'S = {_affine_text(s)}',
            f'beta = {results["beta"]}']
    if sol.identically_zero:
        body.append('beta vanishes for every coefficient in the range')
    elif sol.root is not None:
        body.append(f'wall at c = {rational_str(sol.root)}')
    else:
        body.append('no wall inside the coefficient range')
    match = True
    if f is None:
        results['pair_file'] = str(target)
    else:
        results['fixture'] = f.id
        results['stored_wall'] = _opt(f.expected.wall)
        match = sol.root == f.expected.wall
        results['match'] = match
        if not match:
            body.append(f'stored wall {results["stored_wall"]} disagrees '
                        f'with the recomputation')
        if f.display is not None and f.display.beta_text:
            results['printed'] = {'scale': rational_str(f.display.scale),
                                  'beta': f.display.beta_text}
            body.append(f'printed as {f.display.beta_text} '
                        f'(scale {rational_str(f.display.scale)})')
    if args.c is not None:
        c = rational(args.c)
        if not p.c_lo <= c <= p.c_hi:
            raise ConfigurationError(
                f'coefficient {rational_str(c)} outside '
                f'[{rational_str(p.c_lo)}, {rational_str(p.c_hi)}]')
        bc = b.value(c)
        sign = 'zero' if bc == 0 else ('positive' if bc > 0 else 'negative')
        results['at'] = {
            'c': rational_str(c),
            'log_discrepancy': rational_str(a.value(c)),
            'expected_vanishing': rational_str(s.value(c)),
            'beta': rational_str(bc),
            'sign': sign,
        }
        body += ['', f'at c = {rational_str(c)}: A = {rational_str(a.value(c))}, '
                     f'S = {rational_str(s.value(c))}, '
                     f'beta = {rational_str(bc)} ({sign})']
    status = 'ok' if match else 'mismatch'
    return results, body, status, EXIT_OK if match else EXIT_MISMATCH


def cmd_walls(args) -> tuple[dict, list[str], str, int]:
    cat = load_catalog()
    ids = cat.ids(args.family)
    if not ids:
        raise CatalogError(f'no fixtures match family {args.family!r}')
    rows = []
    for fid in ids:
        f = cat.fixture(fid)
        sol = solve_wall(beta(f.pair, f.valuation), f.pair.c_lo, f.pair.c_hi)
        rows.append((fid, sol.root, f.expected.wall))
    rows.sort(key=lambda r: (r[1] is None, r[1] or Fraction(0), r[0]))

    found = sorted({root for _, root, _ in rows if root is not None})
    mismatches = [{'id': fid, 'computed': _opt(root), 'stored': _opt(stored)}
                  for fid, root, stored in rows if root != stored]
    results = {
        'count': len(ids),
        'fixtures': [{'id': fid, 'wall': _opt(root), 'stored': _opt(stored),
                      'match': root == stored} for fid, root, stored in rows],
        'walls': [rational_str(w) for w in found],
        'mismatches': mismatches,
    }

    groups: dict = {}
    for fid, root, _ in rows:
        groups.setdefault(root, []).append(fid)
    body = [f'{len(found)} distinct walls from {len(ids)} fixtures', '',
            '| wall | fixtures |', '| --- | --- |']
    body += [f'| {"-" if root is None else rational_str(root)} '
             f'| {", ".join(fids)} |' for root, fids in groups.items()]

    bad = bool(mismatches)
    if mismatches:
        body += ['', 'fixture mismatches:']
        body += [f'- {m["id"]}: computed {m["computed"]}, stored {m["stored"]}'
                 for m in mismatches]

    if args.diff:
        table = cat.wall_table
        if args.family is None:
            entries = list(table.entries)
        else:
            entries = [e for e in table.entries
                       if any(fam.startswith(args.family) for fam in e.families)]
        stored_set = {e.value for e in entries}
        missing = sorted(stored_set - set(found))
        extra = sorted(set(found) - stored_set)
        divisorial = [e.value for e in entries if e.divisorial]
        results['diff'] = {
            'stored': [rational_str(e.value) for e in entries],
            'matched': len(stored_set & set(found)),
            'missing': [rational_str(w) for w in missing],
            'extra': [rational_str(w) for w in extra],
            'divisorial': [rational_str(w) for w in divisorial],
        }
        body += ['', f'diff against stored table: '
                     f'{len(stored_set & set(found))}/{len(stored_set)} walls matched']
        if divisorial:
            body.append('divisorial: ' + ', '.join(rational_str(w) for w in divisorial))
        if missing:
            body.append('missing from run: ' + ', '.join(rational_str(w) for w in missing))
        if extra:
            body.append('not in stored table: ' + ', '.join(rational_str(w) for w in extra))
        bad = bad or bool(missing) or bool(extra)

    status = 'mismatch' if bad else 'ok'
    return results, body, status, EXIT_MISMATCH if bad else EXIT_OK


def cmd_bounds(args) -> tuple[dict, list[str], str, int]:
    if (args.c is None) == (args.degree is None):
        raise ConfigurationError('give exactly one of --c and --degree')
    if args.c is not None:
        c = rational(args.c)
        if not 0 < c < HALF:
            raise ConfigurationError(
                f'coefficient {rational_str(c)} outside the open interval (0, 1/2)')
        degree = 5 * (1 - 2 * c) ** 2
        head = f'pair degree 5 (1 - 2c)^2 = {rational_str(degree)}'
    else:
        c = None
        degree = rational(args.degree)
        if degree <= 0:
            raise ConfigurationError('--degree must be positive')
        head = f'pair degree {rational_str(degree)}'
    bound = quotient_order_bound(degree)
    if bound < 2:
        note = 'forces smooth surfaces'
    elif bound < 3:
        note = 'at most A1 singular points'
    else:
        note = f'quotient singularities of order up to {int(bound)}'
    results = {
        'pair_degree': rational_str(degree),
        'quotient_order_bound': rational_str(bound),
        'note': note,
    }
    if c is not None:
        results['c'] = rational_str(c)
    body = [head,
            f'largest local quotient order: {rational_str(bound)} ({note})']
    index = (args.d, args.n, args.ord_lower)
    if any(x is not None for x in index):
        if any(x is None for x in index):
            raise ConfigurationError('the index test needs all of --d, --n and --ord')
        if c is None:
            raise ConfigurationError('the index test needs --c')
        ok = index_feasibility(args.d, args.n, c, rational(args.ord_lower))
        results['index'] = {'d': args.d, 'n': args.n,
                            'ord_lower': rational_str(rational(args.ord_lower)),
                            'feasible': ok}
        body.append(f'index test d={args.d} n={args.n} '
                    f'ord>={rational_str(rational(args.ord_lower))}: '
                    f'{"feasible" if ok else "excluded"}')
    if c is not None and Fraction(1, 4) <= c < HALF:
        slope = vgit_slope(c)
        results['vgit_slope'] = rational_str(slope)
        body.append(f'vgit slope: {rational_str(slope)}')
    return results, body, 'ok', EXIT_OK


def cmd_fixtures_list(args) -> tuple[dict, list[str], str, int]:
    cat = load_catalog()
    ids = cat.ids(args.family)
    if not ids:
        raise CatalogError(f'no fixtures match family {args.family!r}')
    rows = [{'id': fid,
             'surface': cat.fixture(fid).pair.surface.name,
             'wall': _opt(cat.fixture(fid).expected.wall),
             'trust': cat.fixture(fid).expected.trust} for fid in ids]
    results = {'count': len(ids), 'fixtures': rows}
    body = [f'{len(ids)} fixtures', '',
            '| id | surface | wall | trust |', '| --- | --- | --- | --- |']
    body += [f'| {r["id"]} | {r["surface"]} | {r["wall"] or "-"} | {r["trust"]} |'
             for r in rows]
    return results, body, 'ok', EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument('--json', action='store_true', default=argparse.SUPPRESS,
                        help='emit the report as json')
    parser = argparse.ArgumentParser(
        prog='kwall', parents=[common],
        description='exact wall arithmetic for boundary-scaled del Pezzo pairs')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('surface', help='inspect a surface model',
                       parents=[common])
    ssub = p.add_subparsers(dest='action', required=True)
    q = ssub.add_parser('show', help='lattice, cone and contraction data',
                        parents=[common])
    q.add_argument('name')
    q.set_defaults(handler=cmd_surface_show)

    p = sub.add_parser('zariski', parents=[common],
                       help='zariski decomposition, or a volume profile along a ray')
    p.add_argument('surface')
    p.add_argument('divisor')
    p.add_argument('--ray', help='walk the profile of divisor - t ray')
    p.set_defaults(handler=cmd_zariski)

    p = sub.add_parser('profile', parents=[common],
                       help='volume profile of a catalog valuation')
    p.add_argument('fixture')
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser('beta', parents=[common],
                       help='margin invariants of a fixture or a pair file')
    p.add_argument('target', metavar='fixture-or-pair-file',
                   help='catalog fixture id, or a json pair document')
    p.add_argument('valuation', nargs='?',
                   help='valuation document or generator name; pair file input only')
    p.add_argument('--c', help='also evaluate the invariants at this coefficient')
    p.set_defaults(handler=cmd_beta)

    p = sub.add_parser('walls', parents=[common],
                       help='recompute every wall from first principles')
    p.add_argument('--family', help='restrict to fixture ids with this family prefix')
    p.add_argument('--diff', action='store_true',
                   help='compare the wall set against the stored table')
    p.set_defaults(handler=cmd_walls)

    p = sub.add_parser('bounds', parents=[common],
                       help='singularity bounds at a boundary coefficient')
    p.add_argument('--c', help='boundary coefficient in (0, 1/2)')
    p.add_argument('--degree', help='anticanonical pair degree, instead of --c')
    p.add_argument('--d', type=int, help='index numerator of the quotient point')
    p.add_argument('--n', type=int, help='index root of the quotient point')
    p.add_argument('--ord', dest='ord_lower',
                   help='lower bound for the boundary order at the point')
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser('fixtures', help='catalog inventory', parents=[common])
    fsub = p.add_subparsers(dest='action', required=True)
    q = fsub.add_parser('list', help='list fixture ids', parents=[common])
    q.add_argument('--family')
    q.set_defaults(handler=cmd_fixtures_list)

    return parser


def _markdown(echo: list[str], inputs: dict, body: list[str], status: str) -> str:
    lines = [f'# {" ".join(echo)}', '',
             f'catalog: {inputs["catalog"]}',
             f'sha256: {inputs["sha256"]}',
             '', *body, '',
             f'status: {status}']
    return '\n'.join(lines)


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = build_parser()
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        inputs = _catalog_input()
        results, body, status, code = args.handler(args)
    except CatalogError as exc:
        print(f'catalog error: {exc}', file=sys.stderr)
        return EXIT_USAGE
    except ConfigurationError as exc:
        print(f'configuration error: {exc}', file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f'bad input: {exc}', file=sys.stderr)
        return EXIT_USAGE
    except NotPseudoEffective as exc:
        print(f'not pseudo-effective: {exc}', file=sys.stderr)
        return EXIT_ENGINE
    except EngineError as exc:
        print(f'engine failure: {exc}', file=sys.stderr)
        return EXIT_ENGINE
    report = {'command': ['kwall', *raw], 'inputs': inputs,
              'results': results, 'status': status}
    if getattr(args, 'json', False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_markdown(report['command'], inputs, body, status))
    return code


if __name__ == '__main__':
    raise SystemExit(main())
