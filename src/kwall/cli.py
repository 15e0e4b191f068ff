'''
command line front end over the shipped fixture catalog

Every run prints a single report: markdown by default, json with --json.  A
report carries the command line, the resolved catalog path with the sha256
of the bytes the command decoded, the results, and a status.  Nothing else
goes in, so two runs over the same catalog produce byte-identical output.
A command computes only its results and returns them as exact values:
Fractions, affine functions of c, integers, booleans and None, with text
only for names, labels and prose.  main() alone turns them into text, with
str for the json report and in the markdown renderers' f-strings, and the
status and exit code follow from them.

Exit codes: 0 success, 2 bad input or configuration, 3 the engine refused
(a class outside the pseudo-effective cone, say), 4 a recomputation
disagreed with the stored catalog.
'''

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from fractions import Fraction
from pathlib import Path

from .catalog import (
    CatalogError,
    load_catalog,
    named,
    pair_from_doc,
    read_document,
    valuation_from_doc,
)
from .lattice import DivClass, EngineError, pair, rational
from .positivity import (
    NotPseudoEffective,
    integrate_profile,
    profile_to_doc,
    volume_profile,
    zariski_decompose,
)
from .stability import (
    VGIT_LO,
    beta,
    coefficient,
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


def _tuple_text(xs) -> str:
    return '(' + ', '.join(map(str, xs)) + ')'


def _affine_text(f) -> str:
    '''prefactor form when the function is a multiple of (1 - 2c)'''
    if f.slope == -2 * f.const != 0:
        return f'({f.const})(1 - 2c)'
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
            body = f'{mag} {sym}'
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f'-{body}')
        else:
            parts.append(f'+ {body}' if c > 0 else f'- {body}')
    return ' '.join(parts) if parts else '0'


def parse_divisor(model: SurfaceModel, text: str) -> DivClass:
    '''divisor spec: comma separated coordinates (on a rank-1 lattice, one
    number that is not a generator name), a generator name, or the
    shorthands "ac" / "2ac" for the anticanonical pullback and its double'''
    if text == 'ac':
        return model.anticanonical_pullback
    if text == '2ac':
        return 2 * model.anticanonical_pullback
    if ',' in text:
        return model.lattice.div(text.split(','))
    try:
        return model.gen(text)
    except ValueError:
        if model.lattice.rank == 1:
            with suppress(ValueError):
                return model.lattice.div([text])
        raise ConfigurationError(
            f'unknown divisor {text!r} on {model.name}; give a generator '
            f'name, coordinates, "ac" or "2ac"') from None


def _profile_results(profile) -> dict:
    '''tau, pieces and integral of a volume profile'''
    return {**profile_to_doc(profile), 'integral': integrate_profile(profile)}


def _profile_lines(head: str, r: dict) -> list[str]:
    '''a head line, then the piece table and integral of _profile_results'''
    lines = [head, '', '| range | volume | negative support |', '| --- | --- | --- |']
    for pc in r['pieces']:
        poly = _quad_text(pc['coeffs'])
        supp = ', '.join(pc['support']) or '-'
        lines.append(f'| [{pc["t_lo"]}, {pc["t_hi"]}] | {poly} | {supp} |')
    return [*lines, '', f'integral over [0, tau]: {r["integral"]}']


@contextmanager
def _naming(f):
    '''re-raise an engine or configuration refusal naming the fixture f by
    its id as well as the surface'''
    try:
        yield
    except EngineError as exc:
        raise named(f'fixture {f.id}', exc) from exc


def _family_ids(cat, family: str | None) -> tuple[str, ...]:
    ids = cat.ids(family)
    if not ids:
        raise CatalogError(f'no fixtures match family {family!r}')
    return ids


def cmd_surface_show(cat, args) -> dict:
    model = cat.surface(args.name)
    lat = model.lattice
    return {
        'name': model.name,
        'rank': lat.rank,
        'basis': list(lat.names),
        'degree': model.degree,
        'canonical': model.canonical.coords,
        'anticanonical_pullback': model.anticanonical_pullback.coords,
        'mori': [{'name': n, 'class': c.coords, 'self_intersection': pair(c, c),
                  'canonical_degree': pair(model.canonical, c)}
                 for n, c in model.mori_gens],
        'contracted': [{'name': n, 'discrepancy': model.discrepancy[n]}
                       for n in model.contracted],
    }


def _render_surface_show(r: dict) -> list[str]:
    contracted = ', '.join(f'{c["name"]} (discrepancy {c["discrepancy"]})'
                           for c in r['contracted'])
    return [f'rank {r["rank"]}, basis {", ".join(r["basis"])}, degree {r["degree"]}',
            f'K = {_tuple_text(r["canonical"])}, '
            f'pullback of -K = {_tuple_text(r["anticanonical_pullback"])}',
            '', '| generator | class | C.C | K.C |', '| --- | --- | --- | --- |',
            *(f'| {g["name"]} | {_tuple_text(g["class"])} '
              f'| {g["self_intersection"]} | {g["canonical_degree"]} |' for g in r['mori']),
            '', f'contracted: {contracted or "none"}']


def cmd_zariski(cat, args) -> dict:
    model = cat.surface(args.surface)
    d = parse_divisor(model, args.divisor)
    if args.ray is None:
        z = zariski_decompose(model, d)
        return {'surface': model.name, 'divisor': d.coords, 'positive': z.positive.coords,
                'negative': [{'name': n, 'mult': m} for n, m in z.negative_support]}
    ray = parse_divisor(model, args.ray)
    return {'surface': model.name, 'origin': d.coords, 'ray': ray.coords,
            **_profile_results(volume_profile(model, d, ray))}


def _render_zariski(r: dict) -> list[str]:
    head = [f'surface {r["surface"]}', '']
    if 'ray' in r:
        ray = (f'origin {_tuple_text(r["origin"])}, ray {_tuple_text(r["ray"])}, '
               f'tau = {r["tau"]}')
        return [*head, *_profile_lines(ray, r)]
    neg = ' + '.join(f'({m["mult"]}) {m["name"]}' for m in r['negative'])
    return [*head, f'D = {_tuple_text(r["divisor"])}',
            f'P = {_tuple_text(r["positive"])}', f'N = {neg or "0"}']


def cmd_profile(cat, args) -> dict:
    f = cat.fixture(args.fixture)
    base = f.valuation.base
    with _naming(f):
        profile = valuation_profile(f.valuation)
    results = {'fixture': f.id, 'surface': base.name, 'valuation': f.valuation.name,
               **_profile_results(profile)}
    return {**results, 'vanishing_order_at_zero': results['integral'] / base.degree}


def _render_profile(r: dict) -> list[str]:
    head = f'surface {r["surface"]}, valuation {r["valuation"]}, tau = {r["tau"]}'
    return [*_profile_lines(head, r),
            f'expected vanishing order at c = 0: {r["vanishing_order_at_zero"]}']


def cmd_beta(cat, args) -> dict:
    target = Path(args.target)
    # os.path.isfile is False for a name it cannot stat, too long ones included
    if os.path.isfile(target):
        if args.valuation is None:
            raise ConfigurationError(
                'pair file input needs a valuation file or generator name')
        p = pair_from_doc(cat, read_document(target, 'pair file')[1])
        vdoc = (read_document(Path(args.valuation), 'valuation file')[1]
                if os.path.isfile(args.valuation)
                else {'kind': 'surface', 'name': args.valuation})
        v = valuation_from_doc(p, vdoc)
        f = None
    else:
        if args.valuation is not None:
            raise ConfigurationError(
                'a valuation argument only applies to pair file input')
        f = cat.fixture(args.target)
        p, v = f.pair, f.valuation
    with _naming(f) if f else nullcontext():
        a, s = log_discrepancy(p, v), s_invariant(p, v)
    b = a - s
    sol = solve_wall(b)
    results = {
        'surface': p.surface.name,
        'valuation': {'name': v.name, 'tag': v.tag,
                      'a_x': v.a_x, 'ord_b': v.ord_b},
        'log_discrepancy': a,
        'expected_vanishing': _affine_text(s),
        'beta': 'identically zero' if sol.identically_zero else b,
        'margin': {'const': b.const, 'slope': b.slope},
        'wall': sol.root,
    }
    if f is None:
        results['pair_file'] = str(target)
    else:
        results.update(fixture=f.id, stored_wall=f.expected.wall,
                       match=sol.root == f.expected.wall)
        if f.display is not None and f.display.beta_text:
            results['printed'] = {'scale': f.display.scale,
                                  'beta': f.display.beta_text}
    if args.c is not None:
        c = coefficient(args.c)
        bc = b.value(c)
        results['at'] = {
            'c': c,
            'log_discrepancy': a.value(c),
            'expected_vanishing': s.value(c),
            'beta': bc,
            'sign': 'zero' if bc == 0 else ('positive' if bc > 0 else 'negative'),
        }
    return results


def _render_beta(r: dict) -> list[str]:
    v = r['valuation']
    if r['beta'] == 'identically zero':
        wall = 'beta vanishes for every coefficient in the range'
    elif r['wall'] is not None:
        wall = f'wall at c = {r["wall"]}'
    else:
        wall = 'no wall inside the coefficient range'
    body = [f'surface {r["surface"]}, valuation {v["name"]} ({v["tag"]})', '',
            f'A = {r["log_discrepancy"]}', f'S = {r["expected_vanishing"]}',
            f'beta = {r["beta"]}', wall]
    if r.get('match') is False:
        body.append(f'stored wall {r["stored_wall"]} disagrees with the recomputation')
    if 'printed' in r:
        body.append(f'printed as {r["printed"]["beta"]} (scale {r["printed"]["scale"]})')
    if 'at' in r:
        at = r['at']
        body += ['', f'at c = {at["c"]}: A = {at["log_discrepancy"]}, '
                     f'S = {at["expected_vanishing"]}, beta = {at["beta"]} ({at["sign"]})']
    return body


def cmd_walls(cat, args) -> dict:
    rows = []
    for fid in _family_ids(cat, args.family):
        f = cat.fixture(fid)
        with _naming(f):
            sol = solve_wall(beta(f.pair, f.valuation))
        rows.append((fid, sol.root, f.expected.wall))
    rows.sort(key=lambda r: (r[1] is None, r[1] or Fraction(0), r[0]))
    found = {root for _, root, _ in rows if root is not None}
    results = {
        'count': len(rows),
        'fixtures': [{'id': fid, 'wall': root, 'stored': stored, 'match': root == stored}
                     for fid, root, stored in rows],
        'walls': sorted(found),
        'mismatches': [{'id': fid, 'computed': root, 'stored': stored}
                       for fid, root, stored in rows if root != stored],
    }
    if args.diff:
        entries = [e for e in cat.wall_table.entries if args.family is None
                   or any(fam.startswith(args.family) for fam in e.families)]
        stored = {e.value for e in entries}
        results['diff'] = {
            'stored': [e.value for e in entries],
            'matched': len(stored & found),
            'missing': sorted(stored - found),
            'extra': sorted(found - stored),
            'divisorial': [e.value for e in entries if e.divisorial],
        }
    return results


def _render_walls(r: dict) -> list[str]:
    groups: dict = {}
    for row in r['fixtures']:
        groups.setdefault(row['wall'], []).append(row['id'])
    body = [f'{len(r["walls"])} distinct walls from {r["count"]} fixtures', '',
            '| wall | fixtures |', '| --- | --- |',
            *(f'| {"-" if wall is None else wall} | {", ".join(ids)} |'
              for wall, ids in groups.items())]
    if r['mismatches']:
        body += ['', 'fixture mismatches:']
        body += [f'- {m["id"]}: computed {m["computed"]}, stored {m["stored"]}'
                 for m in r['mismatches']]
    if 'diff' in r:
        diff = r['diff']
        body += ['', f'diff against stored table: '
                     f'{diff["matched"]}/{len(set(diff["stored"]))} walls matched']
        for label, key in (('divisorial', 'divisorial'), ('missing from run', 'missing'),
                           ('not in stored table', 'extra')):
            if diff[key]:
                body.append(f'{label}: ' + ', '.join(map(str, diff[key])))
    return body


def cmd_bounds(cat, args) -> dict:
    if (args.c is None) == (args.degree is None):
        raise ConfigurationError('give exactly one of --c and --degree')
    c = None if args.c is None else coefficient(args.c)
    degree = rational(args.degree) if c is None else 5 * (1 - 2 * c) ** 2
    bound = quotient_order_bound(degree)
    if bound < 2:
        note = 'forces smooth surfaces'
    elif bound < 3:
        note = 'at most A1 singular points'
    else:
        note = f'quotient singularities of order up to {int(bound)}'
    results = {'pair_degree': degree, 'quotient_order_bound': bound, 'note': note}
    if c is not None:
        results['c'] = c
    index = (args.d, args.n, args.ord_lower)
    if any(x is not None for x in index):
        if any(x is None for x in index):
            raise ConfigurationError('the index test needs all of --d, --n and --ord')
        if c is None:
            raise ConfigurationError('the index test needs --c')
        ord_lower = rational(args.ord_lower)
        results['index'] = {'d': args.d, 'n': args.n, 'ord_lower': ord_lower,
                            'feasible': index_feasibility(args.d, args.n, c, ord_lower)}
    if c is not None and c >= VGIT_LO:
        results['vgit_slope'] = vgit_slope(c)
    return results


def _render_bounds(r: dict) -> list[str]:
    head = f'pair degree {"5 (1 - 2c)^2 = " if "c" in r else ""}{r["pair_degree"]}'
    body = [head, f'largest local quotient order: {r["quotient_order_bound"]} ({r["note"]})']
    if 'index' in r:
        ix = r['index']
        body.append(f'index test d={ix["d"]} n={ix["n"]} ord>={ix["ord_lower"]}: '
                    f'{"feasible" if ix["feasible"] else "excluded"}')
    if 'vgit_slope' in r:
        body.append(f'vgit slope: {r["vgit_slope"]}')
    return body


def cmd_fixtures_list(cat, args) -> dict:
    fixtures = [cat.fixture(fid) for fid in _family_ids(cat, args.family)]
    return {'count': len(fixtures), 'fixtures': [
        {'id': f.id, 'surface': f.pair.surface.name, 'wall': f.expected.wall,
         'trust': f.expected.trust} for f in fixtures]}


def _render_fixtures_list(r: dict) -> list[str]:
    return [f'{r["count"]} fixtures', '', '| id | surface | wall | trust |',
            '| --- | --- | --- | --- |',
            *(f'| {f["id"]} | {f["surface"]} | {"-" if f["wall"] is None else f["wall"]} '
              f'| {f["trust"]} |'
              for f in r['fixtures'])]


def _add_surface(sub, common):
    p = sub.add_parser('surface', help='inspect a surface model',
                       parents=[common])
    ssub = p.add_subparsers(dest='action', required=True)
    q = ssub.add_parser('show', help='lattice, cone and contraction data',
                        parents=[common])
    q.add_argument('name')
    q.set_defaults(handler=cmd_surface_show, render=_render_surface_show)


def _add_zariski(sub, common):
    p = sub.add_parser('zariski', parents=[common],
                       help='zariski decomposition, or a volume profile along a ray')
    p.add_argument('surface')
    p.add_argument('divisor')
    p.add_argument('--ray', help='walk the profile of divisor - t ray')
    p.set_defaults(handler=cmd_zariski, render=_render_zariski)


def _add_profile(sub, common):
    p = sub.add_parser('profile', parents=[common],
                       help='volume profile of a catalog valuation')
    p.add_argument('fixture')
    p.set_defaults(handler=cmd_profile, render=_render_profile)


def _add_beta(sub, common):
    p = sub.add_parser('beta', parents=[common],
                       help='margin invariants of a fixture or a pair file')
    p.add_argument('target', metavar='fixture-or-pair-file',
                   help='catalog fixture id, or a json pair document')
    p.add_argument('valuation', nargs='?',
                   help='valuation document or generator name; pair file input only')
    p.add_argument('--c', help='boundary coefficient in (0, 1/2)')
    p.set_defaults(handler=cmd_beta, render=_render_beta)


def _add_walls(sub, common):
    p = sub.add_parser('walls', parents=[common],
                       help='recompute every wall from first principles')
    p.add_argument('--family', help='restrict to fixture ids with this family prefix')
    p.add_argument('--diff', action='store_true',
                   help='compare the wall set against the stored table')
    p.set_defaults(handler=cmd_walls, render=_render_walls)


def _add_bounds(sub, common):
    p = sub.add_parser('bounds', parents=[common],
                       help='singularity bounds at a boundary coefficient')
    p.add_argument('--c', help='boundary coefficient in (0, 1/2)')
    p.add_argument('--degree', help='anticanonical pair degree, instead of --c')
    p.add_argument('--d', type=int, help='index numerator of the quotient point')
    p.add_argument('--n', type=int, help='index root of the quotient point')
    p.add_argument('--ord', dest='ord_lower',
                   help='lower bound for the boundary order at the point')
    p.set_defaults(handler=cmd_bounds, render=_render_bounds)


def _add_fixtures(sub, common):
    p = sub.add_parser('fixtures', help='catalog inventory', parents=[common])
    fsub = p.add_subparsers(dest='action', required=True)
    q = fsub.add_parser('list', help='list fixture ids', parents=[common])
    q.add_argument('--family')
    q.set_defaults(handler=cmd_fixtures_list, render=_render_fixtures_list)


# each command's parser, in the order --help lists them
COMMANDS = {'surface': _add_surface, 'zariski': _add_zariski, 'profile': _add_profile,
            'beta': _add_beta, 'walls': _add_walls, 'bounds': _add_bounds,
            'fixtures': _add_fixtures}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    '''
    the kwall parser; when command names a subcommand, the only one built

    An argv that starts with a command name parses the same under either
    tree, since argparse hands everything after the name to that command's
    parser.  Any other argv (--help, a leading option, no argument or an
    unknown command) needs the full tree.
    '''
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument('--json', action='store_true', default=argparse.SUPPRESS,
                        help='emit the report as json')
    parser = argparse.ArgumentParser(
        prog='kwall', parents=[common],
        description='exact wall arithmetic for boundary-scaled del Pezzo pairs')
    names = [command] if command in COMMANDS else list(COMMANDS)
    # a one-command tree names all seven in its usage line, as the full tree
    # does; the full tree keeps argparse's default, since its error for a
    # missing command names the metavar when one is set
    metavar = '{' + ','.join(COMMANDS) + '}' if len(names) == 1 else None
    sub = parser.add_subparsers(dest='command', required=True, metavar=metavar)
    for name in names:
        COMMANDS[name](sub, common)
    return parser


def _status(results: dict) -> tuple[str, int]:
    '''status and exit code of a report: a mismatch when a recomputation
    disagrees with the stored catalog'''
    diff = results.get('diff', {})
    if (results.get('match') is False or results.get('mismatches')
            or diff.get('missing') or diff.get('extra')):
        return 'mismatch', EXIT_MISMATCH
    return 'ok', EXIT_OK


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = build_parser(raw[0] if raw else None)
    try:
        args = parser.parse_args(raw)
        # argparse turns an option value of '--' (as in --family=--) into []
        if [] in vars(args).values():
            parser.error("an option value may not be '--'")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cat = load_catalog()  # every command decodes the catalog first
        results = args.handler(cat, args)
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
    status, code = _status(results)
    command = ['kwall', *raw]
    inputs = {'catalog': str(cat.path), 'sha256': cat.sha256}
    if getattr(args, 'json', False):
        report = {'command': command, 'inputs': inputs,
                  'results': results, 'status': status}
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print('\n'.join([f'# {" ".join(command)}', '',
                         f'catalog: {inputs["catalog"]}',
                         f'sha256: {inputs["sha256"]}',
                         '', *args.render(results), '',
                         f'status: {status}']))
    return code


def run():
    '''
    process entry of the kwall command: exit with main()'s code

    gc.freeze() moves every live object out of the collector's reach, so
    the collection at interpreter shutdown does not walk the decoded
    catalog.  Unlike os._exit, the exit still flushes stdout and runs atexit
    handlers.  main() itself has no process-wide effect, so that tests can
    call it in process.
    '''
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == '__main__':
    run()
