'''exit codes, report shapes, and worked command lines for the cli'''

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import kwall.catalog
import kwall.cli
import kwall.stability
import kwall.surface
from kwall.catalog import DATA_PATH, load_catalog
from kwall.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, '--json', *argv)
    return code, json.loads(out)


def test_zariski_splits_off_the_negative_part(capsys):
    code, out, _ = run(capsys, 'zariski', 'sigma5', '3/2,1/2,1/2,-1,-1')
    assert code == 0
    assert 'P = (1, 0, 0, -1/2, -1/2)' in out
    for term in ('(1/2) exc1', '(1/2) exc2', '(1/2) line34'):
        assert term in out


def test_zariski_on_a_nef_class_has_no_negative_part(capsys):
    code, out, _ = run(capsys, 'zariski', 'sigma5', 'ac')
    assert code == 0
    assert 'N = 0' in out


def test_zariski_reads_the_doubled_anticanonical_class(capsys):
    _, once = run_json(capsys, 'zariski', 'xq', 'ac')
    code, twice = run_json(capsys, 'zariski', 'xq', '2ac')
    assert code == 0
    for key in ('divisor', 'positive'):
        assert twice['results'][key] == [str(2 * Fraction(x)) for x in once['results'][key]]
    assert twice['results']['negative'] == []


def test_zariski_ray_walks_two_chambers(capsys):
    code, out, _ = run(capsys, 'zariski', 'sigma5', 'ac', '--ray', 'line12')
    assert code == 0
    assert 'tau = 2' in out
    assert '| [0, 1] | 5 - 2 t - t^2 | - |' in out
    assert '| [1, 2] |' in out
    assert 'integral over [0, tau]: 13/3' in out


def test_zariski_refuses_a_class_outside_the_cone(capsys):
    code, out, err = run(capsys, 'zariski', 'sigma5', '--', '-1,0,0,0,0')
    assert code == 3
    assert out == ''
    assert 'not pseudo-effective' in err


def test_a_ray_whose_volume_only_grows_never_vanishes(capsys):
    '''the last chamber starts at t = 1 with volume 7 + 6 t + t^2, whose
    irrational roots -3 +- sqrt 2 both lie before it: -direction = h + e1 + 2 e3
    is effective, so the volume never reaches zero'''
    code, out, err = run(capsys, 'zariski', 'sigma5', 'ac', '--ray=-1,-1,0,-2,0')
    assert (code, out) == (3, '')
    assert 'volume never vanishes along the ray' in err


def test_bad_divisor_inputs_are_usage_errors(capsys):
    assert run(capsys, 'zariski', 'sigma5', '1,2')[0] == 2
    assert run(capsys, 'zariski', 'sigma5', 'no-such-gen')[0] == 2
    assert run(capsys, 'zariski', 'no-such-surface', 'ac')[0] == 2


@pytest.mark.parametrize('argv, code, shown', [
    (['p2', '2'], 0, ('P = (2)', 'N = 0')),
    (['p2', '3/2'], 0, ('P = (3/2)', 'N = 0')),
    (['p2', 'ac', '--ray=1'], 0, ('| [0, 3] | 9 - 6 t + t^2 | - |',)),
    (['p2', '--', '-1'], 3, ('not pseudo-effective: p2',)),
    (['p2', 'nope'], 2, ("unknown divisor 'nope' on p2",)),
    (['sigma5', '2'], 2, ("unknown divisor '2' on sigma5",))],
    ids=['p2-2', 'p2-3/2', 'p2-ray', 'p2-minus-1', 'p2-nope', 'sigma5-2'])
def test_a_rank_one_surface_takes_one_coordinate_without_a_comma(argv, code, shown, capsys):
    '''on p2 a number that names no generator is the class's one
    coordinate; on a lattice of higher rank it stays an unknown divisor'''
    got, out, err = run(capsys, 'zariski', *argv)
    assert got == code
    for text in shown:
        assert text in (out if code == 0 else err)


def test_beta_report_for_the_quintic_line(capsys):
    code, out, _ = run(capsys, 'beta', 'Sigma5/D_1_17/L1')
    assert code == 0
    assert 'A = 1 - 4 c' in out
    assert 'S = (13/15)(1 - 2c)' in out
    assert 'wall at c = 1/17' in out


def test_beta_report_for_the_weighted_blowdown(capsys):
    code, out, _ = run(capsys, 'beta', 'Xprime/D_13_41/E')
    assert code == 0
    assert 'A = 3 - 7 c' in out
    assert 'S = (32/15)(1 - 2c)' in out
    assert 'wall at c = 13/41' in out


def test_beta_on_the_plane_is_identically_zero(capsys):
    code, out, _ = run(capsys, 'beta', 'P2/sanity/line')
    assert code == 0
    assert 'beta = identically zero' in out
    assert 'every coefficient' in out


def test_beta_evaluated_at_the_wall_vanishes(capsys):
    code, report = run_json(capsys, 'beta', 'Xprime/D_13_41/E', '--c', '13/41')
    assert code == 0
    at = report['results']['at']
    assert at == {'c': '13/41', 'log_discrepancy': '32/41',
                  'expected_vanishing': '32/41', 'beta': '0', 'sign': 'zero'}


def test_beta_coefficient_outside_the_range_is_rejected(capsys):
    code, _, err = run(capsys, 'beta', 'Sigma5/D_1_17/L1', '--c', '3/4')
    assert code == 2
    assert 'outside' in err


PAIR_DOC = {'surface': 'sigma5',
            'boundary': [{'gen': 'line12', 'mult': '4'},
                         {'gen': 'line34', 'mult': '2'},
                         {'gen': 'exc1', 'mult': '2'},
                         {'gen': 'exc2', 'mult': '2'}]}


# X11/D_4_23/cusp-blowup's boundary with its cubic labelled by the name of
# the generator line-pq, and Xn/D_2_19/node's with one label on two classes
X11_SHADOW = {'surface': 'x11', 'boundary': [
    {'gen': 'tang-p', 'mult': '1'}, {'gen': 'tang-q', 'mult': '2'},
    {'label': 'line-pq', 'class': ['3', '-2', '0', '0', '0'], 'mult': '1'}]}
XN_TWICE = {'surface': 'xn', 'boundary': [
    {'gen': 'line12', 'mult': '2'}, {'gen': 'line34', 'mult': '1'},
    {'label': 'lfree', 'class': ['1', '0', '0', '0', '0'], 'mult': '1'},
    {'label': 'lfree', 'class': ['1', '0', '0', '-1', '0'], 'mult': '2'}]}


def test_beta_accepts_a_pair_file_with_a_named_valuation(tmp_path, capsys):
    pair = tmp_path / 'pair.json'
    pair.write_text(json.dumps(PAIR_DOC))
    code, report = run_json(capsys, 'beta', str(pair), 'line12')
    assert code == 0
    r = report['results']
    assert r['pair_file'] == str(pair)
    assert r['wall'] == '1/17'
    assert r['margin'] == {'const': '2/15', 'slope': '-34/15'}
    assert 'fixture' not in r and 'stored_wall' not in r


def test_beta_accepts_a_valuation_document(tmp_path, capsys):
    pair = tmp_path / 'pair.json'
    pair.write_text(json.dumps(PAIR_DOC))
    val = tmp_path / 'val.json'
    val.write_text(json.dumps({'kind': 'surface', 'name': 'line12'}))
    code, report = run_json(capsys, 'beta', str(pair), str(val))
    assert code == 0
    assert report['results']['wall'] == '1/17'


def test_beta_pair_file_usage_errors(tmp_path, capsys):
    pair = tmp_path / 'pair.json'
    pair.write_text(json.dumps(PAIR_DOC))
    # a pair file needs a valuation, a fixture id refuses one
    assert run(capsys, 'beta', str(pair))[0] == 2
    assert run(capsys, 'beta', 'P2/sanity/line', 'line12')[0] == 2
    bad = tmp_path / 'bad.json'
    bad.write_text(json.dumps({'surface': 'sigma5',
                               'boundary': [{'gen': 'line12'}]}))
    code, _, err = run(capsys, 'beta', str(bad), 'line12')
    assert code == 2
    assert "missing field 'mult'" in err
    notjson = tmp_path / 'notjson.json'
    notjson.write_text('nope')
    assert run(capsys, 'beta', str(notjson), 'line12')[0] == 2
    # json.loads refuses an integer literal beyond CPython's digit limit
    huge = tmp_path / 'huge.json'
    huge.write_text('{"surface": "sigma5", "boundary": [{"gen": "line12", "mult": %s}]}'
                    % ('1' * 5001))
    code, out, err = run(capsys, 'beta', str(huge), 'line12')
    assert (code, out) == (2, '')
    assert err.startswith(f'catalog error: pair file {huge} is not JSON: Exceeds the limit')


@pytest.mark.parametrize('unreadable', [False, True], ids=['not-utf-8', 'not-readable'])
@pytest.mark.parametrize('which', ['pair', 'val'])
def test_pair_and_valuation_files_that_cannot_be_read_are_usage_errors(
        which, unreadable, tmp_path, monkeypatch, capsys):
    '''a file that is not UTF-8 text, or that cannot be read, is refused
    under its own name; the read fails by a patched PermissionError, since a
    test run as root can read any file'''
    pair, val = tmp_path / 'pair.json', tmp_path / 'val.json'
    pair.write_text(json.dumps(PAIR_DOC))
    val.write_text(json.dumps({'kind': 'surface', 'name': 'line12'}))
    path = tmp_path / f'{which}.json'
    if unreadable:
        real = Path.read_bytes

        def read_bytes(self):
            if self == path:
                raise PermissionError(13, 'Permission denied', str(self))
            return real(self)

        monkeypatch.setattr(Path, 'read_bytes', read_bytes)
        message = 'is not readable: '
    else:
        path.write_bytes(b'\xff' + path.read_bytes())
        message = "is not JSON: 'utf-8' codec can't decode byte 0xff"
    noun = {'pair': 'pair file', 'val': 'valuation file'}[which]
    code, out, err = run(capsys, 'beta', str(pair), str(val))
    assert (code, out) == (2, '')
    assert err.startswith(f'catalog error: {noun} {path} {message}')


def test_beta_pair_file_naming_an_unknown_generator_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / 'pair.json'
    bad.write_text(json.dumps({'surface': 'sigma5',
                               'boundary': [{'gen': 'nosuch', 'mult': '2'}]}))
    code, out, err = run(capsys, 'beta', str(bad), 'exc1')
    assert code == 2
    assert out == ''
    assert err.startswith("catalog error: boundary part 0 is malformed: unknown generator "
                          "'nosuch' on sigma5; have ['exc1', ")


def test_a_generator_name_past_an_honest_label_names_the_generator(tmp_path, capsys):
    '''with X11_SHADOW's cubic labelled cusp-cubic, line-pq is the generator,
    which the boundary does not contain'''
    honest = copy.deepcopy(X11_SHADOW)
    honest['boundary'][2]['label'] = 'cusp-cubic'
    pair = tmp_path / 'pair.json'
    pair.write_text(json.dumps(honest))
    code, out, err = run(capsys, 'beta', str(pair), 'line-pq')
    assert (code, err) == (0, '')
    assert 'A = 1\n' in out and 'wall at c = 2/19\n' in out


def test_zero_denominators_are_usage_errors(capsys):
    for argv in (('beta', 'Sigma5/D_1_17/L1', '--c', '1/0'),
                 ('bounds', '--c', '1/0'),
                 ('bounds', '--degree', '1/0')):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ''), argv
        assert 'bad input: zero denominator' in err, argv


def test_exponent_notation_is_a_usage_error(capsys):
    for argv in (('bounds', '--c', '1e-1'), ('beta', 'Sigma5/D_1_17/L1', '--c', '1e3'),
                 ('bounds', '--degree', '1E1'), ('zariski', 'sigma5', '1e0,0,0,0,0')):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ''), argv
        assert "bad input: not a rational: '1" in err, argv


@pytest.mark.parametrize('argv, code, message', [
    (['zariski', 'sigma5', '-1,0,0,0,0'], 2, 'the following arguments are required: divisor'),
    (['zariski', 'sigma5', 'ac', '--ray', '-1,1,1,1,1'], 2, 'expected one argument'),
    (['bounds', '--degree', '-1/2'], 2, 'expected one argument'),
    (['zariski', 'sigma5', '--', '-1,0,0,0,0'], 3, 'not pseudo-effective: sigma5'),
    (['zariski', 'sigma5', 'ac', '--ray=-1,1,1,1,1'], 0, ''),
    (['bounds', '--degree=-1/2'], 2, 'degree -1/2 is not positive')])
def test_a_leading_minus_is_read_after_double_dash_or_equals(argv, code, message, capsys):
    '''argparse reads a leading -1,... as an option; after -- a positional,
    and in --opt=value an option value, is read as given'''
    got, _, err = run(capsys, *argv)
    assert got == code and message in err


def test_bounds_leaves_a_non_positive_degree_to_the_engine(capsys):
    for degree in ('0', '-1/2'):
        code, out, err = run(capsys, 'bounds', f'--degree={degree}')
        assert (code, out) == (2, '')
        assert err == f'configuration error: degree {degree} is not positive\n'


def test_catalog_without_a_section_is_a_usage_error(tmp_path, monkeypatch, capsys):
    for section in ('surfaces', 'fixtures', 'walls'):
        doc = json.loads(DATA_PATH.read_text())
        del doc[section]
        bad = tmp_path / f'no-{section}.json'
        bad.write_text(json.dumps(doc))
        monkeypatch.setenv('KWALL_CATALOG', str(bad))
        code, out, err = run(capsys, 'walls')
        assert (code, out) == (2, ''), section
        assert f"has no '{section}' section" in err


@pytest.mark.parametrize('text, message', [
    (b'{"surfaces": [', 'is not JSON: '),
    (b'\xff{}', "is not JSON: 'utf-8' codec can't decode byte 0xff"),
    (None, 'is not readable: '),
    (b'{"version": %s}' % (b'1' * 5001), 'is not JSON: Exceeds the limit (4300 digits)'),
], ids=['catalog-is-not-json', 'catalog-is-not-utf-8', 'catalog-is-missing',
        'catalog-version-exceeds-the-digit-limit'])
def test_unreadable_catalogs_are_usage_errors(text, message, tmp_path, monkeypatch, capsys):
    path = tmp_path / 'catalog.json'
    if text is not None:
        path.write_bytes(text)
    monkeypatch.setenv('KWALL_CATALOG', str(path))
    code, out, err = run(capsys, 'fixtures', 'list')
    assert (code, out) == (2, '')
    assert err.startswith(f'catalog error: catalog resource {path} {message}')


SHIPPED = json.loads(DATA_PATH.read_text())


def _edit(section, key, *value):
    '''catalog edit: give ``key`` of the first object of a section the
    value, or delete it when no value is given'''
    def edit(doc):
        if value:
            doc[section][0][key] = value[0]
        else:
            del doc[section][0][key]
    return edit


def _trust_is_a_number(doc):
    doc['fixtures'][0]['expected']['trust'] = 5


def _second_sigma5(doc):
    '''catalog edit: a second surface named sigma5, its generators reversed'''
    twin = copy.deepcopy(next(s for s in doc['surfaces'] if s['name'] == 'sigma5'))
    twin['mori'].reverse()
    doc['surfaces'].append(twin)


def _one_blowup_weight(doc):
    v = next(f['valuation'] for f in doc['fixtures']
             if f['valuation']['kind'] == 'blowup')
    v['center']['weights'] = [1]


def _display_weight_is_a_string(doc):
    d = next(f['display'] for f in doc['fixtures'] if f.get('display'))
    d['weights'][0] = str(d['weights'][0])


def _display(key, value):
    '''catalog edit: give a display field of X11/D_2_19/line-pq the value'''
    def edit(doc):
        next(f for f in doc['fixtures'] if f['id'] == 'X11/D_2_19/line-pq')['display'][key] = value
    return edit


def _extra_mori_name(name):
    '''catalog edit: rename the first extra curve of Xprime/D_13_41/E'''
    def edit(doc):
        f = next(f for f in doc['fixtures'] if f['id'] == 'Xprime/D_13_41/E')
        f['valuation']['center']['extra_mori'][0][0] = name
    return edit


def _stated_ord_b(fixture_id, value):
    '''catalog edit: state another ord_b for a blow-up fixture'''
    def edit(doc):
        next(f for f in doc['fixtures'] if f['id'] == fixture_id)['valuation']['ord_b'] = value
    return edit


def _relabel(fixture_id, old, new):
    '''catalog edit: rename a fixture's boundary label'''
    def edit(doc):
        f = next(f for f in doc['fixtures'] if f['id'] == fixture_id)
        next(p for p in f['boundary'] if p.get('label') == old)['label'] = new
    return edit


def _first_part(extra):
    '''catalog edit: add the extra keys to the first boundary part of
    fixture 0, a gen part'''
    def edit(doc):
        doc['fixtures'][0]['boundary'][0].update(extra)
    return edit


def _mixed_pair(extra):
    '''PAIR_DOC with the extra keys added to its first part, a gen part'''
    doc = copy.deepcopy(PAIR_DOC)
    doc['boundary'][0].update(extra)
    return doc


def _blowup(**center):
    '''the pair PAIR_DOC and a blow-up valuation with the given center'''
    return PAIR_DOC, {'kind': 'blowup', 'center': center}


# with an edit, the command to run is ``fixtures list`` unless given; with
# no edit, ``kwall beta`` reads the pair and valuation documents given
@pytest.mark.parametrize('edit, inputs, message', [
    (_edit('fixtures', 'expected'), None,
     "catalog error: fixture 0 is missing field 'expected'"),
    (_edit('walls', 'value'), None, "catalog error: wall 0 is missing field 'value'"),
    (lambda doc: doc['fixtures'].__setitem__(0, [1]), None,
     'catalog error: fixture 0 is malformed'),
    (None, ({'surface': 'sigma5', 'boundary': 'xx'}, 'exc1'),
     'catalog error: boundary part 0 is malformed'),
    (None, ({'surface': 'sigma5', 'boundary': [5]}, 'exc1'),
     'catalog error: boundary part 0 is malformed'),
    (_edit('fixtures', 'expected', 'xx'), None, 'catalog error: fixture 0 is malformed'),
    (_edit('fixtures', 'valuation', 2), None, 'catalog error: fixture 0 is malformed'),
    (_edit('fixtures', 'display', True), None, 'catalog error: fixture 0 is malformed'),
    (_edit('surfaces', 'k_discrepancies', 2), None,
     "catalog error: surface 0 is malformed: 'int' object has no attribute 'items'"),
    (_edit('fixtures', 'id', [1]), None,
     'catalog error: fixture 0 is malformed: fixture id [1] is not a string'),
    (_edit('surfaces', 'gram', ''), None,
     'catalog error: surface 0 is malformed: gram matrix is not 1 x 1'),
    (_one_blowup_weight, None, 'configuration error: fixture 4: weights [1] are not two integers'),
    (None, (PAIR_DOC, {'kind': 'blowup', 'center': 5}),
     'catalog error: valuation document is malformed'),
    (lambda doc: doc.__setitem__('version', [1]), None,
     'catalog error: catalog version [1] is not an integer'),
    (_edit('fixtures', 'notes', 'abc'), None,
     "catalog error: fixture 0 is malformed: 'notes' is not a list of strings"),
    (_edit('fixtures', 'notes', ['a', 1]), None,
     "catalog error: fixture 0 is malformed: 'notes' is not a list of strings"),
    (_edit('walls', 'families', 'Xn'), None,
     "catalog error: wall 0 is malformed: 'families' is not a list of strings"),
    (_trust_is_a_number, None, 'catalog error: fixture 0 is malformed: trust 5 is not a string'),
    (lambda doc: doc['fixtures'][0]['expected'].__setitem__('trust', 'gold'), None,
     "catalog error: fixture 0 is malformed: unknown trust 'gold'\n"),
    (_second_sigma5, ('walls', '--diff'), "catalog error: duplicate surface name 'sigma5'\n"),
    (lambda doc: doc['surfaces'][3].__setitem__('name', 'sigma5'), None,
     "catalog error: duplicate surface name 'sigma5'\n"),
    (_edit('walls', 'description', ['x']), None,
     "catalog error: wall 0 is malformed: description ['x'] is not a string"),
    (_edit('fixtures', 'surface'), None, "catalog error: fixture 0 is missing field 'surface'"),
    (_edit('fixtures', 'surface', 'nowhere'), None,
     "catalog error: fixture 0 is malformed: unknown surface 'nowhere'\n"),
    (lambda doc: doc['walls'][0].__setitem__('value', '1e3'), None,
     "catalog error: wall 0 is malformed: not a rational: '1e3'"),
    (lambda doc: doc['fixtures'][0]['boundary'][0].__setitem__('mult', '1e3'), None,
     "catalog error: fixture 0: boundary part 0 is malformed: not a rational: '1e3'\n"),
    (lambda doc: doc['surfaces'][0]['gram'][0].__setitem__(0, '1e3'), None,
     "catalog error: surface 0 is malformed: not a rational: '1e3'"),
    (None, ({'surface': 'sigma5', 'boundary': [{'gen': 'line12', 'mult': '4e0'}]}, 'exc1'),
     "catalog error: boundary part 0 is malformed: not a rational: '4e0'"),
    (lambda doc: doc['fixtures'][0]['boundary'][0].__setitem__('mult', '1' * 5001), None,
     "catalog error: fixture 0: boundary part 0 is malformed: '11111111111111111111'... "
     "exceeds CPython's "
     'integer digit limit (4300 digits)\n'),
    (lambda doc: doc['surfaces'][3].pop('canonical'), None,
     "catalog error: surface 3 is missing field 'canonical'\n"),
    (lambda doc: doc['surfaces'][3].pop('name'), None,
     "catalog error: surface 3 is missing field 'name'\n"),
    (None, _blowup(weights=[1.9, 1]),
     'configuration error: valuation document: weights [1.9, 1] are not two integers\n'),
    (None, _blowup(weights=['1', '1']),
     "configuration error: valuation document: weights ['1', '1'] are not two integers\n"),
    (None, _blowup(weights=[True, 1]),
     'configuration error: valuation document: weights [True, 1] are not two integers\n'),
    (None, _blowup(exc_name=5),
     'catalog error: valuation document is malformed: exceptional divisor name 5 is not a string'),
    (_display_weight_is_a_string, None,
     "catalog error: fixture 3 is malformed: 'weights' is not a list of integers"),
    (_edit('surfaces', 'basis', [0]), ('surface', 'show', 'p2'),
     'catalog error: surface 0 is malformed: basis entry 0 is not a string'),
    (lambda doc: doc['surfaces'][0]['mori'][0].__setitem__('name', 1), ('surface', 'show', 'p2'),
     'catalog error: surface 0 is malformed: generator name 1 is not a string'),
    (_extra_mori_name(7), ('profile', 'Xprime/D_13_41/E'),
     'catalog error: fixture 39 is malformed: extra generator name 7 is not a string'),
    (None, (PAIR_DOC, {'kind': 'class', 'name': 5, 'class': [1, 0, 0, 0, 0],
                       'a_x': '1', 'ord_b': '0'}),
     'catalog error: valuation document is malformed: valuation name 5 is not a string'),
    (_extra_mori_name('line12'), ('profile', 'Xprime/D_13_41/E'),
     "configuration error: fixture 39: generator name 'line12' is used twice on the "
     'extension\n'),
    (_extra_mori_name('e'), ('profile', 'Xprime/D_13_41/E'),
     "configuration error: fixture 39: generator name 'e' is used twice on the extension\n"),
    (lambda doc: doc['fixtures'][2]['boundary'][2].__setitem__('label', 5), None,
     'catalog error: fixture 2: boundary part 2 is malformed: boundary label 5 is not a '
     'string\n'),
    (lambda doc: doc['fixtures'][2]['boundary'][0].__setitem__('gen', 'ghost'), None,
     "catalog error: fixture 2: boundary part 0 is malformed: unknown generator 'ghost' on xn; "
     "have ['exc1', "),
    (None, ({'surface': 'sigma5', 'boundary': [
        {'label': 5, 'class': [1, 0, 0, 0, 0], 'mult': '1'}]}, 'exc1'),
     'catalog error: boundary part 0 is malformed: boundary label 5 is not a string'),
    (lambda doc: doc['fixtures'][2]['boundary'][0].__setitem__('mult', '-1'), None,
     'configuration error: fixture 2: xn: component line12 has negative multiplicity -1; '
     'boundary class ('),
    (_stated_ord_b('X12/D_7_29/head-junction', '1'), ('beta', 'X12/D_7_29/head-junction'),
     'configuration error: fixture 11: stated ord_b 1 is below 2, the order of the boundary '
     'curves with centre data\n'),
    (_stated_ord_b('Xprime/D_13_41/E', '8'), ('beta', 'Xprime/D_13_41/E'),
     'configuration error: fixture Xprime/D_13_41/E: valuation E: ord_b 8 is above 7, the '
     'anticanonical factor 2 times the threshold 7/2 of its ray'),
    (lambda doc: doc['fixtures'][1].__setitem__('id', doc['fixtures'][0]['id']), None,
     "catalog error: duplicate fixture id 'Sigma5/D_1_17/L1'"),
    (lambda doc: doc['walls'].reverse(), None, 'catalog error: wall table is not sorted'),
    (lambda doc: doc['walls'][3].__setitem__('kind', 'ridge'), None,
     "catalog error: wall 3 is malformed: unknown wall kind 'ridge'"),
    (_display('beta', 5), ('beta', 'X11/D_2_19/line-pq'),
     'catalog error: fixture 3 is malformed: display beta 5 is not a string\n'),
    (_display('curve', [1]), None,
     'catalog error: fixture 3 is malformed: display curve [1] is not a string\n'),
    (None, (PAIR_DOC, {'kind': 'blowup', 'center': {}, 'a_x': '2'}),
     "catalog error: valuation document is malformed: a blow-up derives 'a_x' from its "
     'centre; remove the key\n'),
    (None, _blowup(exc_nme='w'),
     "catalog error: valuation document is malformed: unknown centre key 'exc_nme'\n"),
    (None, (PAIR_DOC, {'kind': 'blowup', 'center': 'ab'}),
     "catalog error: valuation document is malformed: centre 'ab' is not an object\n"),
    (None, ([], 'exc1'), 'catalog error: pair document must be a json object'),
    (_first_part({'class': [0, 0, 0, 0, 1]}), None,
     "catalog error: fixture 0: boundary part 0 is malformed: keys ['class', 'gen', 'mult'] "
     'are not gen+mult, class+mult or class+label+mult\n'),
    (None, (_mixed_pair({'class': [0, 0, 0, 0, 1]}), 'exc1'),
     "catalog error: boundary part 0 is malformed: keys ['class', 'gen', 'mult'] are not "
     'gen+mult, class+mult or class+label+mult\n'),
    (_first_part({'label': 'quad'}), None,
     "catalog error: fixture 0: boundary part 0 is malformed: keys ['gen', 'label', 'mult'] "
     'are not gen+mult, class+mult or class+label+mult\n'),
    (None, (_mixed_pair({'label': 'quad'}), 'quad'),
     "catalog error: boundary part 0 is malformed: keys ['gen', 'label', 'mult'] are not "
     'gen+mult, class+mult or class+label+mult\n'),
    (_relabel('X11/D_4_23/cusp-blowup', 'cusp-cubic', 'line-pq'), None,
     "configuration error: fixture 5: x11: label 'line-pq' names two classes\n"),
    (_relabel('Xn/D_2_19/node', 'l3gen', 'lfree'), None,
     "configuration error: fixture 2: xn: label 'lfree' names two classes\n"),
    (None, (X11_SHADOW, 'line-pq'), "configuration error: x11: label 'line-pq' names two classes\n"),
    (None, (XN_TWICE, 'lfree'), "configuration error: xn: label 'lfree' names two classes\n"),
    (None, (PAIR_DOC, []), 'catalog error: valuation document must be a json object'),
    (None, (PAIR_DOC, {'kind': 'class', 'name': 'v', 'class': [1, 0, 0, 0, 0],
                       'a_x': '1', 'ord_b': '-1'}),
     'configuration error: valuation document: v: boundary order -1 < 0\n'),
    # a name too long for the file system to stat is a generator name, not a file
    (None, (PAIR_DOC, 'x' * 256),
     f"configuration error: valuation document: sigma5: '{'x' * 256}' is neither a "
     'generator nor a boundary component label\n'),
], ids=['fixture-without-expected', 'wall-without-value', 'fixture-is-a-list',
        'boundary-is-a-string', 'boundary-part-is-a-number',
        'expected-is-a-string', 'valuation-is-a-number', 'display-is-a-boolean',
        'k-discrepancies-is-a-number', 'fixture-id-is-a-list', 'gram-is-empty',
        'one-blowup-weight', 'blowup-center-is-a-number', 'version-is-a-list',
        'notes-is-a-string', 'notes-holds-a-number', 'families-is-a-string',
        'trust-is-a-number', 'trust-is-unknown', 'surface-name-repeats-with-other-generators',
        'surface-name-repeats', 'description-is-a-list', 'fixture-without-surface',
        'fixture-names-an-unknown-surface',
        'wall-value-has-an-exponent', 'multiplicity-has-an-exponent',
        'gram-entry-has-an-exponent', 'pair-multiplicity-has-an-exponent',
        'multiplicity-exceeds-the-digit-limit', 'surface-without-canonical',
        'surface-without-name',
        'blowup-weight-is-a-float', 'blowup-weights-are-strings', 'blowup-weight-is-a-boolean',
        'blowup-exc-name-is-a-number', 'display-weight-is-a-string', 'basis-holds-a-number',
        'generator-name-is-a-number', 'extra-mori-name-is-a-number',
        'valuation-name-is-a-number', 'extra-mori-name-repeats-a-generator',
        'extra-mori-name-repeats-the-exceptional-name', 'boundary-label-is-a-number',
        'boundary-gen-is-unknown', 'pair-boundary-label-is-a-number',
        'boundary-multiplicity-is-negative', 'stated-ord-b-is-below-the-centre-data',
        'stated-ord-b-is-above-k-tau', 'fixture-id-repeats', 'walls-are-unsorted',
        'wall-kind-is-unknown', 'display-beta-is-a-number', 'display-curve-is-a-list',
        'blowup-states-a-x', 'blowup-center-has-an-unknown-key', 'blowup-center-is-a-string',
        'pair-document-is-a-list', 'boundary-gen-part-has-a-class',
        'pair-gen-part-has-a-class', 'boundary-gen-part-has-a-label',
        'pair-gen-part-has-a-label', 'boundary-label-is-a-generator-name',
        'boundary-label-names-two-classes', 'pair-label-is-a-generator-name',
        'pair-label-names-two-classes', 'valuation-document-is-a-list',
        'stated-ord-b-is-negative', 'valuation-name-is-too-long-for-a-file'])
def test_malformed_entries_are_usage_errors(edit, inputs, message, tmp_path,
                                            monkeypatch, capsys):
    if edit is not None:
        doc = json.loads(json.dumps(SHIPPED))
        edit(doc)
        bad = tmp_path / 'catalog.json'
        bad.write_text(json.dumps(doc))
        monkeypatch.setenv('KWALL_CATALOG', str(bad))
        argv = inputs or ('fixtures', 'list')
    else:
        pair_doc, valuation = inputs
        bad = tmp_path / 'pair.json'
        bad.write_text(json.dumps(pair_doc))
        if not isinstance(valuation, str):
            (tmp_path / 'val.json').write_text(json.dumps(valuation))
            valuation = str(tmp_path / 'val.json')
        argv = ('beta', str(bad), valuation)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, '')
    assert message in err


# JSON values of every type; a replacement is drawn with a type other than
# the value it replaces
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2))


@st.composite
def catalog_edits(draw):
    '''(section, index, key, values): delete one key of one surface, fixture
    or wall object (no values), or give it a value of another JSON type'''
    section = draw(st.sampled_from(('surfaces', 'fixtures', 'walls')))
    i = draw(st.integers(0, len(SHIPPED[section]) - 1))
    key = draw(st.sampled_from(sorted(SHIPPED[section][i])))
    old = type(SHIPPED[section][i][key])
    values = draw(st.just(()) | JSON_VALUES.filter(lambda v: type(v) is not old).map(
        lambda v: (v,)))
    return section, i, key, values


@settings(max_examples=50, deadline=None)
@given(edit=catalog_edits())
def test_malformed_catalogs_keep_the_exit_code_contract(edit):
    section, i, key, values = edit
    doc = json.loads(json.dumps(SHIPPED))
    if values:
        doc[section][i][key] = values[0]
    else:
        del doc[section][i][key]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / 'catalog.json'
        path.write_text(json.dumps(doc))
        mp.setenv('KWALL_CATALOG', str(path))
        # the first surface as the edited catalog names it, if it does
        first = str(doc['surfaces'][0].get('name'))
        for argv in (['fixtures', 'list'], ['surface', 'show', first]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4)
            assert 'Traceback' not in err.getvalue()
            if code == 0:
                assert out.getvalue().count(f'# kwall {" ".join(argv)}\n') == 1
                assert out.getvalue().endswith('status: ok\n')


# the fixtures whose valuation blows up a point, and the names a blow-up may
# collide with: the surface's generator and basis names, and e
BLOWUP_FIXTURES = [i for i, f in enumerate(SHIPPED['fixtures'])
                   if f['valuation']['kind'] == 'blowup']
SURFACE_NAMES = {s['name']: [*[g['name'] for g in s['mori']], *s['basis'], 'e']
                 for s in SHIPPED['surfaces']}


XPRIME = next(i for i, f in enumerate(SHIPPED['fixtures']) if f['id'] == 'Xprime/D_13_41/E')


@st.composite
def blowup_edits(draw):
    '''(fixture, field, entry, value): give the name of one blow-up
    valuation, its center's exc_name or extra_mori list, or one extra_mori
    entry or entry name, a JSON value of any type or a name already in use'''
    i = draw(st.sampled_from(BLOWUP_FIXTURES))
    field = draw(st.sampled_from(['name', 'exc_name', 'extra_mori', 'entry', 'entry name']))
    value = draw(JSON_VALUES | st.sampled_from(SURFACE_NAMES[SHIPPED['fixtures'][i]['surface']]))
    return i, field, draw(st.integers(0, 2)), value


@settings(max_examples=50, deadline=None)
@given(edit=blowup_edits())
# the extra curve l1-strict joins the support of the profile's last chamber
@example(edit=(XPRIME, 'entry name', 0, 7))
@example(edit=(XPRIME, 'entry name', 0, 'line12'))
@example(edit=(XPRIME, 'name', 0, 5))
def test_malformed_blowup_valuations_keep_the_exit_code_contract(edit):
    '''``fixtures list`` and ``kwall profile`` of the edited fixture exit
    0, 2, 3 or 4, and never with a traceback'''
    i, field, j, value = edit
    doc = copy.deepcopy(SHIPPED)
    f = doc['fixtures'][i]
    v, center = f['valuation'], f['valuation']['center']
    if field == 'name':
        v['name'] = value
    elif field in ('exc_name', 'extra_mori'):
        center[field] = value
    else:
        extra = center.setdefault('extra_mori', [])
        if not extra:
            rank = len(next(s for s in doc['surfaces'] if s['name'] == f['surface'])['basis'])
            extra.append(['x', ['0'] * rank + ['1']])
        if field == 'entry':
            extra[j % len(extra)] = value
        else:
            extra[j % len(extra)][0] = value
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / 'catalog.json'
        path.write_text(json.dumps(doc))
        mp.setenv('KWALL_CATALOG', str(path))
        for argv in (['fixtures', 'list'], ['profile', f['id']]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4)
            assert 'Traceback' not in err.getvalue()
            if code == 0:
                assert out.getvalue().count(f'# kwall {" ".join(argv)}\n') == 1
                assert out.getvalue().endswith('status: ok\n')


# the pair and valuation documents of every fixture, as `kwall beta` reads
# them from files
BETA_DOCUMENTS = [({'surface': f['surface'], 'boundary': f.get('boundary', [])},
                   f['valuation']) for f in SHIPPED['fixtures']]


def _slots(node, path=()):
    '''(path, key) of every value inside a JSON document'''
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield path, key
        yield from _slots(value, (*path, key))


@st.composite
def beta_documents(draw):
    '''a fixture's pair and valuation documents with one value of one of
    them deleted, given another JSON type, or replaced by a number with an
    exponent or a zero denominator; the valuation may instead be named'''
    pair_doc, val_doc = copy.deepcopy(draw(st.sampled_from(BETA_DOCUMENTS)))
    doc = draw(st.sampled_from([pair_doc, val_doc]))
    path, key = draw(st.sampled_from(list(_slots(doc))))
    parent = doc
    for k in path:
        parent = parent[k]
    action = draw(st.sampled_from(['delete', 'retype', 'exponent', 'zero-denominator']))
    if action == 'delete':
        del parent[key]
    elif action == 'retype':
        old = type(parent[key])
        parent[key] = draw(JSON_VALUES.filter(lambda v: type(v) is not old))
    else:
        parent[key] = '1e3' if action == 'exponent' else '1/0'
    named = draw(st.one_of(st.none(), ANY_GENERATOR, JUNK))
    return pair_doc, val_doc if named is None else named


@settings(max_examples=150, deadline=None)
@given(docs=beta_documents())
def test_fuzzed_pair_and_valuation_documents_keep_the_exit_code_contract(docs):
    pair_doc, valuation = docs
    with tempfile.TemporaryDirectory() as tmp:
        pair_path = Path(tmp) / 'pair.json'
        pair_path.write_text(json.dumps(pair_doc))
        if isinstance(valuation, dict):
            (Path(tmp) / 'valuation.json').write_text(json.dumps(valuation))
            valuation = str(Path(tmp) / 'valuation.json')
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(['beta', str(pair_path), valuation])
    assert code in (0, 2, 3, 4)
    assert 'Traceback' not in err.getvalue()
    if code in (0, 4):
        lines = out.getvalue().split('\n')
        assert sum(ln.startswith('# kwall beta') for ln in lines) == 1
        status = 'ok' if code == 0 else 'mismatch'
        assert [ln for ln in lines if ln.startswith('status: ')] == [f'status: {status}']


def test_beta_reports_the_margin_coefficients(capsys):
    code, report = run_json(capsys, 'beta', 'Xprime/D_13_41/E')
    assert code == 0
    assert report['results']['margin'] == {'const': '13/15', 'slope': '-41/15'}


def test_unknown_fixture_id_lists_the_catalog(capsys):
    code, _, err = run(capsys, 'beta', 'Nope/missing')
    assert code == 2
    assert 'available' in err and 'Sigma5/D_1_17/L1' in err


def test_walls_diff_matches_the_stored_table(capsys):
    code, out, _ = run(capsys, 'walls', '--diff')
    assert code == 0
    assert '24 distinct walls from 45 fixtures' in out
    assert 'diff against stored table: 24/24 walls matched' in out
    assert 'divisorial: 1/17, 11/52, 1/4' in out


def test_walls_family_filter_keeps_the_cone_chambers(capsys):
    code, out, _ = run(capsys, 'walls', '--family', 'Xq', '--diff')
    assert code == 0
    assert '8 distinct walls from 9 fixtures' in out
    assert 'diff against stored table: 8/8 walls matched' in out


def test_walls_unknown_family_is_a_usage_error(capsys):
    assert run(capsys, 'walls', '--family', 'Zz')[0] == 2


@pytest.mark.parametrize('argv, lines', [
    (['walls', '--diff'], ['- Sigma5/D_1_17/L1: computed 1/17, stored 1/16',
                           'missing from run: 1/16', 'not in stored table: 1/17',
                           'status: mismatch']),
    (['walls'], ['- Sigma5/D_1_17/L1: computed 1/17, stored 1/16', 'status: mismatch']),
    (['--json', 'walls', '--diff'], ['  "status": "mismatch"']),
    (['beta', 'Sigma5/D_1_17/L1'], ['stored wall 1/16 disagrees with the recomputation',
                                    'status: mismatch']),
], ids=['walls-diff', 'walls', 'json-walls-diff', 'beta'])
def test_walls_against_a_perturbed_catalog_exits_four(argv, lines, tmp_path,
                                                      monkeypatch, capsys):
    doc = json.loads(DATA_PATH.read_text())
    for f in doc['fixtures']:
        if f['id'] == 'Sigma5/D_1_17/L1':
            f['expected']['wall'] = '1/16'
    for w in doc['walls']:
        if w['value'] == '1/17':
            w['value'] = '1/16'
    bad = tmp_path / 'catalog.json'
    bad.write_text(json.dumps(doc))
    monkeypatch.setenv('KWALL_CATALOG', str(bad))
    code, out, _ = run(capsys, *argv)
    assert code == 4
    for line in lines:
        assert line in out.split('\n')


@pytest.mark.parametrize('argv', [('walls',), ('walls', '--diff'), ('beta', 'Sigma5/D_1_17/L1'),
                                  ('profile', 'Sigma5/D_1_17/L1')])
@pytest.mark.parametrize('direction, code, message', [
    (lambda ac: [0] * len(ac), 2, 'configuration error: fixture Sigma5/D_1_17/L1: '
                                  'sigma5: zero profile direction'),
    (lambda ac: [-x for x in ac], 3, 'engine failure: fixture Sigma5/D_1_17/L1: '
                                     'sigma5: volume never vanishes along the ray'),
], ids=['zero-direction', 'growing-volume'])
def test_a_refused_fixture_walk_names_the_fixture(argv, direction, code, message,
                                                  tmp_path, monkeypatch, capsys):
    '''a fixture whose valuation ray the walk refuses: the refusal keeps its
    exit code and names the fixture as well as the surface'''
    doc = json.loads(DATA_PATH.read_text())
    f = next(f for f in doc['fixtures'] if f['id'] == 'Sigma5/D_1_17/L1')
    ac = load_catalog().surface(f['surface']).anticanonical_pullback.coords
    f['valuation'] = {'kind': 'class', 'name': 'ray', 'class': [str(x) for x in direction(ac)],
                      'a_x': '1', 'ord_b': '0'}
    bad = tmp_path / 'catalog.json'
    bad.write_text(json.dumps(doc))
    monkeypatch.setenv('KWALL_CATALOG', str(bad))
    assert run(capsys, *argv) == (code, '', message + '\n')


def test_beta_of_a_fixture_walks_its_ray_once(monkeypatch, capsys):
    '''the report derives beta = A - S from the two invariants it holds:
    one S-invariant and one walk, on a freshly decoded catalog, so nothing
    is left over from earlier walks'''
    calls, walks = [], []
    real_s, real_walk = kwall.stability.s_invariant, kwall.stability.volume_profile
    counting_s = lambda *args: calls.append(args) or real_s(*args)
    monkeypatch.setattr(kwall.stability, 's_invariant', counting_s)
    monkeypatch.setattr(kwall.cli, 's_invariant', counting_s)
    monkeypatch.setattr(kwall.stability, 'volume_profile',
                        lambda *args: walks.append(args) or real_walk(*args))
    kwall.catalog._load_resolved.cache_clear()
    code, out, _ = run(capsys, 'beta', 'X12/D_4_23/exc-a1')
    assert code == 0 and 'status: ok' in out
    assert len(calls) == len(walks) == 1


def test_reports_are_identical_across_repeated_runs(capsys):
    first = run(capsys, '--json', 'walls', '--diff')
    second = run(capsys, '--json', 'walls', '--diff')
    third = run(capsys, '--json', 'walls', '--diff')
    assert first == second == third
    assert first[0] == 0


def test_bounds_small_coefficient_forces_smooth(capsys):
    code, out, _ = run(capsys, 'bounds', '--c', '1/100')
    assert code == 0
    assert 'largest local quotient order: 4500/2401' in out
    assert 'forces smooth' in out


def test_bounds_moderate_coefficient_allows_a1(capsys):
    code, out, _ = run(capsys, 'bounds', '--c', '6/100')
    assert code == 0
    assert 'at most A1' in out


def test_bounds_runs_the_index_test(capsys):
    code, out, _ = run(capsys, 'bounds', '--c', '1/10',
                       '--d', '1', '--n', '3', '--ord', '0')
    assert code == 0
    assert 'index test d=1 n=3 ord>=0: excluded' in out
    # partial index data is a usage error
    assert run(capsys, 'bounds', '--c', '1/10', '--d', '1')[0] == 2


def test_bounds_reports_the_vgit_slope_late_in_the_range(capsys):
    code, out, _ = run(capsys, 'bounds', '--c', '1/4')
    assert code == 0
    assert 'vgit slope: 5/2' in out
    assert 'vgit' not in run(capsys, 'bounds', '--c', '1/5')[1]


def test_bounds_rejects_coefficients_outside_the_open_interval(capsys):
    assert run(capsys, 'bounds', '--c', '1/2')[0] == 2
    assert run(capsys, 'bounds', '--c', '0')[0] == 2


@settings(max_examples=60, deadline=None)
@given(c=st.fractions(min_value=-1, max_value=1, max_denominator=50))
@example(c=Fraction(0))
@example(c=Fraction(1, 2))
@example(c=Fraction(1, 4))
@example(c=Fraction(13, 41))
@example(c=Fraction(-1, 7))
@example(c=Fraction(3, 4))
def test_every_entry_point_takes_the_open_coefficient_range(c):
    '''beta --c, bounds --c, polystability_check and index_feasibility take
    exactly 0 < c < 1/2 and refuse any other c with one line; the vgit
    slope is defined on exactly [1/4, 1/2)'''
    inside = 0 < c < Fraction(1, 2)
    refusal = f'coefficient {c} outside the admissible range (0, 1/2)'
    for argv in (['beta', 'Sigma5/D_1_17/L1', f'--c={c}'], ['bounds', f'--c={c}']):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if inside:
            assert (code, err.getvalue()) == (0, '')
        else:
            assert (code, err.getvalue()) == (2, f'configuration error: {refusal}\n')
    assert ('vgit slope' in out.getvalue()) == (inside and c >= Fraction(1, 4))
    f = load_catalog().fixture('Xn/D_1_17/E')
    for check in (lambda: kwall.stability.polystability_check(f.pair, f.equivariant, c),
                  lambda: kwall.stability.index_feasibility(1, 1, c, 0)):
        if inside:
            check()
        else:
            with pytest.raises(kwall.surface.ConfigurationError) as refused:
                check()
            assert str(refused.value) == refusal
    if Fraction(1, 4) <= c < Fraction(1, 2):
        assert kwall.stability.vgit_slope(c) > 0
    else:
        with pytest.raises(kwall.surface.ConfigurationError):
            kwall.stability.vgit_slope(c)


def test_bounds_accepts_an_explicit_degree(capsys):
    code, out, _ = run(capsys, 'bounds', '--degree', '2')
    assert code == 0
    assert 'largest local quotient order: 9/2' in out
    # exactly one of --c and --degree, and the index test needs --c
    assert run(capsys, 'bounds', '--degree', '2', '--c', '1/10')[0] == 2
    assert run(capsys, 'bounds')[0] == 2
    assert run(capsys, 'bounds', '--degree', '2',
               '--d', '1', '--n', '3', '--ord', '0')[0] == 2


def test_fixture_listing_counts_and_filters(capsys):
    code, out, _ = run(capsys, 'fixtures', 'list')
    assert code == 0
    assert '45 fixtures' in out
    code, report = run_json(capsys, 'fixtures', 'list', '--family', 'Xt')
    assert code == 0
    assert report['results']['count'] == 7


def test_surface_show_prints_the_cone_table(capsys):
    code, out, _ = run(capsys, 'surface', 'show', 'sigma5')
    assert code == 0
    assert 'degree 5' in out
    assert '| line34 | (1, 0, 0, -1, -1) | -1 | -1 |' in out
    assert 'contracted: none' in out
    code, out, _ = run(capsys, 'surface', 'show', 'xq')
    assert code == 0
    assert 'axis (discrepancy -1/2)' in out


def test_profile_command_reports_the_displayed_pieces(capsys):
    code, out, _ = run(capsys, 'profile', 'Xprime/D_13_41/E')
    assert code == 0
    assert 'tau = 7/2' in out
    assert 'integral over [0, tau]: 32/3' in out
    assert 'expected vanishing order at c = 0: 32/15' in out


def test_json_report_carries_the_catalog_digest(capsys):
    code, report = run_json(capsys, 'surface', 'show', 'p2')
    assert code == 0
    assert set(report) == {'command', 'inputs', 'results', 'status'}
    assert report['command'][0] == 'kwall'
    assert report['inputs']['catalog'].endswith('catalog.json')
    assert len(report['inputs']['sha256']) == 64
    assert report['status'] == 'ok'


def _cold_process(*args, cwd=None):
    '''a fresh python process that imports this kwall, with these arguments'''
    src = str(Path(kwall.cli.__file__).parents[1])
    env = {**os.environ,
           'PYTHONPATH': os.pathsep.join(filter(None, [src, os.environ.get('PYTHONPATH')]))}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize('argv, code', [
    (['fixtures', 'list'], 0), (['walls', '--diff', '--json'], 0),
    (['zariski', 'xprime_deg', 'l3'], 3), (['beta', 'nosuch'], 2)])
def test_a_cold_process_prints_what_main_prints(argv, code, monkeypatch, capsys):
    '''python -m kwall.cli, the process entry, against main() in process'''
    monkeypatch.delenv('KWALL_CATALOG', raising=False)
    proc = _cold_process('-m', 'kwall.cli', *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == code


@pytest.mark.parametrize('flags', [[], ['--json']])
def test_a_relative_catalog_is_named_by_its_resolved_path(flags, monkeypatch):
    '''KWALL_CATALOG relative to the working directory: the report names the
    absolute path of the file whose bytes its sha256 line digests'''
    here = Path(kwall.cli.__file__).parent
    monkeypatch.setenv('KWALL_CATALOG', 'data/catalog.json')
    proc = _cold_process('-m', 'kwall.cli', 'fixtures', 'list', *flags, cwd=here)
    assert proc.returncode == 0
    inputs = {'catalog': str((here / 'data' / 'catalog.json').resolve()),
              'sha256': hashlib.sha256(DATA_PATH.read_bytes()).hexdigest()}
    if flags:
        assert json.loads(proc.stdout)['inputs'] == inputs
    else:
        assert proc.stdout.splitlines()[2:4] == [
            f'catalog: {inputs["catalog"]}', f'sha256: {inputs["sha256"]}']


def test_documents_are_read_as_utf_8_whatever_the_locale(tmp_path, monkeypatch, capsys):
    '''no read of a catalog, pair or valuation file falls back on the
    locale's encoding, which EncodingWarning reports'''
    monkeypatch.delenv('KWALL_CATALOG', raising=False)
    pair, val = tmp_path / 'pair.json', tmp_path / 'val.json'
    pair.write_text(json.dumps(PAIR_DOC))
    val.write_text(json.dumps({'kind': 'surface', 'name': 'line12'}))
    for argv in (['fixtures', 'list'], ['beta', str(pair), str(val)]):
        proc = _cold_process('-X', 'warn_default_encoding', '-W', 'error::EncodingWarning',
                             '-m', 'kwall.cli', *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
        assert proc.returncode == 0


# a cold kwall command with the built-in _sha256 hidden, as on CPython 3.12
# and later, which renamed it _sha2; where there is no _sha2, a stand-in
# holds _sha256's function.  Importing kwall.catalog must not load OpenSSL
SHA2_ONLY = """
import sys, types
try:
    import _sha2
except ImportError:
    import _sha256
    sys.modules['_sha2'] = types.SimpleNamespace(sha256=_sha256.sha256)
sys.modules['_sha256'] = None
import kwall.catalog
assert '_hashlib' not in sys.modules, 'kwall.catalog loaded _hashlib'
import runpy
sys.argv = ['kwall', 'fixtures', 'list']
runpy.run_module('kwall.cli', run_name='__main__')
"""


def test_the_sha2_digest_prints_what_main_prints(monkeypatch, capsys):
    '''without the built-in _sha256 the catalog digest comes from _sha2,
    never from hashlib, and prints what main prints'''
    monkeypatch.delenv('KWALL_CATALOG', raising=False)
    proc = _cold_process('-c', SHA2_ONLY)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, 'fixtures', 'list')


# a cold kwall command under an audit hook that counts the opens of the
# shipped catalog; the count goes to stderr after the command's own output
COUNT_OPENS = """
import os, sys
from kwall.catalog import DATA_PATH
from kwall.cli import main
opens = []
sys.addaudithook(lambda event, args: event == 'open' and isinstance(args[0], (str, os.PathLike))
                 and os.fspath(args[0]) == str(DATA_PATH) and opens.append(args[0]))
code = main(sys.argv[1:])
print('opens', len(opens), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize('argv', [['fixtures', 'list'], ['beta', 'Sigma5/D_1_17/L1'],
                                  ['bounds', '--c', '1/4']])
def test_every_command_reads_the_catalog_once(argv, monkeypatch):
    monkeypatch.delenv('KWALL_CATALOG', raising=False)
    proc = _cold_process('-c', COUNT_OPENS, *argv)
    assert proc.returncode == 0
    assert proc.stderr == 'opens 1\n'


def test_the_report_names_the_digest_of_the_bytes_it_decoded(tmp_path, monkeypatch, capsys):
    '''the digest and the content come from one decode: a rewrite of the
    file shows in neither until the cached decode is dropped'''
    path = tmp_path / 'catalog.json'
    first = DATA_PATH.read_bytes()
    path.write_bytes(first)
    monkeypatch.setenv('KWALL_CATALOG', str(path))
    kwall.catalog._load_resolved.cache_clear()

    def report():
        code, r = run_json(capsys, 'fixtures', 'list')
        assert code == 0
        trust = {f['id']: f['trust'] for f in r['results']['fixtures']}['Sigma5/D_1_17/L1']
        return r['inputs']['sha256'], trust

    assert report() == (hashlib.sha256(first).hexdigest(), 'golden')
    doc = json.loads(first)
    next(f for f in doc['fixtures'] if f['id'] == 'Sigma5/D_1_17/L1')['expected']['trust'] = 'frozen'
    second = json.dumps(doc).encode()
    path.write_bytes(second)
    assert report() == (hashlib.sha256(first).hexdigest(), 'golden')
    kwall.catalog._load_resolved.cache_clear()
    assert report() == (hashlib.sha256(second).hexdigest(), 'frozen')


def test_bounds_decodes_the_catalog_first(tmp_path, monkeypatch, capsys):
    '''bounds reads no fixture, but a catalog that does not decode is
    refused before the command's own arguments are looked at'''
    doc = json.loads(DATA_PATH.read_text())
    del doc['surfaces']
    bad = tmp_path / 'catalog.json'
    bad.write_text(json.dumps(doc))
    monkeypatch.setenv('KWALL_CATALOG', str(bad))
    for argv in (['bounds', '--c', '1/4'], ['bounds', '--c', '2']):
        assert run(capsys, *argv) == (
            2, '', f"catalog error: catalog resource {bad} has no 'surfaces' section\n")


def _parse(parser, argv):
    '''the namespace, or the exit code, with what parsing printed'''
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_a_one_command_parser_knows_only_its_command():
    code, _, err = _parse(build_parser('beta'), ['walls'])
    assert code == 2
    assert "invalid choice: 'walls' (choose from 'beta')" in err


def test_usage_errors_exit_two(capsys):
    assert main(['bogus']) == 2
    assert main([]) == 2
    assert main(['walls', '--threads', '0']) == 2
    # argparse hands the handler [] for an option value of '--'
    for argv in (['walls', '--family=--'], ['fixtures', 'list', '--family=--'],
                 ['bounds', '--c=1/10', '--d=--', '--n=1', '--ord=0']):
        assert main(argv) == 2
        assert "an option value may not be '--'" in capsys.readouterr().err
    capsys.readouterr()


# sha256 of each report's stdout, taken at the commit before the report
# renderers were rewritten, without the catalog-path line (it names the
# checkout); each command is pinned in markdown and in json
PINNED_REPORTS = [
    ('surface show sigma5',
     '0924eb1f6bc6740a83f7266adfc65cde05e6d6f30dd74437b48053105e509d4c',
     '50f8876885e61db7cca7a9bc6e9a2a39613cdacd675e7f89978c9243678a4a07'),
    ('surface show xprime_deg',
     '6f1f5aea7e12ad97173e6d26a5699772f013261e3ed4ab617db367c0968324cd',
     '9e6e29edf0be9a3be825ccd2ef6b7c4be0a06e47490741b34ea0925895028284'),
    ('zariski sigma5 3/2,1/2,1/2,-1,-1',
     'eac83af746937f40d9375a8394a55a6cb65302f4cba9c0e2ede1230b4b230e35',
     'cd9d1f2ac5f2de827fc6e8faeaf0b14b803641e5c7022a5e1e961828e3467a62'),
    ('zariski sigma5 ac',
     'fc280070b0eb2a169aae427ecd6d312268b413e6262c36bce1eec1eb42378d12',
     '7e8630ba3d1ab14c1b45c40b9d2f596abf092e58e7878729c0a31f0f97ca9399'),
    ('zariski sigma5 ac --ray line12',
     '63253c77ed1dfaca4eb26fb1bde55e03f5b5de95d206ba7b8ada8d897b76299b',
     'a7ec672ec08630e984ce8a8882048e661ae74c1b5271eef74df6790bbafb8999'),
    ('profile Xprime/D_13_41/E',
     'fed004e923118a2864dd528fa1aa0cbbd42bf3e8fa919123bf54e9d8b65922ca',
     '2ce31c51cdd2c6bc1de725ce4351e2e5118090c9a513c8c0e8ee1a52021a84f6'),
    ('beta Sigma5/D_1_17/L1',
     'df1e2ee06fd53e4eb05613b0217223f0640509bce937e4c758fb8f53dd67bcc1',
     '2cfad8f19117c5ba855e56234f0f03452110aa0f7ec31b704ad8ddac81c434c0'),
    ('beta X11/D_2_19/line-pq',
     'ac1969e1c13ad2288ed5cc44d7facc4ea02dd62e4591e6f1bd9e0449d97e4272',
     '56b71e5cecff5627747c9771f45bc2334a46a4466a8bc860ba8e3683fe7292a0'),
    ('beta P2/sanity/line',
     '6558dec26c6aaeb5f39ab72a9bf9b9c0c7bef339259433abbdcf3c94af7f9b3d',
     '099bb6244023208ad75e39acd388fbc10d026a9e7f6b895fc625eec31a14a463'),
    ('beta Index3/exclusion/l',
     '7a420be2cbbb80b3be08833c9c3e0ebf165fcb53a540bf67b10f880bd91fa566',
     '0eaf5990d3fb444da92143eaaaf594f9b5eb56a4e9863bdc14de950015208976'),
    ('beta Xprime/D_13_41/E --c 13/41',
     '926268067dea3f2cdd4e6994bda60ae37e36b6499b742b387e2df8155422d21e',
     '64d5782a5a47bfa01da9d470556321b746f47aee0883c6a0d0f76d887b830470'),
    ('beta Sigma5/D_1_17/L1 --c 1/4',
     '3301848bc7eaeaf32ee8f6b9daf000cd9e787a1c355c4087eb568865f5004eb1',
     'cead83f5a1b40db9f9a7fe61024ed2eca249757045c8b690f9f6840d1d50d28a'),
    ('walls',
     '4d5147f4f9b0ae2caa8ab78891fd25447f70ac2aa95df2585b613990b41950de',
     '6af894756d2b12d5045240b89c0c1a0178c28bb162e8ef783cb749644df7d3a3'),
    ('walls --diff',
     '54e104d1fadd2ba799770be640789e7c32acea70b2b63b3911760ecd352bc161',
     'fbb369960479b9a03e91ee3dd74f490ebd6ef55fb3d9a0d7bba605ccd2a08edc'),
    ('walls --family Sigma5 --diff',
     '1aea35729f5cdad472f8503e8aba9df1e91fcf9d80629dbd1c65c9734229fe84',
     'b8ea6423195c05369f91ccfee5711e0fbe36ca8bc167f015b7876ef4d49c4f49'),
    ('bounds --c 1/100',
     '65cde505e322372d6e4e8d1f5abd5b00ed4252ebb4403973622a9957f04ff0fc',
     'b7b2d2758670a38bd4e66f31e29343c38de61e77d899f9a1d8585cb63cb66277'),
    ('bounds --c 6/100',
     '0ad24b6a1ee412f2633ed36a7a2864602627bf804251a477abb54d74e5fed881',
     '1468f60b99829e03a1b781ed6936412cf6ac9ceca14d0988528bcc156502ab89'),
    ('bounds --degree 2',
     '7dd6be0bc4d5d136f1040f2d9c8bed354a1c8f8d46820a33b0f755fe4e062352',
     'e4e37ce356a64514204453b4bdfb29b63c8f0dd1e0c96ae438e06a89bd91739c'),
    ('bounds --c 1/10 --d 1 --n 3 --ord 0',
     '4012909096c5ceca537c2196662d4b372c4c5410fb38d79ec1f8a7ce4b189a75',
     '3e75843a3c01c0cd9f50a9b62d8d1de2508fb069efc9f69c2b37f4e9f6745f37'),
    ('bounds --c 1/4',
     '6f994789e010b7595c22939df021a24eb7145185521c2da92737927dd3306110',
     '8073b1e83224e4715d791f831dfcdc6bb9557883e8734ea15ade682ab9c13184'),
    ('fixtures list',
     '02ced9a189d27c64d64cf5a68c46375553b85b2981073ba576642ce4f966e215',
     '6ff32f13b4cb76a5a832efed333ac0ee3ef9ce7e684f06e3f58e6df1e14401a7'),
    ('fixtures list --family Xt',
     'b38df1b5496492f78eb5b46175ca3e73c877abbf53bf18085d3455051f4f50f9',
     '6dbac17170f4b539323b88f4dc788c21313ae7360b5f1c7f4e248463e3caa056'),
]


@pytest.mark.parametrize('command, markdown, as_json', PINNED_REPORTS,
                         ids=[row[0] for row in PINNED_REPORTS])
def test_reports_are_pinned(command, markdown, as_json, capsys):
    for argv, digest in ((command.split(), markdown),
                         (['--json', *command.split()], as_json)):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        lines = out.split('\n')
        keep = [ln for ln in lines
                if not ln.strip().startswith(('catalog: ', '"catalog": '))]
        assert len(keep) == len(lines) - 1, argv
        assert hashlib.sha256('\n'.join(keep).encode()).hexdigest() == digest, argv


RESULT_LEAVES = (str, int, bool, type(None), Fraction, kwall.stability.AffineRatFn)


def _leaves(value):
    if isinstance(value, dict):
        assert all(isinstance(k, str) for k in value)
        for v in value.values():
            yield from _leaves(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


@pytest.mark.parametrize('argv', [
    'surface show xq', 'zariski sigma5 3/2,1/2,1/2,-1,-1', 'zariski sigma5 ac --ray line12',
    'profile Xprime/D_13_41/E', 'beta X11/D_2_19/line-pq', 'beta Sigma5/D_1_17/L1 --c 1/4',
    'beta PAIR line12', 'walls', 'walls --diff', 'bounds --c 1/4', 'bounds --degree 2',
    'bounds --c 1/10 --d 1 --n 3 --ord 0', 'fixtures list'])
def test_results_hold_exact_values_or_text(argv, tmp_path):
    '''a command returns Fractions, affine functions, integers, booleans,
    None and text, which main writes out with str; a DivClass or a Path
    there would reach the report as its repr'''
    pair = tmp_path / 'pair.json'
    pair.write_text(json.dumps(PAIR_DOC))
    argv = [str(pair) if a == 'PAIR' else a for a in argv.split()]
    args = build_parser(argv[0]).parse_args(argv)
    leaves = list(_leaves(args.handler(load_catalog(), args)))
    assert leaves
    for leaf in leaves:
        assert isinstance(leaf, RESULT_LEAVES), (argv, type(leaf))


SURFACES = {s['name']: len(s['basis']) for s in SHIPPED['surfaces']}
GENERATORS = {s['name']: [g['name'] for g in s['mori']] for s in SHIPPED['surfaces']}
ANY_GENERATOR = st.sampled_from(sorted({g for gs in GENERATORS.values() for g in gs}))
JUNK = st.sampled_from(['', ' ', ',', 'x', '1/0', '1/-2', '-', '--', 'nan', 'inf',
                        '1e2', '0x1', '1,,2', 'ac,ac', '..'])
NUMBERS = st.builds(lambda p, q: f'{p}/{q}', st.integers(-50, 50), st.integers(1, 50))
RATIONALS = st.one_of(st.sampled_from(['1/4', '1/10', '13/41', '2', '0', '1/2']),
                      NUMBERS, st.integers(-50, 50).map(str), JUNK)
INTEGERS = st.one_of(st.integers(-3, 5).map(str), JUNK)


def _names(known):
    return st.one_of(st.sampled_from([*sorted(known), 'Nope/missing']), JUNK)


@st.composite
def divisors(draw, surface):
    '''p/q coordinate lists of the surface's rank or another length, a
    generator name of this or any surface, "ac"/"2ac" or a junk token'''
    rank = SURFACES.get(surface, 3)
    length = draw(st.sampled_from([rank, rank, 1, rank + 1, max(rank - 1, 0)]))
    coords = draw(st.lists(NUMBERS, min_size=length, max_size=length))
    return draw(st.one_of(st.just(','.join(coords)),
                          st.sampled_from(GENERATORS.get(surface, ['ac'])), ANY_GENERATOR,
                          st.sampled_from(['ac', '2ac']), JUNK))


@st.composite
def command_lines(draw):
    '''argv from the cli grammar: every subcommand with known and unknown
    names, and a subset of its own options, or now and then of all options,
    with good and bad values'''
    surface = draw(_names(SURFACES))
    fixture = draw(_names(f['id'] for f in SHIPPED['fixtures']))
    head, positional, own = draw(st.sampled_from([
        (['surface', 'show'], [surface], []),
        (['zariski'], [surface, draw(divisors(surface))], ['--ray']),
        (['profile'], [fixture], []),
        (['beta'], [fixture], ['--c']),
        (['beta'], [fixture, draw(st.one_of(ANY_GENERATOR, JUNK))], ['--c']),
        (['walls'], [], ['--family', '--diff']),
        (['bounds'], [], ['--c', '--degree', '--d', '--n', '--ord']),
        (['bounds', f'--c={draw(RATIONALS)}'], [], ['--d', '--n', '--ord']),
        (['fixtures', 'list'], [], ['--family']),
    ]))
    values = {'--ray': divisors(surface), '--c': RATIONALS, '--degree': RATIONALS,
              '--d': INTEGERS, '--n': INTEGERS, '--ord': RATIONALS,
              '--family': _names(['X1', 'Xq', 'Sigma5', 'P2'])}
    pool = draw(st.sampled_from([own, own, own, [*values, '--diff']]))
    options = []
    for flag in draw(st.lists(st.sampled_from(['--json', *pool]), unique=True)):
        options.append(flag if flag in ('--json', '--diff')
                       else f'{flag}={draw(values[flag])}')
    return [*head, *options, *(['--'] if positional else []), *positional]


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=['--help'])
@example(argv=['beta', '--help'])
@example(argv=['surface', 'show', '--help'])
@example(argv=['walls', '--bogus'])
@example(argv=['surface', 'show'])
@example(argv=['bogus'])
def test_the_named_command_parses_as_the_full_tree(argv):
    assert _parse(build_parser(argv[0]), argv) == _parse(build_parser(), argv)


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
# a fixture id too long for the file system to stat
@example(argv=['beta', 'x' * 256])
def test_fuzzed_command_lines_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert 'Traceback' not in err.getvalue()
    if code in (0, 4):
        status = 'ok' if code == 0 else 'mismatch'
        text = out.getvalue()
        if '--json' in argv:
            assert json.loads(text)['status'] == status
        else:
            lines = text.split('\n')
            assert sum(ln.startswith('# kwall') for ln in lines) == 1
            assert [ln for ln in lines if ln.startswith('status: ')] == [f'status: {status}']
