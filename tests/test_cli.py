'''exit codes, report shapes, and worked command lines for the cli'''

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kwall.catalog import DATA_PATH
from kwall.cli import main


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


def test_bad_divisor_inputs_are_usage_errors(capsys):
    assert run(capsys, 'zariski', 'sigma5', '1,2')[0] == 2
    assert run(capsys, 'zariski', 'sigma5', 'no-such-gen')[0] == 2
    assert run(capsys, 'zariski', 'no-such-surface', 'ac')[0] == 2


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


def test_beta_pair_file_naming_an_unknown_generator_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / 'pair.json'
    bad.write_text(json.dumps({'surface': 'sigma5',
                               'boundary': [{'gen': 'nosuch', 'mult': '2'}]}))
    code, out, err = run(capsys, 'beta', str(bad), 'exc1')
    assert code == 2
    assert out == ''
    assert "catalog error: sigma5: boundary part names unknown generator 'nosuch'" in err


def test_zero_denominators_are_usage_errors(capsys):
    for argv in (('beta', 'Sigma5/D_1_17/L1', '--c', '1/0'),
                 ('bounds', '--c', '1/0'),
                 ('bounds', '--degree', '1/0')):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ''), argv
        assert 'bad input: zero denominator' in err, argv


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


def _one_blowup_weight(doc):
    v = next(f['valuation'] for f in doc['fixtures']
             if f['valuation']['kind'] == 'blowup')
    v['center']['weights'] = [1]


@pytest.mark.parametrize('edit, docs, message', [
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
     "configuration error: bad surface document: 'int' object has no attribute 'items'"),
    (_edit('fixtures', 'id', [1]), None, 'catalog error: fixture id [1] is not a string'),
    (_edit('surfaces', 'gram', ''), None,
     'configuration error: bad surface document: gram matrix is not 1 x 1'),
    (_one_blowup_weight, None, 'configuration error: weights [1] are not two integers'),
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
    (_trust_is_a_number, None, "catalog error: fixture 0 is malformed: 'trust' is not a string"),
    (_edit('walls', 'description', ['x']), None,
     "catalog error: wall 0 is malformed: 'description' is not a string"),
    (_edit('fixtures', 'surface'), None, "catalog error: fixture 0 is missing field 'surface'"),
], ids=['fixture-without-expected', 'wall-without-value', 'fixture-is-a-list',
        'boundary-is-a-string', 'boundary-part-is-a-number',
        'expected-is-a-string', 'valuation-is-a-number', 'display-is-a-boolean',
        'k-discrepancies-is-a-number', 'fixture-id-is-a-list', 'gram-is-empty',
        'one-blowup-weight', 'blowup-center-is-a-number', 'version-is-a-list',
        'notes-is-a-string', 'notes-holds-a-number', 'families-is-a-string',
        'trust-is-a-number', 'description-is-a-list', 'fixture-without-surface'])
def test_malformed_entries_are_usage_errors(edit, docs, message, tmp_path,
                                            monkeypatch, capsys):
    if edit is not None:
        doc = json.loads(json.dumps(SHIPPED))
        edit(doc)
        bad = tmp_path / 'catalog.json'
        bad.write_text(json.dumps(doc))
        monkeypatch.setenv('KWALL_CATALOG', str(bad))
        argv = ('fixtures', 'list')
    else:
        pair_doc, valuation = docs
        bad = tmp_path / 'pair.json'
        bad.write_text(json.dumps(pair_doc))
        if isinstance(valuation, dict):
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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(['fixtures', 'list'])
    assert code in (0, 2, 3, 4)
    assert 'Traceback' not in err.getvalue()
    if code == 0:
        assert out.getvalue().count('# kwall fixtures list\n') == 1
        assert out.getvalue().endswith('status: ok\n')


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


def test_walls_against_a_perturbed_catalog_exits_four(tmp_path, monkeypatch, capsys):
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
    code, out, _ = run(capsys, 'walls', '--diff')
    assert code == 4
    assert '- Sigma5/D_1_17/L1: computed 1/17, stored 1/16' in out
    assert 'missing from run: 1/16' in out
    assert 'not in stored table: 1/17' in out
    assert 'status: mismatch' in out


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


def test_usage_errors_exit_two(capsys):
    assert main(['bogus']) == 2
    assert main([]) == 2
    assert main(['walls', '--threads', '0']) == 2
    capsys.readouterr()
