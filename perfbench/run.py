#!/usr/bin/env python3
'''
kwall benchmark.

    python3 perfbench/run.py --workload {walls,zariski,cli} --seed N \
        --seconds S --trace {0,1}

Run from a checkout that holds ``src/kwall``.  ``--trace 0`` measures the
named workload with no wrappers installed and prints the end-to-end metrics;
``--trace 1`` makes one traced run that measures the per-layer table of every
workload.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it (``perfbench-info``)
records the environment and sample counts.  See perfbench/README.md.

All load comes from this one process, closed loop: the next op starts when
the previous one has ended, and cli child processes run one at a time.
'''
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
CATALOG = SRC / 'kwall' / 'data' / 'catalog.json'

SETUP_RUNS = 7            # fresh processes per run; setup_s is their median
SETUP_PROBE = 'import kwall.catalog; kwall.catalog.load_catalog()'
CLI_MIN_OPS = 100         # so that at least 10 samples lie beyond op_p90_ms
ZARISKI_BATCH = 256       # classes per timed batch
TRACE_ZARISKI_CLASSES = 300
CHILD_TIMEOUT_S = 120

WORKLOADS = ('walls', 'zariski', 'cli')


def fail_setup(msg: str):
    print(f'perfbench: {msg}', file=sys.stderr)
    raise SystemExit(2)


def import_kwall():
    if not (SRC / 'kwall' / '__init__.py').is_file():
        fail_setup(f'no kwall sources at {SRC / "kwall"}')
    sys.path.insert(0, str(SRC))
    import kwall
    if Path(kwall.__file__).resolve().parent != (SRC / 'kwall').resolve():
        fail_setup(f'imported kwall from {kwall.__file__}, not from {SRC}')


def child_env() -> dict:
    env = dict(os.environ)
    env.pop('KWALL_CATALOG', None)
    env['PYTHONPATH'] = os.pathsep.join(
        [str(SRC)] + ([env['PYTHONPATH']] if env.get('PYTHONPATH') else []))
    return env


def fresh_catalog():
    '''decode the catalog anew, so per-object caches start cold

    load_catalog memoises per path; clearing that memo is the only way to
    make the same process decode it again.
    '''
    import kwall.catalog as kc
    kc._load_resolved.cache_clear()
    return kc.load_catalog()


class Tally:
    '''ops attempted and failed; the first failure is shown on stderr'''

    def __init__(self):
        self.attempted = self.failed = 0
        self.shown = False

    def add(self, attempted: int, failed: int, why=None):
        self.attempted += attempted
        self.failed += failed
        if failed and not self.shown:
            self.shown = True
            print(f'perfbench: op failed: {why}', file=sys.stderr)
            if isinstance(why, BaseException):
                traceback.print_exception(why, file=sys.stderr)


# -- ops -----------------------------------------------------------------

def walls_pass(tally: Tally, tracer=None):
    '''one pass over all fixtures, on a freshly decoded catalog

    Returns (op latencies in ns, timed ns).  The decode and the checks are
    outside the timing and outside the traced spans.
    '''
    import kwall.stability as ks
    cat = fresh_catalog()
    results, lat = [], []
    with spans.installed(tracer) if tracer else nullcontext():
        t_pass = perf_counter_ns()
        for f in cat.fixtures:
            t0 = perf_counter_ns()
            try:
                b = ks.beta(f.pair, f.valuation)
                res = (b, ks.solve_wall(b, f.pair.c_lo, f.pair.c_hi))
            except Exception as exc:
                res = exc
            lat.append(perf_counter_ns() - t0)
            results.append(res)
        timed = perf_counter_ns() - t_pass
    bad = checks.walls_pass_failures(cat, results, ks.log_discrepancy)
    why = next((r for r in results if isinstance(r, BaseException)),
               f'wrong outputs for {sorted(cat.fixtures[i].id for i in bad)[:3]}')
    tally.add(len(results), len(bad), why)
    return lat, timed


def zariski_batch(items, tally: Tally, tracer=None):
    '''zariski_decompose of each (ModelData, coordinates) item'''
    import kwall.positivity as kp
    classes = [(md, d, md.model.lattice.div(d)) for md, d in items]
    results, lat = [], []
    with spans.installed(tracer) if tracer else nullcontext():
        t_batch = perf_counter_ns()
        for md, _, cls in classes:
            t0 = perf_counter_ns()
            try:
                res = kp.zariski_decompose(md.model, cls)
            except Exception as exc:
                res = exc
            lat.append(perf_counter_ns() - t0)
            results.append(res)
        timed = perf_counter_ns() - t_batch
    for (md, d, _), res in zip(classes, results):
        if isinstance(res, BaseException):
            tally.add(1, 1, res)
        else:
            why = md.zariski_failure(d, res)
            tally.add(1, why is not None, f'{md.model.name} {d}: {why}')
    return lat, timed


def cli_op(argv, reference: dict, tally: Tally, traced=False):
    '''one cold kwall process; returns (wall ns, span summary or None)'''
    entry = [str(HERE / 'traced_cli.py')] if traced else ['-m', 'kwall.cli']
    t0 = perf_counter_ns()
    proc = subprocess.Popen([sys.executable, *entry, *argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    wall = perf_counter_ns() - t0
    summary = None
    if traced:
        last = err.decode(errors='replace').rstrip('\n').rsplit('\n', 1)[-1]
        if last.startswith(spans.SUMMARY_MARK):
            summary = json.loads(last[len(spans.SUMMARY_MARK):])
    key = ' '.join(argv)
    ok = (proc.returncode == 0 and checks.report_digest(out) == reference.get(key)
          and (summary is not None or not traced))
    tally.add(1, not ok, f'kwall {key}: exit {proc.returncode}, '
                         f'stderr {err.decode(errors="replace")[-300:]!r}')
    return wall, summary


def cli_cycles(cat, seed: int):
    '''endless cycles of the mix: one command of each kind, order and
    arguments drawn from the seed'''
    rng = random.Random(seed)
    mix = checks.cli_mix(cat)
    while True:
        cycle = [rng.choice(cmds) for cmds in mix.values()]
        rng.shuffle(cycle)
        yield from cycle


# -- end-to-end runs -----------------------------------------------------

def measure_setup() -> float:
    '''median wall time of fresh processes that import kwall and load the
    catalog'''
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        # with a pipe, the wait ends when the child closes it; without one,
        # a wait with a timeout polls at up to 50 ms intervals
        subprocess.run([sys.executable, '-c', SETUP_PROBE], cwd=ROOT, env=child_env(),
                       check=True, timeout=CHILD_TIMEOUT_S, capture_output=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def timed_loop(seconds: float, batch):
    '''call batch() until the time is up; returns (op latencies, timed ns)'''
    lat, timed = [], 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        batch_lat, batch_timed = batch()
        lat += batch_lat
        timed += batch_timed
    return lat, timed


def run_cli(seed: int, seconds: float, tally: Tally):
    '''cold processes for the given time, and at least CLI_MIN_OPS of them'''
    reference = checks.load_reference()
    lat = []
    deadline = perf_counter() + seconds
    for argv in cli_cycles(fresh_catalog(), seed):
        if perf_counter() >= deadline and len(lat) >= CLI_MIN_OPS:
            break
        lat.append(cli_op(argv, reference, tally)[0])
    # only the op processes have been waited for so far
    return lat, sum(lat), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally):
    if workload == 'cli':
        lat_ns, timed_ns, rss_kb = run_cli(seed, seconds, tally)
    else:
        if workload == 'walls':
            batch = lambda: walls_pass(tally)
        else:
            stream = checks.ClassStream(fresh_catalog().surfaces, seed)
            batch = lambda: zariski_batch(stream.take(ZARISKI_BATCH), tally)
        lat_ns, timed_ns = timed_loop(seconds, batch)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s = measure_setup()
    ms = [x / 1e6 for x in lat_ns]
    p90 = statistics.quantiles(ms, n=10)[8]
    metrics = {
        'setup_s': (setup_s, 's'),
        'ops_per_s': (len(ms) / (timed_ns / 1e9), '1/s'),
        'op_p50_ms': (statistics.median(ms), 'ms'),
        'op_p90_ms': (p90, 'ms'),
        'peak_rss_mb': (rss_kb / 1024, 'MB'),
        'ok_ratio': ((tally.attempted - tally.failed) / tally.attempted, 'ratio'),
    }
    samples = {'ops': len(ms), 'beyond_p90': sum(x > p90 for x in ms),
               'setup_processes': SETUP_RUNS}
    return metrics, samples


# -- traced run ----------------------------------------------------------

SETUP_LAYERS = (
    'catalog.load_catalog.s', 'catalog.load_catalog.self_s',
    'surface.surface_from_doc.calls', 'surface.surface_from_doc.self_s',
    'surface.pullback_weil.calls', 'surface.pullback_weil.self_s',
    'surface.contraction_orders.calls', 'surface.contraction_orders.self_s',
    'surface.build_blowup_extension.calls', 'surface.build_blowup_extension.self_s',
    'lattice.pair.calls', 'lattice.pair.self_s',
    'lattice.solve_linear.calls', 'lattice.signature.calls',
)
LATTICE_LAYERS = (
    'lattice.pair.calls', 'lattice.pair.self_s', 'lattice.pair.max_bits',
    'lattice.solve_linear.calls', 'lattice.solve_linear.self_s',
    'lattice.signature.calls', 'lattice.signature.self_s',
)
WALLS_LAYERS = LATTICE_LAYERS + (
    'positivity.volume_profile.calls', 'positivity.volume_profile.self_s',
    'positivity.chambers', 'positivity.is_nef.calls',
    'positivity.integrate_profile.self_s',
    'stability.beta.calls', 'stability.beta.self_s', 'stability.solve_wall.self_s',
)
ZARISKI_LAYERS = LATTICE_LAYERS + (
    'positivity.zariski_decompose.calls', 'positivity.zariski_decompose.self_s',
    'positivity.is_nef.calls',
)
CLI_LAYERS = (
    'cli.main.s', 'catalog.load_catalog.s',
    'lattice.pair.calls', 'lattice.pair.self_s',
    'positivity.volume_profile.calls', 'positivity.zariski_decompose.calls',
)
UNITS = {'calls': 'count', 's': 's', 'self_s': 's', 'max_bits': 'bits',
         'chambers': 'count'}


def layer_values(summary: dict, names, prefix: str) -> dict:
    out = {}
    for name in names:
        layer, stat = name.rsplit('.', 1)
        if name == 'lattice.pair.max_bits':
            value = summary['pair_max_bits']
        elif name == 'positivity.chambers':
            value = summary['chambers']
        else:
            calls, total, self_s = summary['spans'].get(layer, (0, 0.0, 0.0))
            value = {'calls': calls, 's': total, 'self_s': self_s}[stat]
        out[f'{prefix}.{name}'] = (value, UNITS[stat])
    return out


def merge_summaries(parts) -> dict:
    spans_sum: dict = {}
    for part in parts:
        for name, vals in part['spans'].items():
            old = spans_sum.get(name, (0, 0.0, 0.0))
            spans_sum[name] = tuple(a + b for a, b in zip(old, vals))
    return {'spans': spans_sum,
            'pair_max_bits': max(p['pair_max_bits'] for p in parts),
            'chambers': sum(p['chambers'] for p in parts)}


def traced_run(seed: int, tally: Tally):
    '''the per-layer table of every workload, from fixed work so that call
    counts repeat exactly for a seed

    setup: one cold catalog decode.  walls: one pass.  zariski: the first
    TRACE_ZARISKI_CLASSES classes of the seed's stream.  cli: one cycle of
    the mix.  Each traced piece follows the same piece untraced, both cold,
    which gives trace.overhead_ratio.
    '''
    metrics = {}
    tracer = spans.Tracer()
    with spans.installed(tracer):
        fresh_catalog()
    metrics.update(layer_values(tracer.summary(), SETUP_LAYERS, 'setup'))

    _, plain = walls_pass(tally)
    tracer = spans.Tracer()
    _, traced = walls_pass(tally, tracer)
    metrics.update(layer_values(tracer.summary(), WALLS_LAYERS, 'walls'))
    metrics['walls.trace.overhead_ratio'] = (plain / traced, 'ratio')

    def zariski_items():
        return checks.ClassStream(fresh_catalog().surfaces, seed).take(TRACE_ZARISKI_CLASSES)

    _, plain = zariski_batch(zariski_items(), tally)
    tracer = spans.Tracer()
    _, traced = zariski_batch(zariski_items(), tally, tracer)
    metrics.update(layer_values(tracer.summary(), ZARISKI_LAYERS, 'zariski'))
    metrics['zariski.trace.overhead_ratio'] = (plain / traced, 'ratio')

    reference = checks.load_reference()
    cat = fresh_catalog()
    gen = cli_cycles(cat, seed)
    cycle = [next(gen) for _ in checks.cli_mix(cat)]
    plain = sum(cli_op(argv, reference, tally)[0] for argv in cycle)
    walls_ns, parts = zip(*(cli_op(argv, reference, tally, traced=True) for argv in cycle))
    parts = [p for p in parts if p is not None]
    if parts:
        summary = merge_summaries(parts)
        metrics.update(layer_values(summary, CLI_LAYERS, 'cli'))
        main_s = summary['spans'].get('cli.main', (0, 0.0, 0.0))[1]
        metrics['cli.cli.process_overhead_s'] = (sum(walls_ns) / 1e9 - main_s, 's')
    metrics['cli.trace.overhead_ratio'] = (plain / sum(walls_ns), 'ratio')
    return metrics, {'traced_work': {'walls_passes': 1,
                                     'zariski_classes': TRACE_ZARISKI_CLASSES,
                                     'cli_processes': len(cycle)}}


# -- driver --------------------------------------------------------------

def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(['git', '-C', str(ROOT), 'rev-parse', 'HEAD'], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return 'unknown'
    return out.stdout.strip() if out.returncode == 0 else 'unknown'


def environment_info(seed: int) -> dict:
    '''informational only; never gated'''
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((SRC / 'kwall').rglob('*.py')))
    return {
        'python': platform.python_version(),
        'nproc': len(os.sched_getaffinity(0)),
        'commit': git_commit(),
        'seed': seed,
        'catalog_sha256': hashlib.sha256(CATALOG.read_bytes()).hexdigest(),
        'src_kwall_lines': src_lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', required=True, type=int)
    ap.add_argument('--seconds', required=True, type=float)
    ap.add_argument('--trace', required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    import_kwall()

    tally = Tally()
    if args.trace:
        metrics, samples = traced_run(args.seed, tally)
    else:
        metrics, samples = end_to_end(args.workload, args.seed, args.seconds, tally)
    info = environment_info(args.seed)
    info.update(workload=args.workload, trace=args.trace, samples=samples)
    print('perfbench-info ' + json.dumps(info, sort_keys=True))
    print(json.dumps({
        'correct': tally.failed == 0,
        'attempted': tally.attempted,
        'failed': tally.failed,
        'metrics': {k: {'value': v, 'unit': u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
