'''
Checks on the benchmark itself:

    python3 perfbench/selfcheck.py

1. Wrapper coverage: one walls pass counted by the span wrappers and one
   counted by sys.setprofile (by code object, whatever name a module binds)
   must give the same call count for every traced function.
2. Repeatability: two traced runs with the same seed, in two processes,
   must report identical counts.
3. BENCHMARK.json lists exactly the per-layer metrics a traced run prints.

It also prints the walls pass counts next to the seed's (11,387 pair, 298
solve_linear, 298 signature); an engine change may move those on purpose.
Exits 1 when a check fails.
'''
import importlib
import json
import subprocess
import sys

import run
import spans

SEED_WALLS_COUNTS = {'lattice.pair': 11387, 'lattice.solve_linear': 298,
                     'lattice.signature': 298}


def profiled_counts() -> dict:
    '''call counts of one walls pass, by code object'''
    codes = {}
    for mod_name, names in spans.TRACED.items():
        mod = importlib.import_module(mod_name)
        for fn_name in names:
            codes[getattr(mod, fn_name).__code__] = f'{mod_name[6:]}.{fn_name}'
    counts = dict.fromkeys(codes.values(), 0)
    cat = run.fresh_catalog()

    def hook(frame, event, _arg):
        if event == 'call' and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    import kwall.stability as ks
    sys.setprofile(hook)
    try:
        for f in cat.fixtures:
            ks.solve_wall(ks.beta(f.pair, f.valuation), f.pair.c_lo, f.pair.c_hi)
    finally:
        sys.setprofile(None)
    return counts


def traced_run() -> dict:
    out = subprocess.run([sys.executable, str(run.HERE / 'run.py'), '--workload', 'walls',
                          '--seed', '1', '--seconds', '1', '--trace', '1'],
                         cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().split('\n')[-1])


def main() -> int:
    run.import_kwall()
    problems = []

    tracer = spans.Tracer()
    run.walls_pass(run.Tally(), tracer)
    wrapped = {n: c[0] for n, c in tracer.summary()['spans'].items()}
    profiled = profiled_counts()
    for name, count in profiled.items():
        if wrapped.get(name, 0) != count:
            problems.append(f'{name}: wrappers saw {wrapped.get(name, 0)}, '
                            f'profiler saw {count}')
    for name, seed_count in SEED_WALLS_COUNTS.items():
        print(f'walls pass {name}: {wrapped.get(name, 0)} calls (seed {seed_count})')

    first, second = traced_run(), traced_run()
    exact = [k for k, v in first['metrics'].items() if v['unit'] in ('count', 'bits')]
    for k in exact:
        if first['metrics'][k] != second['metrics'][k]:
            problems.append(f'{k}: {first["metrics"][k]["value"]} then '
                            f'{second["metrics"][k]["value"]}')
    print(f'{len(exact)} exact per-layer values compared across two traced runs')

    bench = json.loads((run.ROOT / 'BENCHMARK.json').read_text())
    declared = [m['name'] for m in bench['per_layer']]
    if declared != list(first['metrics']):
        problems.append('BENCHMARK.json per_layer differs from the traced run')

    for p in problems:
        print(f'FAIL {p}')
    print('selfcheck', 'failed' if problems else 'passed')
    return 1 if problems else 0


if __name__ == '__main__':
    raise SystemExit(main())
