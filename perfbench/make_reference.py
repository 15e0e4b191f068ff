'''
Write perfbench/cli_reference.json: the report digest of every command the
cli mix can draw, each from a cold ``python -m kwall.cli`` process.

    python3 perfbench/make_reference.py

The file pins the seed's report bytes.  Regenerate it only for a change
that is meant to alter a report, and say so with that change.
'''
import json
import subprocess
import sys

import checks
import run

if __name__ == '__main__':
    run.import_kwall()
    reference = {}
    for cmds in checks.cli_mix(run.fresh_catalog()).values():
        for argv in cmds:
            out = subprocess.run([sys.executable, '-m', 'kwall.cli', *argv], cwd=run.ROOT,
                                 env=run.child_env(), capture_output=True, check=True)
            reference[' '.join(argv)] = checks.report_digest(out.stdout)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + '\n')
    print(f'{len(reference)} reports -> {checks.REFERENCE_PATH}')
