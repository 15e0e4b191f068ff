'''
Traced cold CLI process: ``python3 perfbench/traced_cli.py <kwall argv>``.

Runs ``kwall.cli.main`` exactly as ``python -m kwall.cli`` would, with the
span wrappers installed after import, then writes the span summary to stderr
as one line starting with spans.SUMMARY_MARK.  Needs kwall on PYTHONPATH.
'''
import json
import sys

import kwall.cli

import spans

if __name__ == '__main__':
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = kwall.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(spans.SUMMARY_MARK + json.dumps(tracer.summary()), file=sys.stderr)
    raise SystemExit(code)
