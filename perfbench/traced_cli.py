"""One traced CLI call: `python3 traced_cli.py OUT.json <geninv arguments>`.

Installs the tracer in this process, runs `geninv.cli.main` on the
arguments, writes the spans to OUT.json and exits with the CLI's code.
geninv is found through PYTHONPATH, as for `python -m geninv`.
"""

import json
import sys

import geninv.cli

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = geninv.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump(tracer.to_dict(), handle)
    sys.exit(code)
