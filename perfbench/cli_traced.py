"""One pipecorr CLI invocation with every public function traced.

    PYTHONPATH=src python3 perfbench/cli_traced.py <spans.npz> <pipecorr args>...

Wraps the functions from outside, calls ``pipecorr.cli.main`` with the
arguments, writes the spans when it returns and exits with its code.
"""

import sys

import pipecorr.cli

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return pipecorr.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
