"""Set-up probe: a fresh interpreter imports pipecorr, builds the input
pool of one workload, prints one JSON line and exits.

    PYTHONPATH=src python3 perfbench/probe.py <workload> <seed>

run.py times a probe from process start to that line, which is the
point where the first timed op could start.
"""

import sys
import time

_t0 = time.perf_counter()
import pipecorr  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0
MODULES_LOADED = len(sys.modules)

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    inputs = workloads.build_inputs(workload, seed, Path(__file__).resolve().parent.parent)
    print(json.dumps({
        "import_s": IMPORT_S,
        "modules_loaded": MODULES_LOADED,
        "inputs_sha256": workloads.digest(inputs),
    }), flush=True)


if __name__ == "__main__":
    main()
