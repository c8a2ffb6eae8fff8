"""Paired benchmark sweep: a base revision against the working tree.

    python3 tools/bench_sweep.py --base <rev> --out BENCH_<n>.json \
        --run calibration_study:1,2,3 --run segment_batch:1,2

Exports the committed files of ``--base`` with ``git archive`` into
``.bench_build/sweep/<commit>`` and, for every workload and seed named
by ``--run``, runs ``perfbench/run.py --trace 0`` for the ``run_seconds`` of
``BENCHMARK.json`` once in that export and once in this checkout. Runs
are sequential, and the side that goes first alternates from pair to
pair.

The output file holds every run (its metrics, correctness and the
environment ``run.py`` reports) and, per workload and end-to-end metric
of ``BENCHMARK.json``, each side's median and quartiles, how many pairs
the change won, the ratio of the medians and whether the change's median
is worse than the base's by more than the metric's bound. Standard
library only.
"""

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "sweep"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev):
    """Directory holding the committed files of rev, exported once per commit."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    target = BUILD / commit
    if not (target / "perfbench" / "run.py").is_file():
        target.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        # extraction filters exist from Python 3.10.12 / 3.11.4 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(target, **safe)
    return {"rev": rev, "commit": commit, "dir": str(target.relative_to(ROOT))}


def run_once(side, directory, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    run = {"side": side, "workload": workload, "seed": seed, "started": started,
           "wall_s": time.time() - started, "exit_code": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        run["error"] = (proc.stderr.strip() or proc.stdout.strip())[-2000:]
        return run
    run.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"],
               metrics={k: v["value"] for k, v in result["metrics"].items()})
    for line in lines:
        if line.startswith("environment: "):
            run["environment"] = json.loads(line[len("environment: "):])
        elif line.startswith("problem: "):
            run.setdefault("problems", []).append(line[len("problem: "):])
    return run


def spread(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs, end_to_end):
    """Per workload and metric: both sides' spread, pair wins and the bound check."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and "metrics" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        table = {}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            base = [p["base"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            b, c = spread(base), spread(change)
            wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(base, change))
            worse = (c["median"] - b["median"]) if lower else (b["median"] - c["median"])
            table[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "base": b,
                "change": c,
                "pairs": len(pairs),
                "change_wins": wins,
                "median_ratio": c["median"] / b["median"] if b["median"] else None,
                "base_iqr": b["q3"] - b["q1"],
                "bound": spec["bound"],
                "worse_beyond_bound": worse > spec["bound"] * abs(b["median"]),
            }
        out[workload] = table
    return out


def parse_runs(specs):
    plan = []
    for spec in specs:
        workload, _, seeds = spec.partition(":")
        if not seeds:
            raise SystemExit("bench_sweep: --run takes <workload>:<seed>[,<seed>...], got %r"
                             % spec)
        plan += [(workload, int(s)) for s in seeds.split(",")]
    return plan


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the baseline")
    parser.add_argument("--run", action="append", required=True,
                        help="<workload>:<seed>[,<seed>...]; repeatable")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"base": export(args.base),
             "change": {"rev": "working tree", "commit": git("rev-parse", "HEAD"), "dir": "."}}
    runs = []
    for pair, (workload, seed) in enumerate(parse_runs(args.run)):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            run = run_once(side, ROOT / sides[side]["dir"], workload, seed, seconds)
            run["pair"] = pair
            runs.append(run)
            print("pair %2d %-18s seed %-3d %-6s %s" % (
                pair, workload, seed, side,
                run.get("metrics", {}).get("throughput_per_s", run.get("error", "?"))),
                file=sys.stderr, flush=True)

    doc = {
        "command": [Path(sys.argv[0]).name] + (argv if argv is not None else sys.argv[1:]),
        "seconds": seconds,
        "sides": sides,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.platform()},
        "all_correct": all(r.get("correct") and not r.get("failed") for r in runs),
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if doc["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
