"""pipecorr benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in a closed loop with a single client, from this one
process and with no thread pool, until --seconds have passed and at
least MIN_OPS ops have run. Every output is then checked against the
independent oracles in oracles.py. With --trace 0 the last line of
standard output is the end-to-end result; with --trace 1 it is the
per-layer result of a traced run. The lines before it give every
metric by name with its unit, and the environment. See README.md.
"""

import os

# Pinned before numpy loads; every child process inherits them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REQUIRED = (SRC / "pipecorr" / "__init__.py", ROOT / "data" / "corrosion_positions.csv")
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

# workloads.WORKLOADS, which imports pipecorr and so loads only after REQUIRED is checked.
WORKLOAD_NAMES = ("cli_survey", "segment_batch", "long_survey", "calibration_study")
SETUP_PROBES = 5
MIN_OPS = 11  # op_tail_s needs a sample with at least ten samples beyond it
TRACED_OPS = {"cli_survey": 8, "segment_batch": 3, "long_survey": 3, "calibration_study": 3}
CHILD_TIMEOUT_S = 120

# Per-layer metrics read straight off the spans: "<span name>.<field>".
SPAN_METRICS = (
    "cli.main.calls", "cli.main.self_s", "cli.ingest_csv.total_s",
    "inference.RecordSequence.calls", "inference.RecordSequence.self_s",
    "inference.fit_mle.calls", "inference.fit_mle.self_s",
    "forecast.predict_mean.calls", "forecast.predict_mean.self_s",
    "forecast.predict_quantile.calls", "forecast.predict_quantile.self_s",
    "numerics.expectation_semi_infinite.calls", "numerics.expectation_semi_infinite.self_s",
    "numerics.fixed_order_expectation.self_s", "numerics.gamma_quantile.self_s",
    "diagnostics.gof_report.calls", "diagnostics.gof_report.total_s",
    "simulation.rng_setup.calls", "simulation.rng_setup.total_s",
    "simulation.estimator_study.self_s",
)
MODEL_SPANS = ("model.cumulative_intensity", "model.inverse_cumulative_intensity",
               "model.log_likelihood")


@dataclass
class Op:
    index: int
    inputs: object
    seconds: float
    output: object
    error: str = None
    rss_kb: int = 0


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError("child process still running after %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_probe(workload, seed):
    """(seconds from spawn to ready, probe report) of one set-up probe."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            with deadline(CHILD_TIMEOUT_S):
                line = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                rest, err = proc.communicate()
        except BaseException:
            proc.kill()
            raise
    if proc.returncode or err or rest.strip() or not line:
        raise RuntimeError("set-up probe failed (exit %s): %s" % (proc.returncode, err.strip()))
    return setup_s, json.loads(line)


def run_child(cmd):
    """(wall seconds, exit code, stdout, stderr, peak RSS in KiB) of one child."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err)
        try:
            with deadline(CHILD_TIMEOUT_S):
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return seconds, proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


def call_in_process(fn, inputs):
    """(seconds, result, error) of fn(inputs); a warning or stderr write is an error."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result, error = fn(inputs), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - t0
    if error is None and (caught or stderr.getvalue()):
        error = "wrote to stderr: %s" % (caught[0].message if caught else stderr.getvalue().strip())
    return seconds, result, error


def run_op(workload, index, inputs, tracer=None, spans_path=None):
    if workload == "cli_survey":
        if spans_path is None:
            cmd = [sys.executable, "-m", "pipecorr", *inputs["argv"]]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_path), *inputs["argv"]]
        seconds, code, out, err, rss_kb = run_child(cmd)
        error = "exit code %d" % code if code else None
        if error is None and err:
            error = "wrote to stderr: %s" % err.strip()
        return Op(index, inputs, seconds, out, error, rss_kb)
    fn = workloads.OPS[workload]
    if tracer is not None:
        fn = _enabled(tracer, fn)
    seconds, result, error = call_in_process(fn, inputs)
    output = workloads.extract(workload, result) if error is None else None
    return Op(index, inputs, seconds, output, error)


def _enabled(tracer, fn):
    def call(inputs):
        tracer.enabled = True
        try:
            return fn(inputs)
        finally:
            tracer.enabled = False

    return call


def closed_loop(workload, pool, seconds, min_ops):
    ops = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(run_op(workload, len(ops), pool[len(ops) % len(pool)]))
    return ops


def traced_pass(workload, seed, pool):
    """The first TRACED_OPS ops again, traced: (ops, span summary, counters)."""
    import tracing

    ops, summaries, counters = [], [], None
    if workload == "cli_survey":
        spans_dir = OUT / "spans" / ("%s-seed%d" % (workload, seed))
        spans_dir.mkdir(exist_ok=True)
        counters = Counter()
        for i in range(TRACED_OPS[workload]):
            path = spans_dir / ("op%d.npz" % i)
            ops.append(run_op(workload, i, pool[i % len(pool)], spans_path=path))
            spans, c = tracing.load_summary(path)
            summaries.append(spans)
            counters.update(c)
        return ops, tracing.merge(summaries), counters
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(TRACED_OPS[workload]):
            ops.append(run_op(workload, i, pool[i % len(pool)], tracer=tracer))
    finally:
        tracer.uninstall()
    tracer.dump(OUT / "spans" / ("%s-seed%d.npz" % (workload, seed)))
    spans, counters = tracer.summary()
    return ops, spans, counters


def check(workload, ops, pool_size):
    """Check every op that did not already fail.

    The first good output for each pool input goes to the oracles; every
    later op on that input must reproduce it exactly.
    """
    import oracles

    checked = {}
    for op in ops:
        if op.error is not None:
            continue
        slot = op.index % pool_size
        if slot in checked:
            if not _same(op.output, checked[slot]):
                op.error = "output differs from the oracle-checked output of the same input"
            continue
        if workload == "cli_survey":
            op.error = oracles.check_cli(op.inputs["argv"], op.output, op.inputs["data"])
        elif workload == "segment_batch":
            op.error = oracles.check_segment_batch(op.inputs, op.output)
        elif workload == "long_survey":
            op.error = oracles.check_long_survey(op.inputs, op.output)
        else:
            op.error = oracles.check_calibration_study(op.output, oracles.study(op.inputs))
        if op.error is None:
            checked[slot] = op.output


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def end_to_end(workload, ops, setup_times, rss_kb):
    """Timings are over the ops that passed; failures show in failed/attempted."""
    passed = [op for op in ops if op.error is None] or ops
    times = sorted(op.seconds for op in passed)
    tail_rank = max(1, len(times) - 10)  # 1-based rank with ten samples beyond it
    completed = sum(workloads.units(workload, op.inputs) for op in ops if op.error is None)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (times[tail_rank - 1], "s"),
        "throughput_per_s": (completed / sum(times), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "op_p50_s": "median of %d passed ops" % len(times),
        "op_tail_s": "p%.1f of %d ops, the highest with ten beyond it"
                     % (100.0 * tail_rank / len(times), len(times)),
        "throughput_per_s": "%s per second" % workloads.UNIT[workload],
        "setup_s": "median of %d fresh interpreters" % len(setup_times),
        "peak_rss_mb": ("max over the CLI child processes" if workload == "cli_survey"
                        else "ru_maxrss of this process"),
    }
    return metrics, notes


def per_layer(workload, spans, counters, traced_ops, untraced_ops, pool_size, probe_reports):
    def span(metric):
        name, field = metric.rsplit(".", 1)
        return spans.get(name, {}).get(field, 0)

    records_in = sum(workloads.records_in(workload, op.inputs) for op in traced_ops)
    evaluations = counters["numerics.quad_evaluations"]
    # Untraced ops on the same pool entries as the traced ones.
    slots = {op.index % pool_size for op in traced_ops}
    baseline = [op.seconds for op in untraced_ops if op.index % pool_size in slots]
    metrics = {
        "import.pipecorr_s": (statistics.median(p["import_s"] for p in probe_reports), "s"),
        "import.modules_loaded": (probe_reports[0]["modules_loaded"], "count"),
    }
    metrics.update({m: (span(m), "count" if m.endswith(".calls") else "s") for m in SPAN_METRICS})
    metrics.update({
        "inference.records_validated": (counters["inference.records_validated"], "count"),
        "inference.validation_redundancy":
            (counters["inference.records_validated"] / records_in, "ratio"),
        "model.calls": (sum(spans.get(n, {}).get("calls", 0) for n in MODEL_SPANS), "count"),
        "model.self_s": (sum(spans.get(n, {}).get("self_s", 0.0) for n in MODEL_SPANS), "s"),
        "numerics.quad_evaluations": (evaluations, "count"),
        "numerics.quad_useful_ratio":
            (counters["numerics.quad_final_order"] / evaluations if evaluations else 0.0,
             "ratio"),
        "trace.overhead_s": (statistics.median(op.seconds for op in traced_ops)
                             - statistics.median(baseline), "s"),
    })
    return metrics


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed, inputs_sha256):
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "pipecorr").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": workload,
        "seed": seed,
        "inputs_sha256": inputs_sha256,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one pipecorr benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print("perfbench: error: %s not found; run from the root of a pipecorr checkout"
              % ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    global workloads
    import workloads

    for sub in ("spans", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    workload, seed = args.workload, args.seed
    probes = [run_probe(workload, seed) for _ in range(SETUP_PROBES)]
    setup_times = [s for s, _ in probes]
    probe_reports = [r for _, r in probes]

    pool = workloads.build_inputs(workload, seed, ROOT)
    ops = closed_loop(workload, pool, args.seconds, MIN_OPS)
    if workload == "cli_survey":
        rss_kb = max(op.rss_kb for op in ops)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    traced_ops = []
    if args.trace:
        traced_ops, spans, counters = traced_pass(workload, seed, pool)
    all_ops = ops + traced_ops
    check(workload, all_ops, len(pool))

    inputs_sha256 = workloads.digest(pool)
    problems = ["op %d: %s" % (op.index, op.error) for op in all_ops if op.error]
    if any(r["inputs_sha256"] != inputs_sha256 for r in probe_reports):
        problems.append("set-up probe built different inputs than the timed run")
    if len({r["modules_loaded"] for r in probe_reports}) != 1:
        problems.append("set-up probes loaded different module counts")
    failed = sum(1 for op in all_ops if op.error)

    metrics, notes = end_to_end(workload, ops, setup_times, rss_kb)
    lines = ["%-20s %.6g %s%s" % (name, value, unit, "  (%s)" % notes[name])
             for name, (value, unit) in metrics.items()]
    lines.append("%-20s %.6g 1  (%d failed of %d attempted)"
                 % ("failed_frac", failed / len(all_ops), failed, len(all_ops)))
    if args.trace:
        metrics = per_layer(workload, spans, counters, traced_ops, ops, len(pool), probe_reports)
        lines.append("per-layer, totals over %d traced ops:" % len(traced_ops))
        lines += ["  %-44s %.6g %s" % (name, value, unit)
                  for name, (value, unit) in metrics.items()]
    env = environment(workload, seed, inputs_sha256)
    lines += ["problem: %s" % p for p in problems]
    lines.append("environment: %s" % json.dumps(env, sort_keys=True))

    result = {
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, environment=env, problems=problems,
                  op_seconds=[op.seconds for op in all_ops], setup_seconds=setup_times)
    (OUT / "results" / ("%s-seed%d-trace%d.json" % (workload, seed, args.trace))).write_text(
        json.dumps(record, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
