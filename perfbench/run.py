"""orthoprob benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for S seconds and prints, as its last stdout line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run alternates untraced and traced passes and reports the
per-layer ones.  The line before it records the machine, the versions and
the source revision the numbers belong to.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli", "queries", "harness", "chain_deep", "chain_shallow")
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
# Failure messages echoed to stderr per run.
MAX_REPORTED = 5

END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
)


def per_layer_units() -> dict:
    # Self time is reported as a share of the traced passes' wall time
    # (``trace.pass_s`` gives the scale), so an entry a workload never
    # calls reads 0 as a share rather than as a constant time.
    units = {}
    for entry in spans.ENTRIES:
        units[f"{entry}.calls"] = "count"
        units[f"{entry}.self_frac"] = "frac"
        units[f"{entry}.errors"] = "count"
    units.update({"cli.interp_start_ms": "ms", "cli.import_ms": "ms",
                  "sampler.nodes_realized": "count", "sampler.branch_slots": "count",
                  "sampler.realized_ratio": "ratio", "trace.pass_s": "s",
                  "trace.overhead_frac": "frac"})
    return units


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; below 21 samples that would not exceed the median,
    so the maximum is reported as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 21:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def git_revision():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "orthoprob").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Checker:
    """Counts operations and judges each output.

    The first output for a key is verified against its oracle or golden
    record; later outputs for the key must match its fingerprint.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = {}

    def judge(self, op, out, error) -> bool:
        self.attempted += 1
        if error is not None:
            return self._fail(op.key, [f"raised {error!r}"])
        if self.reference.get(op.key) is None:
            problems = op.verify(out)
            if problems:
                return self._fail(op.key, problems)
            self.reference[op.key] = op.fingerprint(out)
            return True
        if op.fingerprint(out) != self.reference[op.key]:
            return self._fail(op.key, ["output differs from the verified output "
                                       "for the same input"])
        return True

    def _fail(self, key, problems) -> bool:
        self.failed += 1
        if self.failed <= MAX_REPORTED:
            print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
        return False


def run_op(op) -> tuple:
    """(output, error, seconds) of one timed operation."""
    start = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, error = None, exc
        traceback.print_exc(file=sys.stderr)
    return out, error, time.perf_counter() - start


def run_pass(ops, recorder=None) -> list:
    """Run ops back to back; returns (op, output, error, seconds) each."""
    results = []
    for number, op in enumerate(ops):
        if recorder is not None:
            recorder.op = number
        results.append((op, *run_op(op)))
    return results


def timed_at_reference(meter: pace.Pace, fn):
    """(result, error, scaled seconds, raw seconds) of ``fn()``."""
    out, error, start, seconds = meter.run(fn)
    return out, error, seconds * meter.scale(start, start + seconds), seconds


def child(cmd: list, env: dict):
    """A call that runs ``cmd`` to completion, as the benchmark's own set-up."""
    return lambda: subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                                  capture_output=True, timeout=60)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import workloads

    core = pace.pin_to_one_core()
    workload = workloads.WORKLOADS[name]()
    env = workloads.child_env()
    steps = {"import": child([sys.executable, "-c", "import orthoprob"], env),
             "setup": lambda: workload.setup(seed)}
    if trace:
        steps["start"] = child([sys.executable, "-c", "pass"], env)
    setup, setup_raw = {step: [] for step in steps}, {step: [] for step in steps}
    with pace.Pace() as meter:
        for _ in range(SETUP_REPEATS):
            for step, fn in steps.items():
                _, error, scaled, raw = timed_at_reference(meter, fn)
                if error is not None:
                    raise error
                setup[step].append(scaled)
                setup_raw[step].append(raw)

    checker = Checker()
    info = {"workload": name, "seed": seed, "trace": int(trace), "core": core}
    if hasattr(workload, "notes"):
        info.update(workload.notes())
    began = time.perf_counter()
    if not trace:
        # Whole passes only, so every run times the same operation mix: a
        # pass starts only if one as long as the last still fits.
        latencies, raw, work, index, pass_s = [], [], 0.0, 0, 0.0
        with pace.Pace() as meter:
            while index == 0 or time.perf_counter() - began + pass_s <= seconds:
                pass_began = time.perf_counter()
                for op in workload.pass_ops(index):
                    out, error, scaled, seconds_raw = timed_at_reference(meter, op.run)
                    if error is not None:
                        traceback.print_exception(error, file=sys.stderr)
                    latencies.append(scaled)
                    raw.append(seconds_raw)
                    if checker.judge(op, out, error):
                        work += op.work(out)
                    # Keep one output alive at a time, as peak memory counts it.
                    del out
                pass_s = time.perf_counter() - pass_began
                index += 1
        tail_value, tail_pct = tail(latencies)
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        values = {
            "setup_s": statistics.median(setup["import"]) + statistics.median(setup["setup"]),
            "p50_ms": 1e3 * statistics.median(latencies),
            "tail_ms": 1e3 * tail_value,
            "work_per_s": work / sum(latencies),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "ops_ok_frac": (checker.attempted - checker.failed) / checker.attempted,
        }
        units = dict(END_TO_END)
        info.update(ops=len(latencies), passes=index, tail_percentile=tail_pct,
                    probes=len(meter.ms), probe_ms=statistics.median(meter.ms),
                    unscaled={"setup_s": (statistics.median(setup_raw["import"])
                                          + statistics.median(setup_raw["setup"])),
                              "p50_ms": 1e3 * statistics.median(raw),
                              "tail_ms": 1e3 * tail(raw)[0],
                              "work_per_s": work / sum(raw)})
    else:
        untraced, traced, totals = [], [], Counter()
        while True:
            results = run_pass(workload.pass_ops(0))
            untraced.append(sum(r[3] for r in results))
            for op, out, error, _ in results:
                checker.judge(op, out, error)
            if workload.in_process:
                recorder = spans.Recorder()
                with spans.tracing(recorder):
                    results = run_pass(workload.pass_ops(0), recorder)
                totals.update(spans.summarize(recorder.spans))
            else:
                results = run_pass(workload.pass_ops(0, traced=True))
            traced.append(sum(r[3] for r in results))
            for op, out, error, _ in results:
                if checker.judge(op, out, error) and not workload.in_process:
                    totals.update(out.spans)
            if time.perf_counter() - began >= seconds:
                break
        units = per_layer_units()
        values = {key: totals[key] / len(traced) for key in units}
        for entry in spans.ENTRIES:
            values[f"{entry}.self_frac"] = totals[f"{entry}.self_s"] / sum(traced)
        values["trace.pass_s"] = statistics.median(traced)
        slots = values["sampler.branch_slots"]
        values["sampler.realized_ratio"] = (values["sampler.nodes_realized"] / slots
                                            if slots else 0.0)
        interp = statistics.median(setup["start"])
        values["cli.interp_start_ms"] = 1e3 * interp
        values["cli.import_ms"] = 1e3 * (statistics.median(setup["import"]) - interp)
        values["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1.0)
        info.update(untraced_passes=len(untraced), traced_passes=len(traced))

    info.update(python=platform.python_version(), numpy=numpy.__version__,
                cpu_count=os.cpu_count(), blas_threads=BLAS_THREADS,
                git_revision=git_revision(), source_sha256=source_digest())
    print(json.dumps({"info": info}))
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {key: {"value": values[key], "unit": unit}
                        for key, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "orthoprob" / "__init__.py").is_file():
        print(f"error: no orthoprob sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orthoprob

    if Path(orthoprob.__file__).resolve().parent != (SRC / "orthoprob").resolve():
        print(f"error: imported orthoprob from {orthoprob.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
