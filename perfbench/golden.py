"""Record the golden outputs the benchmark checks against.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/golden.py

It rewrites perfbench/cli_inputs/ from the seeded generator, records the
stdout of every CLI invocation under perfbench/golden/cli/, and records
the axiom harness's check counts per algebra and seed in
perfbench/golden/harness_counts.json.  A later commit must reproduce
these byte for byte; re-record only when an output is meant to change.
"""

import json
import subprocess
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import gen  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workloads.CLI_INPUTS.mkdir(exist_ok=True)
    for kind, doc in gen.cli_input_docs().items():
        (workloads.CLI_INPUTS / f"{kind}.json").write_text(doc.text, encoding="utf-8")

    out_dir = workloads.GOLDEN / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in workloads.CLI_INVOCATIONS:
        done = subprocess.run([sys.executable, "-m", "orthoprob", *argv],
                              cwd=workloads.ROOT, env=workloads.child_env(),
                              capture_output=True, timeout=workloads.SUBPROCESS_TIMEOUT_S)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}\n{done.stderr.decode()}",
                  file=sys.stderr)
            return 1
        (out_dir / f"{name}.out").write_bytes(done.stdout)

    harness = workloads.HarnessWorkload()
    harness.build(0)
    counts = {}
    for index in range(len(gen.HARNESS_SEEDS)):
        for op in harness.pass_ops(index):
            report = op.run()
            if not report.passed:
                print(f"{op.key}: axiom failures {report.messages}", file=sys.stderr)
                return 1
            counts[op.key] = report.checks
    path = workloads.GOLDEN / "harness_counts.json"
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
