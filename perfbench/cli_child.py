"""Run one orthoprob CLI command with span recording.

Usage: python perfbench/cli_child.py COMMAND [ARGS...]

stdout and the exit code are the CLI's own; the span summary is written
as the last stderr line, prefixed with the marker the benchmark looks for.
"""

import json
import sys

import spans


def main(argv) -> int:
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        import orthoprob.cli

        try:
            code = orthoprob.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    print(spans.CHILD_MARK + json.dumps(spans.summarize(recorder.spans)), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
