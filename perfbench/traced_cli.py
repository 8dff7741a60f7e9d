"""Run ``diracvortex`` CLI arguments with the span recorder installed.

    python perfbench/traced_cli.py profile --l 2 --p 3

stdout is the command's own; the span summary goes to stderr as the last
line, after ``workloads.TRACE_MARKER``.  The exit code is the command's.
"""

import json
import sys

import diracvortex.cli as cli

import spans
from workloads import TRACE_MARKER


def main(argv):
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        code = cli.main(argv)
    finally:
        recorder.uninstall()
        sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(recorder.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
