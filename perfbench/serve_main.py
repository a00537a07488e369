"""``repro-cpg serve`` with every layer entry point traced.

Usage: ``python3 perfbench/serve_main.py TRACE_PATH [serve options...]``.
Runs the CLI's ``serve`` command in this process with the layer wrappers of
:mod:`layers` installed, and writes the recorded spans and counters to
``TRACE_PATH`` once the server has shut down.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import Recorder  # noqa: E402


def main() -> int:
    from repro import cli

    trace_path, arguments = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    with recorder.installed():
        status = cli.main(["serve", *arguments])
    recorder.write(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
