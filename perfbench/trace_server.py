"""``repro serve`` with the outside-in span recorder installed.

    python3 perfbench/trace_server.py SPANS.json serve --port 0 ...

Installs the probes of :func:`spans.install_repro_probes`, then runs
the CLI exactly as ``python -m repro`` would, so the server starts on
the same path (``recover_service`` when there is a data dir, then
``serve_tcp``).  The spans are written to ``SPANS.json`` at exit, and
also on SIGUSR1 so that a caller can collect them before a SIGKILL.
"""

from __future__ import annotations

import signal
import sys

from spans import SpanRecorder, install_repro_probes


def main(argv: list[str]) -> int:
    path, cli_args = argv[0], argv[1:]
    from repro import cli

    recorder = SpanRecorder()
    install_repro_probes(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(path))
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
