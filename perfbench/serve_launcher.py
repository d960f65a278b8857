"""Start ``qcoral serve`` with or without the per-layer wrappers installed.

Run by ``run.py`` as::

    python3 perfbench/serve_launcher.py EXIT_JSON traced|plain SERVE_ARGS...

With ``traced`` it installs the wrappers of :mod:`layers` first.  Either
way it then calls ``repro.cli.main(["serve", *SERVE_ARGS])``, and once the
server has drained (SIGTERM) it writes the process's peak RSS -- and, when
traced, the per-layer numbers -- to ``EXIT_JSON``.

The server is pinned to one CPU.  Its request threads share one
interpreter lock, and unpinned, which thread wins it swings with where the
host places them: on a 2-vCPU machine the median served latency of the
same traffic read 0.15 s or 0.57 s depending on what had run just before.
"""

from __future__ import annotations

import json
import os
import resource
import sys


def main(argv) -> int:
    exit_path, mode, serve_args = argv[0], argv[1], argv[2:]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # see the module docstring
    from repro.cli import main as cli_main

    import layers

    installation = layers.install(layers.Tracer()) if mode == "traced" else None
    try:
        status = cli_main(["serve", *serve_args])
    finally:
        if installation is not None:
            installation.uninstall()
    record = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if installation is not None:
        record["layers"] = installation.metrics()
    with open(exit_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
