"""Traced gaussforge CLI child: ``python3 perfbench/cli_launcher.py <subcommand> ...``.

Installs the span wrappers of ``spans.py`` and then runs
``gaussforge.cli.main`` with the given arguments.  On exit it writes
``{"interpreter_ms", "import_ms", "spans"}`` as JSON to the file named by
``PERFBENCH_SPANS``; ``PERFBENCH_SPAWN`` holds the parent's
``time.monotonic()`` just before the child was started.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402

import spans  # noqa: E402


def main():
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    start = time.perf_counter()
    import gaussforge
    import gaussforge.cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = spans.Tracer()
    spans.install(tracer, gaussforge)
    try:
        gaussforge.cli.main(prog_name="gaussforge")
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as out:
            json.dump({"interpreter_ms": (STARTED - spawned) * 1e3, "import_ms": import_ms,
                       "spans": tracer.spans}, out)


if __name__ == "__main__":
    main()
