"""Set-up probe: one fresh process that gets the package ready for requests.

Run by ``run.py`` as ``python3 perfbench/probe.py START_NS``, where START_NS
is CLOCK_MONOTONIC just before the process was spawned.  It imports the CLI
(and with it every layer and its module-level tables), runs the ``catalog``
self-check and prints ``ready ELAPSED_NS EXIT_CODE VERIFIED_LINES``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def catalog(cli_main) -> tuple[int, int]:
    """Exit code of ``catalog`` and the number of VERIFIED lines it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["catalog"])
    return code, sum(1 for line in out.getvalue().splitlines()
                     if line.split()[1:2] == ["VERIFIED"])


def main() -> None:
    start = int(sys.argv[1])
    from qutrit_exact.cli.main import main as cli_main

    code, verified = catalog(cli_main)
    elapsed = time.clock_gettime_ns(time.CLOCK_MONOTONIC) - start
    print(f"ready {elapsed} {code} {verified}", flush=True)


if __name__ == "__main__":
    main()
