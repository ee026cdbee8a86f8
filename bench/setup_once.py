"""Time one benchmark set-up in a fresh interpreter.

    python3 bench/setup_once.py WORKLOAD SEED

Prints the seconds taken to import ccsym, parse the workload's rings and
build its first ops.  ccsym is imported before any benchmark module, so the
standard-library modules it pulls in are charged to it.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import ccsym  # noqa: F401

    imported = time.perf_counter() - start

    import run

    start = time.perf_counter()
    run.set_up(sys.argv[1], int(sys.argv[2]))
    print(imported + time.perf_counter() - start)
