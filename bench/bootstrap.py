"""Run the dendrikit command line from this checkout's sources.

The package's console script is not installed where the benchmark runs, so
each CLI operation starts ``python3 bench/bootstrap.py <args>``.

When ``DENDRIKIT_BENCH_READY_FD`` names an inherited pipe, the moment the
command line is imported and about to dispatch (``time.perf_counter()``, the
same clock in every process) is written to it, so the caller can split a
command's latency into start-up and the command's own work.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dendrikit.cli import main  # noqa: E402

ready_fd = os.environ.pop("DENDRIKIT_BENCH_READY_FD", None)
if ready_fd is not None:
    os.write(int(ready_fd), repr(time.perf_counter()).encode())
    os.close(int(ready_fd))

main(prog_name="dendrikit")
