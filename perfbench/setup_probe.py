"""Set-up probe: start, import the CLI, parse a config, print the clock.

    python3 perfbench/setup_probe.py <src-dir> <config.json>

Prints time.monotonic() once ready to run the first point; the parent
subtracts its own reading taken just before starting this process.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import bec_cavity.cli  # noqa: E402,F401
from bec_cavity.config import load_config  # noqa: E402

load_config(sys.argv[2])
print(time.monotonic())
