"""Set-up probe: from a fresh interpreter, import koszulrank and build one
workload's fixtures, then print ``ready``.  ``run.py`` times spawn-to-ready.

    python3 perfbench/setup_probe.py <workload> <scratch dir>
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workloads.make_workload(sys.argv[1]).setup(Path(sys.argv[2]))
    print("ready", flush=True)
