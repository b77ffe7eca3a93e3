"""Set-up probe: import trigwdvv, build one workload's configuration, print ``ready``.

``run.py`` starts this in a fresh interpreter and times it up to the
``ready`` line; that interval is the workload's set-up time.

Usage: python3 benchmark/setup_probe.py WORKLOAD
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trigwdvv import cli  # noqa: E402

import workloads  # noqa: E402

workloads.build(cli, workloads.WORKLOADS[sys.argv[1]])
print("ready", flush=True)
