"""One set-up sample: start a fresh interpreter, import the program and its
dependencies, write a workload's job configs, then print ``ready``.

run.py times each probe from process start to that line and reports the
median as setup_s.  Usage: python3 bench/setup_probe.py WORKLOAD WORKDIR
"""

import sys
from pathlib import Path

from checkout import use_checkout_src

use_checkout_src()

import workloads  # noqa: E402  (needs the checkout's src on sys.path)

workloads.prepare(workloads.WORKLOADS[sys.argv[1]](), Path(sys.argv[2]))
print("ready", flush=True)
