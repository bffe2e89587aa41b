"""Time each job of one bench workload in process, for two source trees.

Each round starts one fresh interpreter per tree, in alternating order
(A then B, then B then A), so slow phases of a shared machine fall on both
sides.  An interpreter loads the package from its tree's ``src`` through
``bench/checkout.py`` (which refuses any other copy), writes the
workload's job configs to a temporary directory, and runs the bench's own
pass (``bench/workloads.py``'s ``run_pass``, with its checks) --repeat
times with the same seeds; it keeps each job's fastest time.  A failing
job stops the run.  The table gives, per job, the range of those minima
over the rounds and the change of the fastest B against the fastest A.
Run from the root of a checkout:

    python3 tools/jobtimes.py PARENT_ROOT . --workload montecarlo --rounds 4 --repeat 5

A and B are checkout roots holding ``src/mesosettle``; the job lists and
checks come from this checkout's ``bench``, which is never edited here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checkout  # noqa: E402  (loads no mesosettle and no numpy)

# Both sides run the same job inputs; which seed does not matter.
SEED = 1


def child(src: Path, workload: str, jobs: list[str], repeat: int) -> dict:
    """{job name: fastest of repeat bench passes in seconds} in this process."""
    checkout.SRC = src  # use_checkout_src pins threads and checks this tree
    try:
        checkout.use_checkout_src()
    except checkout.MissingProgram as exc:
        sys.exit(str(exc))
    import checks
    import workloads

    listed = workloads.WORKLOADS[workload]()
    unknown = sorted(set(jobs) - {job.name for job in listed})
    if unknown:
        sys.exit(f"no job {', '.join(unknown)} in workload {workload}")
    listed = [job for job in listed if not jobs or job.name in jobs]
    refs = checks.load_references(listed)
    best: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        prepared = workloads.prepare(listed, Path(tmp))
        for _ in range(repeat):
            for rec in workloads.run_pass(prepared, SEED, 0, refs).jobs:
                if rec.problems:
                    sys.exit(f"{rec.name} failed: {'; '.join(rec.problems)}")
                best[rec.name] = min(rec.seconds, best.get(rec.name, rec.seconds))
    return best


def run_side(root: Path, args) -> dict:
    cmd = [
        sys.executable, __file__, "--child", str(root / "src"), "--workload", args.workload,
        "--repeat", str(args.repeat), *(["--jobs", *args.jobs] if args.jobs else []),
    ]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"jobtimes: {root}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def table(a: list[dict], b: list[dict]) -> str:
    def span(runs, name):
        ms = [r[name] * 1e3 for r in runs]
        return f"{min(ms):.1f}-{max(ms):.1f}"

    lines = [f"{'job':<26} {'A ms':>13} {'B ms':>13} {'B/A':>7}"]
    for name in a[0]:
        change = min(r[name] for r in b) / min(r[name] for r in a) - 1
        lines.append(f"{name:<26} {span(a, name):>13} {span(b, name):>13} {change:>+7.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", nargs="?", type=Path, help="checkout root of side A")
    p.add_argument("b", nargs="?", type=Path, help="checkout root of side B")
    p.add_argument("--workload", required=True, choices=["analytic", "montecarlo", "rcline"])
    p.add_argument("--jobs", nargs="+", default=[], help="only these job names")
    p.add_argument("--rounds", type=int, default=3, help="processes per side")
    p.add_argument("--repeat", type=int, default=5, help="runs of each job per process")
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.workload, args.jobs, args.repeat)))
        return 0
    if args.a is None or args.b is None:
        p.error("give the checkout roots of sides A and B")
    a, b = [], []
    for k in range(args.rounds):
        order = [(args.a, a), (args.b, b)]
        for root, runs in order if k % 2 == 0 else order[::-1]:
            runs.append(run_side(root.resolve(), args))
    print(table(a, b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
