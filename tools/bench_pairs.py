"""Run alternating parent/change benchmark pairs and summarize them.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --parent ../parent --change . --workloads decomp \
        --seeds 1 2 3 --seconds 30 --reports reports --out BENCH_<n>.json

For each workload and seed, ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` runs once in the parent checkout and once in the
change checkout.  The side that runs first alternates from one seed to the
next, starting with the parent, so a drift in the host's speed falls on
both sides alike.  ``run.py`` writes its report to
``perfbench/out/W_seedS_trace0.json`` inside its checkout and overwrites it
on the next run of that workload and seed, so each report is copied to
``REPORTS/<side>/`` right after its run.  Then ``tools/bench_summary.py``
summarizes the copies into ``--out``.  A run that fails stops the pairs
with its exit code.  perfbench is only read.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: the benchmark command, run from the root of each checkout
RUN = [sys.executable, "perfbench/run.py"]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True, help="root of the change checkout")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--reports", type=Path, required=True,
                   help="directory that keeps a copy of every report")
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def _run(side: str, root: Path, workload: str, seed: int, seconds: float, reports: Path):
    """One benchmark run; the path of its copied report, or its exit code."""
    argv = [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=root, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        print(f"bench_pairs: {side} {workload} seed {seed} exited {done.returncode}",
              file=sys.stderr)
        return done.returncode
    name = f"{workload}_seed{seed}_trace0.json"
    copy = reports / side / name
    shutil.copyfile(root / "perfbench" / "out" / name, copy)
    print(f"{side} {workload} seed {seed}: {copy}", flush=True)
    return copy


def main(argv=None) -> int:
    args = _parse(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    copies: dict = {side: [] for side in roots}
    for side in roots:
        (args.reports / side).mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                copy = _run(side, roots[side], workload, seed, args.seconds, args.reports)
                if isinstance(copy, int):
                    return copy
                copies[side].append(copy)
    summary = [sys.executable, str(HERE / "bench_summary.py"), "--parent", *map(str, copies["parent"]),
               "--change", *map(str, copies["change"]), "--out", str(args.out)]
    return subprocess.run(summary).returncode


if __name__ == "__main__":
    sys.exit(main())
