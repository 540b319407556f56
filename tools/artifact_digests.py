"""Exit code, artifact digest and error line of every benchmark request.

Usage, from the root of a checkout::

    python3 tools/artifact_digests.py epsdim decomp regress --seeds 1 2 3 > digests.txt

Every request that ``perfbench/workloads.py`` builds for the given workloads
and seeds runs through ``tensorsplit.cli.main`` in this process, with the
package imported from this checkout's ``src`` and one BLAS thread, as in the
benchmark.  Configs and sample files are written by the benchmark's own
``worker.Bench.prepare`` into a temporary directory.  One line per request
gives the workload, seed, request number and label, the exit code, the
sha256 of the artifact (``-`` when none was written) and the request's
``error:`` lines.  Two checkouts that should write the same artifacts print
the same lines, so comparing them is one ``diff``.  Nothing is timed, and
perfbench is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("epsdim", "decomp", "regress")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="+", choices=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    return p.parse_args(argv)


def _line(req, main, work: Path) -> str:
    """Run one prepared request; its exit code, artifact digest and error lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = main(req.argv)
        except Exception as exc:  # a crash is one result line, not the end of the listing
            rc = f"crash:{type(exc).__name__}"
    try:
        digest = hashlib.sha256(req.out_path.read_bytes()).hexdigest()
        req.out_path.unlink()
    except FileNotFoundError:
        digest = "-"
    errors = [line.replace(str(work), "<work>") for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    return " ".join([f"rc={rc}", f"sha256={digest}", *errors])


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import tensorsplit.cli as cli
    from worker import Bench
    from workloads import WORKLOADS as BUILDERS

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"tensorsplit imported from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        bench = Bench(work)
        for workload in args.workloads:
            for seed in args.seeds:
                reqs = BUILDERS[workload](seed)
                bench.prepare(reqs, f"{workload}{seed}_")
                for i, req in enumerate(reqs):
                    print(f"{workload} {seed} {i} {req.label} {_line(req, cli.main, work)}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
