"""One benchmark process: set up, then run a workload as a closed loop.

Started by ``run.py``; not meant to be run by hand.  The process imports the
package from the checkout's ``src``, builds the seeded request list, writes
its configs and sample files, warms up with one small request per
subcommand and prints ``READY``.  ``run.py`` answers ``go`` (measure) or
``exit`` (the process only served to time the set-up).

The loop has one client: each request is an in-process call of
``tensorsplit.cli.main`` and the next one starts when it returns.  The loop
repeats the whole request list until ``--seconds`` are used up, so every
pass sends the same mix.  Artifacts are read back between requests, outside
the timed calls, and checked by ``oracles.py`` after the loop.  Also
between requests, the kernel of ``calibrate.py`` is timed, to scale each
latency to machine speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import calibrate  # next to this file, like oracles and tracer


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    return p.parse_args(argv)


def _write_samples(path: Path, X, Y):
    header = [f"x{k + 1}" for k in range(X.shape[1])] + [f"y{l + 1}" for l in range(Y.shape[1])]
    lines = [",".join(header)]
    for x, y in zip(X.tolist(), Y.tolist()):
        lines.append(",".join(repr(v) for v in x + y))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Bench:
    def __init__(self, workdir: Path):
        self.workdir = workdir

    def prepare(self, reqs, tag: str):
        """Write configs and sample files; fix each request's argv."""
        for i, req in enumerate(reqs):
            cfg_path = self.workdir / f"{tag}{i}.json"
            out_path = self.workdir / f"{tag}{i}.out"
            cfg_path.write_text(json.dumps(req.cfg), encoding="utf-8")
            for name, (X, Y) in req.files.items():
                _write_samples(self.workdir / name, X, Y)
            req.argv = [req.kind, "--config", str(cfg_path), "--out", str(out_path), *req.flags]
            req.out_path = out_path

    def call(self, req, main) -> tuple[int | None, int, bytes | None]:
        """One timed request: (exit code or None on a crash, ns, artifact)."""
        start = time.perf_counter_ns()
        try:
            rc = main(req.argv)
        except Exception:  # a crash is a failed request, not a failed run
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter_ns() - start
        try:
            artifact = req.out_path.read_bytes()
            req.out_path.unlink()
        except FileNotFoundError:
            artifact = None
        return rc, elapsed, artifact

    def run_pass(self, reqs, first: dict, main, run: dict):
        """One pass through the request list; ``first`` keeps pass-1 outputs.

        The calibration kernel runs before the first request and after
        each one; see ``calibrate.py``.
        """
        walls, kernels = [], [calibrate.kernel_ns()]
        for i, req in enumerate(reqs):
            rc, ns, artifact = self.call(req, main)
            kernels.append(calibrate.kernel_ns())
            walls.append(ns)
            run["executions"][i] += 1
            if i not in first:
                first[i] = (rc, artifact)
            elif first[i] != (rc, artifact):
                run["unstable"].add(i)
        scaled = calibrate.scale_all(walls, kernels)
        run["wall"].extend(walls)
        run["latencies"].extend(scaled)
        run["kernel_ns"].extend(kernels)
        run["pass_ns"].append(sum(scaled))

    def run_passes(self, reqs, budget_s: float, first: dict, modes) -> list[dict]:
        """Alternate passes in each (main, context) mode until the budget is used.

        The order of the modes flips every round, so neither mode always
        gets the first, slower pass.
        """
        runs = [{"latencies": [], "wall": [], "kernel_ns": [], "pass_ns": [],
                 "executions": [0] * len(reqs), "unstable": set()} for _ in modes]
        rounds = list(zip(modes, runs))
        t0 = time.perf_counter()
        while True:
            tp = time.perf_counter()
            for (main, context), run in rounds:
                with context():
                    self.run_pass(reqs, first, main, run)
            rounds.reverse()
            now = time.perf_counter()
            if now - t0 + 0.5 * (now - tp) >= budget_s:
                return runs


def _typical(lat: list, n_reqs: int) -> dict:
    """Throughput and latency quantiles from each request's median over the passes."""
    typical = sorted(statistics.median(lat[i::n_reqs]) for i in range(n_reqs))
    p90 = statistics.quantiles(typical, n=10, method="inclusive")[8]
    return {
        "req_per_s": n_reqs / (sum(typical) / 1e9),
        "req_p50_ms": statistics.median(typical) / 1e6,
        "req_p90_ms": p90 / 1e6,
        "beyond_p90": sum(1 for x in typical if x > p90),
    }


def _end_to_end(run: dict, n_reqs: int) -> dict:
    """End-to-end metrics from the scaled latencies (see ``calibrate.py``).

    The machine's speed drifts by tens of percent over seconds; scaling
    each latency by the calibration kernel around it, and taking each
    request's median over its passes before pooling, keeps a slow stretch
    from moving the run's numbers.  The same figures from wall time are
    kept under ``wall``.
    """
    passes = len(run["latencies"]) // n_reqs
    out = _typical(run["latencies"], n_reqs)
    out["beyond_p90"] *= passes
    out.update(requests=len(run["latencies"]), passes=passes,
               wall=_typical(run["wall"], n_reqs))
    return out


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse(argv)
    proto = sys.stdout
    sys.stdout = sys.stderr  # the protocol owns stdout
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    t_import = time.perf_counter()
    import tensorsplit.cli as cli
    import_s = time.perf_counter() - t_import
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"tensorsplit imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 3

    import numpy
    import scipy

    import oracles
    from tracer import Tracer
    from workloads import WORKLOADS, warmup_requests

    workdir = Path(args.work) / f"w{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(workdir)
        reqs = WORKLOADS[args.workload](args.seed)
        bench.prepare(reqs, "r")
        warm = warmup_requests(args.workload)
        bench.prepare(warm, "warm")
        for req in warm:
            rc, _, _ = bench.call(req, cli.main)
            if rc != 0:
                print(f"warm-up {req.kind} exited {rc}", file=sys.stderr)
                return 4
        print(f"READY {import_s!r} {time.perf_counter() - t_start!r}", file=proto, flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0

        first: dict = {}
        result: dict = {}
        if args.trace:
            tracer = Tracer()

            def traced_main(argv):
                tracer.request += 1  # spans of one request share this id
                return tracer.call("cli.main", cli.main, argv)

            # untraced and traced passes alternate, so drift hits both alike
            runs = bench.run_passes(reqs, args.seconds, first,
                                    [(cli.main, nullcontext), (traced_main, tracer.installed)])
            untraced, traced = runs
            # the bundled configs: timed untraced for the cold-process split,
            # then traced once, so every layer runs in every traced run
            bundled = _bundled_argvs(root, bench.workdir)
            result["bundled_main_s"] = _main_s(bundled, cli.main)
            with tracer.installed():
                for argv in bundled.values():
                    traced_main(argv)
            n_traced = len(traced["latencies"])
            layers = tracer.layer_metrics(n_traced + len(bundled), "cli.main")
            sizes = [len(first[i][1] or b"") for i in range(len(reqs))]
            layers["cli.artifact_bytes"] = (
                sum(s * e for s, e in zip(sizes, traced["executions"])) / n_traced)
            layers["quadrature.rule_builds"] = _rule_builds()
            layers["trace.overhead_frac"] = (
                statistics.median(traced["pass_ns"]) / statistics.median(untraced["pass_ns"]) - 1.0)
            result["layers"] = layers
            result["span_table"] = tracer.span_table()
            result["spans"] = tracer.spans
        else:
            runs = bench.run_passes(reqs, args.seconds, first, [(cli.main, nullcontext)])
            result["end_to_end"] = _end_to_end(runs[0], len(reqs))

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = []
        for i, req in enumerate(reqs):
            rc, artifact = first[i]
            failures = oracles.check(req, rc, artifact)
            if any(i in run["unstable"] for run in runs):
                failures.append(oracles.Failure("determinism", "artifact changed between passes"))
            verdicts.append(failures)
        executions = [sum(run["executions"][i] for run in runs) for i in range(len(reqs))]
        failed = [i for i, f in enumerate(verdicts) if f]
        result.update({
            "peak_rss_mb": peak_rss_mb,
            "attempted": sum(executions),
            "failed": sum(executions[i] for i in failed),
            "unknown_failures": sum(1 for i in failed if not all(f.known for f in verdicts[i])),
            "failures": [
                {"request": i, "label": reqs[i].label, "known": f.known, "check": f.check,
                 "message": f.message}
                for i in failed for f in verdicts[i]
            ],
            "meta": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "requests_per_pass": len(reqs),
                "kernel_ms_median": statistics.median(
                    x for run in runs for x in run["kernel_ns"]) / 1e6,
                "request_kinds": _kinds(reqs),
            },
        })
        print(json.dumps(result), file=proto, flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bundled_argvs(root: Path, workdir: Path) -> dict:
    """CLI argv for each bundled config, by config name."""
    out = workdir / "bundled.out"
    return {cfg.stem: [cfg.stem.split("_")[0], "--config", str(cfg), "--out", str(out)]
            for cfg in sorted((root / "src" / "tensorsplit" / "configs").glob("*.json"))}


def _main_s(argvs: dict, main) -> dict:
    """Warm in-process time of ``main`` on each argv (median of 3)."""
    times = {}
    for name, argv in argvs.items():
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            main(argv)
            samples.append(time.perf_counter() - start)
        times[name] = statistics.median(samples)
    return times


def _kinds(reqs) -> dict:
    out: dict = {}
    for req in reqs:
        out[req.label] = out.get(req.label, 0) + 1
    return dict(sorted(out.items()))


def _rule_builds() -> int:
    from tensorsplit import quadrature

    info = getattr(quadrature.gauss_legendre, "cache_info", None)
    return info().misses if info else 0


if __name__ == "__main__":
    sys.exit(main())
