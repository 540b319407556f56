"""Benchmark of the tensorsplit CLI: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {epsdim,decomp,regress} --seed N \
        --seconds S --trace {0,1}

The run starts the worker process (``worker.py``) several times.  Each start
is timed from process launch until the worker has imported the package,
written its seeded inputs and warmed up, and scaled to machine speed
(``calibrate.py``); the median of these is ``setup_s``.  The last worker then runs the workload as a closed loop with
one client for ``--seconds`` and checks every artifact against an oracle.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it spends half the time untraced and half traced, reports the
per-layer metrics, and also runs each bundled config in
``src/tensorsplit/configs`` twice as ``python -m tensorsplit.cli`` to check
exit codes and byte-identical artifacts and to time a cold CLI process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
the same numbers for people, plus run metadata.  Spans and the full result
go to ``perfbench/out/``.  Without ``src/tensorsplit`` next to this
directory the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("epsdim", "decomp", "regress")
SETUPS = 5
#: kernel runs timed before and after each set-up (see calibrate.py)
KERNEL_REPEATS = 5
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

#: bundled configs whose exit code is not 0
EXPECTED_RC = {"equiv_uncertified": 16}



def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _env() -> dict:
    env = dict(os.environ)
    # One BLAS thread, like the one client: with two on a 2-CPU shared host,
    # regress ran about 15% slower.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    # Every block of 128 KiB or more in its own mapping, as at the start of
    # a fresh process.  By default glibc raises this threshold as large
    # blocks are freed, and then peak RSS on regress depended on the
    # allocation history: one and the same request list read 200 or 225 MB
    # from one seed or run to the next.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env.pop("TENSORSPLIT_LOG", None)
    return env


def _stop(proc: subprocess.Popen):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(args, work: Path, log) -> tuple[subprocess.Popen, float, float, float]:
    """Launch a worker and wait for READY.

    Returns the process, the set-up time scaled by the calibration kernel
    timed just before and after it, the wall set-up time and the import time.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT), "--work", str(work)]
    before = calibrate.kernel_ns(KERNEL_REPEATS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=log, env=_env(), text=True, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    wall_s = time.perf_counter() - t0
    setup_s = calibrate.scale(wall_s, (before + calibrate.kernel_ns(KERNEL_REPEATS)) / 2)
    if not line.startswith("READY"):
        _stop(proc)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s, wall_s, float(line.split()[1])


def run_workload(args, work: Path, log) -> tuple[dict, list[float], list[float], list[float]]:
    """Time SETUPS worker starts; the last worker measures."""
    setups, walls, imports = [], [], []
    for i in range(SETUPS):
        proc, setup_s, wall_s, import_s = start_worker(args, work, log)
        setups.append(setup_s)
        walls.append(wall_s)
        imports.append(import_s)
        try:
            proc.stdin.write("go\n" if i == SETUPS - 1 else "exit\n")
            proc.stdin.flush()
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            _stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups, walls, imports


def cold_path(work: Path, main_s: dict) -> dict:
    """Each bundled config twice as a fresh ``python -m tensorsplit.cli`` process.

    ``main_s`` holds the worker's warm in-process time of ``main`` on each
    config; the rest of a cold process is interpreter start, import and
    first-call costs.
    """
    env = _env()
    per_cmd: dict = {}
    failures, failed_configs = [], set()
    runs = 0
    for cfg in sorted((ROOT / "src" / "tensorsplit" / "configs").glob("*.json")):
        cmd = cfg.stem.split("_")[0]
        outputs = []
        for rep in range(2):
            out = work / f"{cfg.stem}.{rep}.out"
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "tensorsplit.cli", cmd, "--config", str(cfg),
                 "--out", str(out)],
                env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=SETUP_TIMEOUT_S)
            per_cmd.setdefault(cmd, []).append((time.perf_counter() - t0, main_s[cfg.stem]))
            runs += 1
            want = EXPECTED_RC.get(cfg.stem, 0)
            if proc.returncode != want:
                failures.append(f"{cfg.name}: exit {proc.returncode}, expected {want}")
                failed_configs.add(cfg.name)
            outputs.append(out.read_bytes() if out.exists() else None)
        if outputs[0] is None or outputs[0] != outputs[1]:
            failures.append(f"{cfg.name}: artifacts missing or not byte-identical")
            failed_configs.add(cfg.name)
    samples = [s for ss in per_cmd.values() for s in ss]
    return {
        "runs": runs,
        "failed_runs": 2 * len(failed_configs),
        "failures": failures,
        "process_s": statistics.median(p for p, _ in samples),
        "import_s": statistics.median(p - m for p, m in samples),
        "main_s": statistics.median(m for _, m in samples),
        "per_command": {
            c: {"process_s": statistics.median(p for p, _ in ss),
                "main_s": statistics.median(m for _, m in ss)}
            for c, ss in sorted(per_cmd.items())
        },
    }


def src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src" / "tensorsplit").rglob("*.py"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tensorsplit" / "cli.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'tensorsplit'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = HERE / ".work" / f"run{os.getpid()}"
    work.mkdir(parents=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    log_path = out_dir / f"{tag}.stderr"
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            result, setups, setup_walls, imports = run_workload(args, work, log)
            cold = cold_path(work, result["bundled_main_s"]) if args.trace else None
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}; see {log_path}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    correct = result["unknown_failures"] == 0
    if args.trace:
        metrics = dict(result["layers"])
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["cli.process_s"] = cold["process_s"]
        metrics["cli.process_import_s"] = cold["import_s"]
        metrics["cli.process_main_s"] = cold["main_s"]
        attempted += cold["runs"]
        failed += cold["failed_runs"]
        correct = correct and not cold["failures"]
    else:
        e2e = result["end_to_end"]
        metrics = {k: e2e[k] for k in ("req_per_s", "req_p50_ms", "req_p90_ms")}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["ok_frac"] = 1.0 - result["failed"] / result["attempted"]

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _env()["OPENBLAS_NUM_THREADS"], "src_loc": src_loc(),
        "setup_runs_s": setups, "setup_runs_wall_s": setup_walls, **result["meta"],
    }
    report = {"meta": meta, "metrics": metrics, "failures": result["failures"],
              "failed_frac": result["failed"] / result["attempted"]}
    if args.trace:
        report["span_table"] = result["span_table"]
        report["cold_path"] = cold
        (out_dir / f"{tag}.spans.json").write_text(json.dumps(result["spans"]), encoding="utf-8")
    else:
        report["end_to_end"] = result["end_to_end"]
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"# perfbench {tag}: {attempted} requests, {failed} failed, correct={correct}")
    print(f"# meta {json.dumps(meta)}")
    print(f"# failed_frac {report['failed_frac']:.6g} ratio")
    for f in result["failures"][:10]:
        print(f"# failure{' (known defect)' if f['known'] else ''}: "
              f"{f['label']} {f['check']}: {f['message'][:200]}")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
