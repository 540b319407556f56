"""Smoke tests of tools/artifact_digests.py, tools/bench_summary.py,
tools/line_reach.py and the benchmark's tracer, run in this process."""

import ast
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from tensorsplit.cli import main
from tensorsplit.decomp import decompose
from tensorsplit.functions import function_from_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
#: ``tools/artifact_digests.py epsdim decomp --seeds 1`` as written by the
#: commit that added it; regress is left out, its last bits depend on BLAS
GOLDEN_DIGESTS = GOLDEN_DIR / "digests_seed1.txt"
#: the same for ``epsdim --seeds 2 3``: other eps draws give a ratio that
#: flips at the threshold more chances to show
GOLDEN_EPSDIM_DIGESTS = GOLDEN_DIR / "digests_epsdim_seeds2_3.txt"
#: the same for ``decomp --seeds 2 3``: other functions and weights through
#: the decomposition, its energies and the truncation errors
GOLDEN_DECOMP_DIGESTS = GOLDEN_DIR / "digests_decomp_seeds2_3.txt"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_every_request_listed(workload, capsys, monkeypatch, seeds=(1,), golden=GOLDEN_DIGESTS):
    """One line per request of each seed, each with the exit code the
    benchmark expects of that request, and every line as pinned in
    ``golden``: the same artifact bytes and error lines."""
    # the tool prepends to sys.path, sets the BLAS thread variables and
    # imports the benchmark's modules; all of that is undone afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    new_modules = [name for name in ("worker", "workloads", "oracles", "calibrate", "tracer")
                   if name not in sys.modules]
    tool = _load(ROOT / "tools" / "artifact_digests.py", "artifact_digests")
    try:
        assert tool.main([workload, "--seeds", *map(str, seeds)]) == 0
        reqs = [(seed, i, req) for seed in seeds
                for i, req in enumerate(sys.modules["workloads"].WORKLOADS[workload](seed))]
    finally:
        for name in new_modules:
            sys.modules.pop(name, None)
    lines = capsys.readouterr().out.splitlines()

    assert len(lines) == len(reqs)
    for line, (seed, i, req) in zip(lines, reqs):
        fields = line.split()
        assert fields[:4] == [workload, str(seed), str(i), req.label]
        assert fields[4] == f"rc={req.expect_rc}", line
        assert fields[5].startswith("sha256=")
    pinned = [line for line in golden.read_text().splitlines() if line.split()[0] == workload]
    assert lines == pinned


def test_artifact_digests_lists_every_epsdim_request(capsys, monkeypatch):
    _check_every_request_listed("epsdim", capsys, monkeypatch)


def test_artifact_digests_pins_epsdim_seeds_2_and_3(capsys, monkeypatch):
    _check_every_request_listed("epsdim", capsys, monkeypatch, (2, 3), GOLDEN_EPSDIM_DIGESTS)


def test_artifact_digests_lists_every_decomp_request(capsys, monkeypatch):
    _check_every_request_listed("decomp", capsys, monkeypatch)


def test_artifact_digests_pins_decomp_seeds_2_and_3(capsys, monkeypatch):
    _check_every_request_listed("decomp", capsys, monkeypatch, (2, 3), GOLDEN_DECOMP_DIGESTS)


@pytest.mark.parametrize("command,stem", [("anova", "anova_mixed_factors"),
                                          ("truncate", "truncate_anova_all_orders")])
def test_tracer_sees_the_decomposition(tmp_path, monkeypatch, command, stem):
    """A traced request records one ``decomp.decompose`` span and counts the
    components ``decompose`` lists, so a rename that hides the decomposition
    from the benchmark's tracer fails here.  ``truncate`` decomposes for
    the norm of a weight that is not a product: here a finite-order one."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    cfg = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())
    if command == "truncate":
        cfg["gamma"] = {"kind": "finite_order", "base": cfg["gamma"], "order": 4}
    config, out, untraced = tmp_path / "cfg.json", tmp_path / "out.csv", tmp_path / "untraced.csv"
    config.write_text(json.dumps(cfg))
    assert main([command, "--config", str(config), "--out", str(untraced)]) == 0
    try:
        tracer = _load(ROOT / "perfbench" / "tracer.py", "tracer").Tracer()
        with tracer.installed():
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
    finally:
        for name in set(sys.modules) - before:
            sys.modules.pop(name)
    assert out.read_bytes() == untraced.read_bytes()
    if command == "anova":
        assert out.read_bytes() == (GOLDEN_DIR / f"{stem}.out").read_bytes()

    f = function_from_json(cfg["function"])
    reached = len(decompose(f, cfg.get("mode", command)))
    assert [span[0] for span in tracer.spans].count("decomp.decompose") == 1
    assert tracer.counts["decomp.supports"] == reached


def _report(path: Path, workload: str, seed: int, src_loc: int, rate: float, trace: int = 0):
    meta = {"workload": workload, "seed": seed, "seconds": 30, "trace": trace, "src_loc": src_loc}
    metrics = {"req_per_s": rate, "req_p50_ms": 100.0 / rate, "ok_frac": 1.0, "rate_x2": 2 * rate}
    path.write_text(json.dumps({"meta": meta, "metrics": metrics}))
    return path


def test_bench_summary_on_synthetic_reports(tmp_path):
    """Per workload and side: seeds, src_loc, median, quartiles and every
    run in seed order; pairs count the seeds both sides ran."""
    tool = _load(ROOT / "tools" / "bench_summary.py", "bench_summary")
    parent = [_report(tmp_path / f"p{s}.json", "regress", s, 500, rate)
              for s, rate in [(3, 30.0), (1, 10.0), (2, 20.0), (4, 40.0)]]
    parent.append(_report(tmp_path / "pe.json", "epsdim", 1, 500, 7.0))
    change = [_report(tmp_path / f"c{s}.json", "regress", s, 480, 11.0 * s) for s in (1, 2, 5)]
    change.append(_report(tmp_path / "ce.json", "epsdim", 1, 480, 8.0))
    out = tmp_path / "BENCH.json"
    assert tool.main(["--parent", *map(str, parent), "--change", *map(str, change),
                      "--out", str(out)]) == 0
    summary = json.loads(out.read_text())

    assert list(summary) == ["epsdim", "regress"]
    regress = summary["regress"]
    assert regress["pairs"] == 2
    assert regress["parent"]["seeds"] == [1, 2, 3, 4]
    assert regress["parent"]["src_loc"] == 500 and regress["change"]["src_loc"] == 480
    assert regress["parent"]["metrics"]["req_per_s"] == {
        "median": 25.0, "q1": 17.5, "q3": 32.5, "runs": [10.0, 20.0, 30.0, 40.0]}
    assert regress["change"]["metrics"]["req_per_s"]["median"] == 22.0
    assert regress["change"]["metrics"]["ok_frac"]["runs"] == [1.0] * 3
    assert summary["epsdim"]["pairs"] == 1
    assert summary["epsdim"]["change"]["metrics"]["req_per_s"] == {
        "median": 8.0, "q1": 8.0, "q3": 8.0, "runs": [8.0]}
    # the change's median over the parent's, and the pairs (seeds 1 and 2)
    # the change won by each metric's direction in BENCHMARK.json: ties
    # count for neither side, and a metric the file does not list gets none
    versus = regress["change_vs_parent"]
    assert versus["req_per_s"] == {"ratio": 22.0 / 25.0, "won": 2, "gain": False, "within_bound": True}
    assert versus["req_p50_ms"]["won"] == 2
    assert versus["ok_frac"] == {"ratio": 1.0, "won": 0, "gain": False, "within_bound": True}
    assert versus["rate_x2"] == {"ratio": 44.0 / 50.0, "won": None, "gain": None, "within_bound": None}
    assert summary["epsdim"]["change_vs_parent"]["req_per_s"] == {
        "ratio": 8.0 / 7.0, "won": 1, "gain": True, "within_bound": True}
    slower = [_report(tmp_path / f"s{s}.json", "regress", s, 480, 9.0 * s) for s in (1, 2)]
    assert tool.main(["--parent", *map(str, parent[:4]), "--change", *map(str, slower),
                      "--out", str(out)]) == 0
    versus = json.loads(out.read_text())["regress"]["change_vs_parent"]
    assert versus["req_per_s"]["won"] == 0 and versus["req_p50_ms"]["won"] == 0
    assert versus["req_per_s"]["within_bound"] is False


@pytest.mark.parametrize("lead,won,gain", [
    # 9 of 10 pairs, and a median lead of 9 over the parent's interquartile range of 4.5
    ([10] * 9 + [-1], 9, True),
    ([10] * 8 + [-1] * 2, 8, False),
    # every pair, by less than the parent's interquartile range
    ([1] * 10, 10, False),
])
def test_bench_summary_gain(tmp_path, lead, won, gain):
    """A gain needs 9 of 10 pairs won and a median lead above the parent's
    q3 - q1: parent rates 101..110 req/s, change rates ahead by ``lead``."""
    tool = _load(ROOT / "tools" / "bench_summary.py", "bench_summary")
    parent = [_report(tmp_path / f"p{s}.json", "epsdim", s, 500, 100.0 + s) for s in range(1, 11)]
    change = [_report(tmp_path / f"c{s}.json", "epsdim", s, 480, 100.0 + s + d)
              for s, d in zip(range(1, 11), lead)]
    out = tmp_path / "BENCH.json"
    assert tool.main(["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]) == 0
    versus = json.loads(out.read_text())["epsdim"]["change_vs_parent"]
    assert versus["req_per_s"]["won"] == versus["req_p50_ms"]["won"] == won
    assert versus["req_per_s"]["gain"] is versus["req_p50_ms"]["gain"] is gain
    assert versus["ok_frac"]["gain"] is False and versus["rate_x2"]["gain"] is None


def test_bench_summary_within_bound(tmp_path):
    """Change rates 1.3 times lower: req_per_s falls 23%, inside its bound
    of 0.25, and req_p50_ms rises 30%, outside it."""
    tool = _load(ROOT / "tools" / "bench_summary.py", "bench_summary")
    parent = [_report(tmp_path / f"p{s}.json", "decomp", s, 500, 100.0 + s) for s in range(1, 4)]
    change = [_report(tmp_path / f"c{s}.json", "decomp", s, 480, (100.0 + s) / 1.3) for s in range(1, 4)]
    out = tmp_path / "BENCH.json"
    assert tool.main(["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]) == 0
    versus = json.loads(out.read_text())["decomp"]["change_vs_parent"]
    assert versus["req_per_s"]["within_bound"] is True
    assert versus["req_p50_ms"]["within_bound"] is False
    assert versus["ok_frac"]["within_bound"] is True and versus["rate_x2"]["within_bound"] is None


@pytest.mark.parametrize("bad,message", [("traced", "a traced report"),
                                         ("two src_loc", "disagree on src_loc"),
                                         ("repeated seed", "a second change decomp report"),
                                         ("one side", "no parent reports of regress")])
def test_bench_summary_refuses(tmp_path, capsys, bad, message):
    tool = _load(ROOT / "tools" / "bench_summary.py", "bench_summary")
    parent = [_report(tmp_path / "p1.json", "decomp", 1, 500, 1.0)]
    change = [_report(tmp_path / "c1.json", "decomp", 1, 480, 1.0)]
    extra = _report(tmp_path / "x.json", *{"traced": ("decomp", 2, 480, 1.0, 1),
                                           "two src_loc": ("decomp", 2, 481, 1.0),
                                           "repeated seed": ("decomp", 1, 480, 1.0),
                                           "one side": ("regress", 1, 480, 1.0)}[bad])
    out = tmp_path / "BENCH.json"
    assert tool.main(["--parent", *map(str, parent), "--change", str(change[0]), str(extra),
                      "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bench_summary: ") and message in err
    assert not out.exists()
    # the same reports without the bad one are summarized
    assert tool.main(["--parent", *map(str, parent), "--change", str(change[0]),
                      "--out", str(out)]) == 0


#: a stand-in for ``perfbench/run.py``: logs the checkout and seed of each
#: run, then writes a report where run.py does, with the checkout's rate
#: plus the seed as req_per_s; a negative rate fails the run
_STUB_RUN = '''
import argparse, json, sys
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag, required=True)
args = p.parse_args()
here = Path.cwd()
with open(Path(__file__).parent / "order.log", "a") as log:
    log.write(f"{here.name} {args.seed}\\n")
rate = float((here / "rate.txt").read_text())
if rate < 0:
    sys.exit(3)
out = here / "perfbench" / "out"
out.mkdir(parents=True, exist_ok=True)
meta = {"workload": args.workload, "seed": int(args.seed), "seconds": float(args.seconds),
        "trace": int(args.trace), "src_loc": 500 if here.name == "parent" else 480}
metrics = {"req_per_s": rate + int(args.seed), "req_p50_ms": 1.0, "ok_frac": 1.0}
(out / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
    json.dumps({"meta": meta, "metrics": metrics}))
'''


def _stub_checkouts(tmp_path, monkeypatch, parent_rate, change_rate):
    tool = _load(ROOT / "tools" / "bench_pairs.py", "bench_pairs")
    (tmp_path / "stub_run.py").write_text(_STUB_RUN)
    monkeypatch.setattr(tool, "RUN", [sys.executable, str(tmp_path / "stub_run.py")])
    for side, rate in (("parent", parent_rate), ("change", change_rate)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "rate.txt").write_text(str(rate))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workloads", "decomp", "--seeds", "1", "2", "3", "--seconds", "1",
            "--reports", str(tmp_path / "reports"), "--out", str(tmp_path / "BENCH.json")]
    return tool, argv


def test_bench_pairs_alternates_and_keeps_every_report(tmp_path, monkeypatch):
    """The side that runs first alternates by seed, every report is copied
    away, and the copies are summarized as ``bench_summary`` does."""
    tool, argv = _stub_checkouts(tmp_path, monkeypatch, 100.0, 110.0)
    assert tool.main(argv) == 0
    assert (tmp_path / "order.log").read_text().splitlines() == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3"]
    for side in ("parent", "change"):
        for seed in (1, 2, 3):
            report = json.loads((tmp_path / "reports" / side / f"decomp_seed{seed}_trace0.json").read_text())
            assert report["meta"]["seed"] == seed
    summary = json.loads((tmp_path / "BENCH.json").read_text())["decomp"]
    assert summary["pairs"] == 3
    assert summary["parent"]["metrics"]["req_per_s"]["runs"] == [101.0, 102.0, 103.0]
    assert summary["change"]["metrics"]["req_per_s"]["runs"] == [111.0, 112.0, 113.0]
    assert summary["change_vs_parent"]["req_per_s"]["won"] == 3


def test_bench_pairs_stops_at_a_failed_run(tmp_path, monkeypatch, capsys):
    """The change's first run fails: its exit code, no summary."""
    tool, argv = _stub_checkouts(tmp_path, monkeypatch, 100.0, -1.0)
    assert tool.main(argv) == 3
    assert (tmp_path / "order.log").read_text().splitlines() == ["parent 1", "change 1"]
    assert "bench_pairs: change decomp seed 1 exited 3" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()


def _first_statement(path: Path, name: str) -> int:
    """The line of the first statement after the docstring of function ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    func = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)
    return func.body[1].lineno


def test_line_reach_lists_unreached_statements(capsys, monkeypatch):
    """Over the epsdim requests of seed 1, the first statement of the regress
    report is listed and that of the eps-dimension table, which every epsdim
    request runs, is not; every listed line lies in src."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    new_modules = [name for name in ("artifact_digests", "worker", "workloads", "oracles", "calibrate",
                                     "tracer") if name not in sys.modules]
    tool = _load(ROOT / "tools" / "line_reach.py", "line_reach")
    try:
        assert tool.main(["requests", "epsdim", "--seeds", "1"]) == 0
    finally:
        for name in new_modules:
            sys.modules.pop(name, None)
    lines = set(capsys.readouterr().out.splitlines())
    src = Path("src") / "tensorsplit"
    regress = f"{src / 'regress.py'}:{_first_statement(ROOT / src / 'regress.py', 'regression_report')}"
    epsdim = f"{src / 'epsdim.py'}:{_first_statement(ROOT / src / 'epsdim.py', 'eps_dimension_table')}"
    assert regress in lines
    assert epsdim not in lines
    assert all(line.startswith(f"{src}{os.sep}") for line in lines)
