"""Smoke tests of tools/artifact_digests.py and of the benchmark's tracer,
run in this process."""

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


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_every_request_listed(workload, capsys, monkeypatch):
    """One line per request of seed 1, each with the exit code the
    benchmark expects of that request, and every line as pinned in
    ``GOLDEN_DIGESTS``: the same artifact bytes and error lines."""
    # the tool prepends to sys.path, sets the BLAS thread variables and
    # imports the benchmark's modules; all of that is undone afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    new_modules = [name for name in ("worker", "workloads", "oracles", "calibrate", "tracer")
                   if name not in sys.modules]
    tool = _load(ROOT / "tools" / "artifact_digests.py", "artifact_digests")
    try:
        assert tool.main([workload, "--seeds", "1"]) == 0
        reqs = sys.modules["workloads"].WORKLOADS[workload](1)
    finally:
        for name in new_modules:
            sys.modules.pop(name, None)
    lines = capsys.readouterr().out.splitlines()

    assert len(lines) == len(reqs)
    for i, (line, req) in enumerate(zip(lines, reqs)):
        fields = line.split()
        assert fields[:4] == [workload, "1", str(i), req.label]
        assert fields[4] == f"rc={req.expect_rc}", line
        assert fields[5].startswith("sha256=")
    golden = [line for line in GOLDEN_DIGESTS.read_text().splitlines()
              if line.split()[0] == workload]
    assert lines == golden


def test_artifact_digests_lists_every_epsdim_request(capsys, monkeypatch):
    _check_every_request_listed("epsdim", capsys, monkeypatch)


def test_artifact_digests_lists_every_decomp_request(capsys, monkeypatch):
    _check_every_request_listed("decomp", capsys, monkeypatch)


@pytest.mark.parametrize("command,stem", [("anova", "anova_mixed_factors"),
                                          ("truncate", "truncate_anova_all_orders")])
def test_tracer_sees_the_decomposition(tmp_path, monkeypatch, command, stem):
    """A traced request records one ``decomp.decompose`` span and counts the
    components ``decompose`` lists, so a rename that hides the decomposition
    from the benchmark's tracer fails here."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    config, out = GOLDEN_DIR / f"{stem}.json", tmp_path / "out.csv"
    try:
        tracer = _load(ROOT / "perfbench" / "tracer.py", "tracer").Tracer()
        with tracer.installed():
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
    finally:
        for name in set(sys.modules) - before:
            sys.modules.pop(name)
    assert out.read_bytes() == (GOLDEN_DIR / f"{stem}.out").read_bytes()

    cfg = json.loads(config.read_text())
    f = function_from_json(cfg["function"])
    reached = len(decompose(f, cfg.get("mode", command)))
    assert [span[0] for span in tracer.spans].count("decomp.decompose") == 1
    assert tracer.counts["decomp.supports"] == reached
