"""Smoke test of tools/artifact_digests.py, run in this process."""

import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_digests_lists_every_epsdim_request(capsys, monkeypatch):
    """One line per request of seed 1, each with the exit code the
    benchmark expects of that request."""
    # the tool prepends to sys.path, sets the BLAS thread variables and
    # imports the benchmark's modules; all of that is undone afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    new_modules = [name for name in ("worker", "workloads", "oracles", "calibrate", "tracer")
                   if name not in sys.modules]
    tool = _load(ROOT / "tools" / "artifact_digests.py", "artifact_digests")
    try:
        assert tool.main(["epsdim", "--seeds", "1"]) == 0
        reqs = sys.modules["workloads"].WORKLOADS["epsdim"](1)
    finally:
        for name in new_modules:
            sys.modules.pop(name, None)
    lines = capsys.readouterr().out.splitlines()

    assert len(lines) == len(reqs)
    for i, (line, req) in enumerate(zip(lines, reqs)):
        fields = line.split()
        assert fields[:4] == ["epsdim", "1", str(i), req.label]
        assert fields[4] == f"rc={req.expect_rc}", line
        assert fields[5].startswith("sha256=")
