"""CLI subcommands: correctness of artifacts, error codes, determinism."""

import ast
import collections
import csv
import functools
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np
import pytest

import tensorsplit.cli
import tensorsplit.decomp
import tensorsplit.epsdim
import tensorsplit.regress
import tensorsplit.sensitivity
from exact import ExactDecomposition, assert_matches_truth, mp
from tensorsplit.cli import (_build_parser, _csv_line, _fmt, _index_json, _json_render, _omega_json,
                             _write_csv, main)
from tensorsplit.decomp import MAX_DECOMP_DIM, decompose
from tensorsplit.epsdim import DEFAULT_CAP
from tensorsplit.errors import ConfigInvalid
from tensorsplit.functions import function_from_json
from tensorsplit.gammas import gamma_from_json
from tensorsplit.indexing import IndexVector, SupportSet
from tensorsplit.regress import AnchoredKernel
from tensorsplit.sensitivity import l2_error, sobol_indices, truncate_order

CONFIG_DIR = Path(str(resources.files("tensorsplit") / "configs"))
GOLDEN_DIR = Path(__file__).parent / "golden"
#: config stem -> expected exit code.  A stem names a bundled config or a
#: config stored next to its artifact in GOLDEN_DIR; the regress artifact is
#: left out because its coefficients depend on the BLAS build in the last bits
GOLDEN_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
#: extra flags of a golden run
GOLDEN_FLAGS = {
    "epsdim_cap": ["--cap", "500"],
    "epsdim_cap_ascending": ["--cap", "500"],
    "anchored_finite_order": ["--anchor", "0.3"],
    "sobol_table_include_empty": ["--include-empty"],
}

SUBCOMMANDS = [
    ("epsdim", "epsdim_example.json"),
    ("transform", "transform_example.json"),
    ("anova", "anova_example.json"),
    ("anchored", "anchored_example.json"),
    ("equiv", "equiv_example.json"),
    ("sobol", "sobol_example.json"),
    ("truncate", "truncate_example.json"),
    ("regress", "regress_example.json"),
]


_GEOMETRIC = {"kind": "geometric", "c": 0.5, "rho": 0.5}
_GEOMETRIC_PRODUCT = {"type": "product", "gamma": _GEOMETRIC}
_POWER = {"kind": "power", "c": 1.0, "p": 2.0}
_LINEAR = {"dim": 1, "terms": [{"coef": 1.0, "factors": {"1": {"kind": "monomial", "power": 1}}}]}


def run_cli(command, config, out, extra=()):
    return main([command, "--config", str(config), "--out", str(out), *extra])


class TestArtifacts:
    def test_epsdim_example_row(self, tmp_path):
        out = tmp_path / "eps.csv"
        assert run_cli("epsdim", CONFIG_DIR / "epsdim_example.json", out) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "eps,d,n,set_size,d0,truncated"
        by_eps = {}
        for line in rows[1:]:
            eps, d, n, size, d0, trunc = line.split(",")
            if d == "":
                by_eps[float(eps)] = int(n)
        # weights 4**j on one coordinate: eps=0.1 keeps levels 0..3
        assert by_eps[0.1] == 4

    def test_transform_geometric_ratio(self, tmp_path):
        out = tmp_path / "transform.csv"
        assert run_cli("transform", CONFIG_DIR / "transform_example.json", out) == 0
        lines = out.read_text().splitlines()[1:]
        for line in lines:
            ratio = float(line.rsplit(",", 1)[1])
            assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_equiv_certificate(self, tmp_path):
        out = tmp_path / "equiv.json"
        assert run_cli("equiv", CONFIG_DIR / "equiv_example.json", out) == 0
        report = json.loads(out.read_text())
        assert report["certified"] is True
        assert report["c"] > 1.0

    def test_equiv_uncertified_exit_code(self, tmp_path):
        out = tmp_path / "equiv.json"
        code = run_cli("equiv", CONFIG_DIR / "equiv_uncertified.json", out)
        assert code == 16
        report = json.loads(out.read_text())
        assert report["certified"] is False

    def test_sobol_totals_column(self, tmp_path):
        out = tmp_path / "sobol.csv"
        assert run_cli("sobol", CONFIG_DIR / "sobol_example.json", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,index,total"
        indices = [float(line.rsplit(",", 2)[1]) for line in lines[1:]]
        assert sum(indices) == pytest.approx(1.0, abs=1e-10)

    def test_truncate_bounds_hold(self, tmp_path):
        out = tmp_path / "trunc.csv"
        assert run_cli("truncate", CONFIG_DIR / "truncate_example.json", out) == 0
        for line in out.read_text().splitlines()[1:]:
            m, err, bound, ratio = line.split(",")
            assert float(err) <= float(bound) * (1 + 1e-10) + 1e-12

    def test_regress_report(self, tmp_path):
        out = tmp_path / "regress.json"
        assert run_cli("regress", CONFIG_DIR / "regress_example.json", out) == 0
        report = json.loads(out.read_text())
        assert report["n"] == 8
        assert report["residual"] <= 1e-10
        assert len(report["coefficients"]) == 8


class TestErrors:
    def test_empty_config_rejected(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert run_cli("epsdim", cfg, tmp_path / "out.csv") == 2

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "a": {"type": "unit"}, "b": {"type": "unit"},
            "eps": [0.5], "surprise": 1,
        }))
        assert run_cli("epsdim", cfg, tmp_path / "out.csv") == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli("epsdim", tmp_path / "nope.json", tmp_path / "out.csv") == 2

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli("epsdim", cfg, tmp_path / "out.csv") == 2

    def test_not_compact_setup(self, tmp_path):
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({
            "a": {"type": "product", "gamma": {"kind": "constant", "value": 1.0}},
            "b": {"type": "unit"},
            "eps": [0.5],
        }))
        assert run_cli("epsdim", cfg, tmp_path / "out.csv") == 6

    @pytest.mark.parametrize("command,cfg", [
        ("epsdim", {"a": {"type": "unit"}, "b": {"type": "unit"}}),
        ("anova", {"function": {"dim": 1, "terms": [{"coef": 1.0}]}}),
        ("regress", {"samples": {"inputs": [[0.2], [0.7]], "outputs": [0.1, 0.4]}}),
        ("regress", {"samples": {"inputs": [[0.2], [0.7]]}, "lambda": 0.1}),
        ("equiv", {"gamma": {"kind": "product"}}),
        ("transform", {"a": {"type": "table"}, "indices": [{}]}),
    ], ids=["epsdim-eps", "anova-gamma", "regress-lambda", "samples-outputs",
            "product-gamma-seq", "table-weights-entries"])
    def test_missing_required_key(self, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, path, tmp_path / "out") == 2

    @pytest.mark.parametrize("command,cfg", [
        ("epsdim", {"a": {"type": "unit"}, "b": {"type": "unit"}, "eps": 0.5}),
        ("epsdim", {"a": {"type": "unit"}, "b": {"type": "unit"}, "eps": ["x"]}),
        ("epsdim", {"a": {"type": "unit"}, "b": {"type": "unit"}, "eps": [0.5], "d": 3}),
        ("truncate", {"function": {"dim": 1, "terms": [{"coef": 1.0}]},
                      "gamma": {"kind": "product", "seq": {"kind": "constant", "value": 1.0}},
                      "m": 2}),
        ("equiv", {"gamma": {"kind": "product", "seq": {"kind": "power", "c": 1.0, "p": 3.0}},
                   "q_tilde": "big"}),
        ("regress", {"samples": {"inputs": [[0.2], [0.7]], "outputs": [0.1, 0.4]},
                     "lambda": "x"}),
        ("regress", {"samples": {"inputs": [[0.2], [0.7]], "outputs": [0.1, 0.4]},
                     "lambda": [0.1, 0.2]}),
    ], ids=["eps-scalar", "eps-string", "d-scalar", "m-scalar", "q_tilde-string",
            "lambda-string", "lambda-list"])
    def test_wrong_type_rejected(self, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, path, tmp_path / "out") == 2

    @pytest.mark.parametrize("command", ["sobol", "truncate", "anova"])
    def test_nan_coefficient_rejected(self, tmp_path, command):
        """``NaN`` used to give ``nan`` sobol rows and a truncation error of 0."""
        path = tmp_path / "cfg.json"
        path.write_text('{"function": {"dim": 2, "terms": [{"coef": NaN, "factors": '
                        '{"1": {"kind": "monomial", "power": 1}}}]}, '
                        '"gamma": {"kind": "product", "seq": {"kind": "constant", "value": 1.0}}}')
        assert run_cli(command, path, tmp_path / "out.csv") == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command,cfg", [
        ("anova", {"function": {"dim": 10, "terms": [
            {"coef": 1.0, "factors": {"1_0": {"kind": "monomial", "power": 1}}}]},
            "gamma": {"kind": "product", "seq": {"kind": "constant", "value": 1.0}}}),
        ("transform", {"a": _GEOMETRIC_PRODUCT, "indices": [{"1_0": 1}]}),
        ("transform", {"a": _GEOMETRIC_PRODUCT, "indices": [{" 2": 1}]}),
        ("transform", {"a": {"type": "spline", "gamma": {"kind": "product", "seq": _GEOMETRIC},
                             "s": {"kind": "affine", "a": 1.0, "b": 0.25, "c": 7}},
                       "indices": [{}]}),
    ], ids=["factor-key", "index-key-underscore", "index-key-space", "affine-unknown-key"])
    def test_malformed_spec_rejected(self, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, path, tmp_path / "out") == 2

    @pytest.mark.parametrize("scales", [["a", 1], 1.5, [True, 1], ["1.5", 1], [-1, 1]],
                             ids=["string-scale", "scalar-scales", "bool-scale",
                                  "numeric-string-scale", "negative-scale"])
    def test_bad_kernel_scales_rejected(self, tmp_path, capsys, scales):
        """Each exits 2 with one error line: the first two used to crash with
        a traceback, the next two were read as 1.0 and 1.5, and a negative
        scale made the kernel indefinite and the solve fail."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "samples": {"inputs": [[0.2, 0.3], [0.7, 0.9]], "outputs": [0.1, 0.4]},
            "kernel": {"type": "anchored", "scales": scales}, "lambda": 0.1,
        }))
        assert run_cli("regress", path, tmp_path / "out.json") == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ConfigInvalid: ")]
        assert len(errors) == 1
        assert not (tmp_path / "out.json").exists()

    def test_zero_kernel_scale_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "samples": {"inputs": [[0.2, 0.3], [0.7, 0.9]], "outputs": [0.1, 0.4]},
            "kernel": {"type": "anchored", "scales": [0, 1.5]}, "lambda": 0.1,
        }))
        assert run_cli("regress", path, tmp_path / "out.json") == 0

    @pytest.mark.parametrize("samples", [
        {"inputs": [["x"], [0.7]], "outputs": [0.1, 0.4]},
        {"inputs": [[0.2], [0.7]], "outputs": "abc"},
        {"inputs": [[0.2, 0.3], [0.7]], "outputs": [0.1, 0.4]},
    ], ids=["non-numeric-input", "string-outputs", "ragged-inputs"])
    def test_bad_inline_samples_rejected(self, tmp_path, samples):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"samples": samples, "lambda": 0.1}))
        assert run_cli("regress", path, tmp_path / "out.json") == 2

    def test_non_finite_input_rejected(self, tmp_path):
        """NaN passes the unit-cube comparisons; it must not reach the fit."""
        (tmp_path / "s.csv").write_text("x1,y\n0.2,1.0\nnan,2.0\n0.7,0.5\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"samples": "s.csv", "lambda": 0.1}))
        assert run_cli("regress", path, tmp_path / "out.json") == 2
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("rows", ["0.2,1.0\n0.5\n", "0.2,1.0,9\n0.5,2.0,9\n"],
                             ids=["short-row", "long-rows"])
    def test_csv_row_width_checked(self, tmp_path, rows):
        """A row needs one value per header column (a short row used to crash
        with an IndexError, extra values were dropped)."""
        (tmp_path / "s.csv").write_text("x1,y\n" + rows)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"samples": "s.csv", "lambda": 0.1}))
        assert run_cli("regress", path, tmp_path / "out.json") == 2

    @pytest.mark.parametrize("body", [
        '"0.2","1.0"\n0.7,"0.5"\n0.4,0.3\n',
        "\n0.2,1.0\n\n0.7,0.5\n0.4,0.3\n\n",
        " 0.2 , 1.0\n0.7,\t0.5 \n0.4 ,0.3\n",
    ], ids=["quoted-cells", "blank-lines", "spaces-around-cells"])
    def test_csv_layouts_accepted(self, tmp_path, body):
        """Quoted cells, blank lines and spaces around cells read as the
        plain file does."""
        outs = []
        for i, text in enumerate(["0.2,1.0\n0.7,0.5\n0.4,0.3\n", body]):
            (tmp_path / f"s{i}.csv").write_text("x1,y\n" + text)
            path, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}.json"
            path.write_text(json.dumps({"samples": f"s{i}.csv", "lambda": 0.1}))
            assert run_cli("regress", path, out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("body", ["0.2,1.0\n# a comment\n", "0.1_5,1.0\n", "\uff10.5,1.0\n"],
                             ids=["comment-line", "digit-underscore", "fullwidth-digit"])
    def test_csv_cells_rejected(self, tmp_path, capsys, body):
        """A cell is a plain decimal or quoted one: no comments, and none of
        the digit underscores or non-ASCII digits that float() reads."""
        (tmp_path / "s.csv").write_text("x1,y\n" + body, encoding="utf-8")
        path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        path.write_text(json.dumps({"samples": "s.csv", "lambda": 0.1}))
        assert run_cli("regress", path, out) == 2
        assert not out.exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: ConfigInvalid: cannot read sample CSV")

    def test_csv_ragged_row_named(self, tmp_path, capsys):
        """The error line names the row, and no argument of numpy's reader."""
        (tmp_path / "s.csv").write_text("x1,y\n0.2,1.0\n0.5\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"samples": "s.csv", "lambda": 0.1}))
        assert run_cli("regress", path, tmp_path / "out.json") == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].endswith("s.csv: the number of columns changed from 2 to 1 at row 2")

    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["header-only", "blank-lines-only"])
    def test_csv_without_rows_rejected(self, tmp_path, capsys, body):
        """No sample rows is one error line, and no reader warning."""
        (tmp_path / "s.csv").write_text("x1,y\n" + body)
        path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        path.write_text(json.dumps({"samples": "s.csv", "lambda": 0.1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("regress", path, out) == 2
        assert not out.exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: inputs must be a nonempty (n, d) array"]

    @pytest.mark.parametrize("extra,message", [
        ({"kernel": {"type": "anchored", "scales": [1e308, 1e308]}},
         "the kernel matrix has non-finite entries"),
        ({"kernel": {"type": "anchored", "scales": [1e308, 1e308]}, "n": 500},
         "the kernel matrix has non-finite entries"),
        ({"kernel": {"type": "anchored", "scales": [1e308, 1e308]}, "n": 500, "holdout": 2000},
         "the kernel matrix has non-finite entries"),
        ({"lambda": 1e307}, "the shift n * lambda overflows the float range"),
        ({"lambda": [1e-3, 1e307], "outputs": 2}, "the shift n * lambda overflows the float range"),
    ], ids=["kernel-matrix", "kernel-matrix-3-tile-rows", "kernel-matrix-2000-holdout",
            "shift", "per-output-shift"])
    def test_regress_overflow_rejected(self, tmp_path, capsys, monkeypatch, extra, message):
        """A kernel matrix or a shift n * lambda past the float range is one
        error line and exit 2, not scipy's finiteness traceback, and no
        RuntimeWarning, also with the Gram split over two workers."""
        monkeypatch.setattr(tensorsplit.regress, "_cpus", lambda: 2)
        rng = np.random.default_rng(5)
        extra = dict(extra)
        outputs, n = extra.pop("outputs", 1), extra.pop("n", 20)
        y = rng.normal(size=(n, outputs)) if outputs > 1 else rng.normal(size=n)
        cfg = {"samples": {"inputs": rng.uniform(0, 1, (n, 2)).tolist(), "outputs": y.tolist()},
               "lambda": 1e-3} | extra
        if "holdout" in extra:
            m = extra["holdout"]
            cfg["holdout"] = {"inputs": rng.uniform(0, 1, (m, 2)).tolist(),
                              "outputs": rng.normal(size=m).tolist()}
        path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("regress", path, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [f"error: ConfigInvalid: {message}"]

    def test_regress_shifted_diagonal_overflow_rejected(self, tmp_path, capsys):
        """Kernel diagonal 5e307 and shift 1.78e308 are finite; their sum is not."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        path.write_text(json.dumps({
            "samples": {"inputs": [[0.0], [1.0]], "outputs": [0.1, 0.4]},
            "kernel": {"type": "anchored", "scales": [1e308]}, "lambda": 8.9e307,
        }))
        assert run_cli("regress", path, out) == 2
        assert not out.exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: the kernel matrix plus the shift n * lambda "
                          "overflows the float range"]

    @pytest.mark.parametrize("holdout", [
        {"inputs": [[0.3], [5.0]], "outputs": [0.1, 0.2]},
        {"inputs": [[0.3, 0.4], [0.6, 0.1]], "outputs": [0.1, 0.2]},
        {"inputs": [[0.3], [0.6]], "outputs": [0.1, float("nan")]},
        {"inputs": [[0.3], [0.6]], "outputs": [[0.1, 0.2], [0.3, 0.4]]},
        {"inputs": [[0.3], [0.6]], "outputs": [[0.1], [0.2]]},
        {"inputs": [[0.3]], "outputs": 0.5},
    ], ids=["outside-cube", "wrong-dimension", "nan-output", "wrong-outputs",
            "2d-against-1d-outputs", "scalar-outputs"])
    def test_bad_holdout_rejected(self, tmp_path, holdout):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "samples": {"inputs": [[0.2], [0.7], [0.4]], "outputs": [0.1, 0.4, 0.3]},
            "lambda": 0.1, "holdout": holdout,
        }))
        assert run_cli("regress", path, tmp_path / "out.json") == 2
        assert not (tmp_path / "out.json").exists()

    def test_holdout_output_shapes_named(self, tmp_path, capsys):
        """A 2-D holdout against 1-D training outputs says which is which."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "samples": {"inputs": [[0.2], [0.7], [0.4]], "outputs": [0.1, 0.4, 0.3]},
            "lambda": 0.1,
            "holdout": {"inputs": [[0.3], [0.6]], "outputs": [[0.1], [0.2]]},
        }))
        assert run_cli("regress", path, tmp_path / "out.json") == 2
        err = capsys.readouterr().err
        assert "(2, 1)" in err and "(3,)" in err

    @pytest.mark.parametrize("command,cfg", [
        ("epsdim", {"a": {"type": "scaled", "base": {"type": "unit"}, "factor": "x"},
                    "b": {"type": "unit"}, "eps": [0.5]}),
        ("transform", {"a": {"type": "table", "entries": [[{"1": "x"}, 2.0]]},
                       "indices": [{}]}),
        ("transform", {"a": {"type": "table", "entries": [[{"1": 1}, "x"]]},
                       "indices": [{}]}),
        ("transform", {"a": {"type": "table", "entries": [[{"1": -1}, 2.0]]},
                       "indices": [{}]}),
        ("transform", {"a": _GEOMETRIC_PRODUCT, "indices": [[1]]}),
        ("transform", {"a": _GEOMETRIC_PRODUCT, "indices": [{"0": 1}]}),
        ("transform", {"a": _GEOMETRIC_PRODUCT, "indices": 5}),
        ("anova", {"function": _LINEAR,
                   "gamma": {"kind": "table", "entries": [[["x"], 1.0]]}}),
        ("anova", {"function": _LINEAR,
                   "gamma": {"kind": "finite_order", "order": "x",
                             "base": {"kind": "product", "seq": _GEOMETRIC}}}),
        ("epsdim", {"a": {"type": "spline", "gamma": {"kind": "product", "seq": _GEOMETRIC},
                          "s": {"kind": "affine", "a": 1}},
                    "b": {"type": "unit"}, "eps": [0.5]}),
        ("transform", {"a": _GEOMETRIC_PRODUCT, "indices": [{"1": 1e400}]}),
    ], ids=["scaled-factor", "table-coordinate", "table-value", "table-negative-level",
            "index-not-object", "index-coordinate-zero", "indices-not-list",
            "gamma-table-support",
            "finite-order", "affine-missing-b", "index-level-overflow"])
    def test_malformed_spec_value_rejected(self, tmp_path, capsys, command, cfg):
        """A malformed value inside a spec exits 2 with one error line."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, path, tmp_path / "out") == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ConfigInvalid: ")]
        assert len(errors) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,cfg", [
        ("transform", {"a": {"type": "product", "gamma": {"kind": "finite", "values": "12"}},
                       "indices": [{}]}),
        ("anova", {"function": _LINEAR,
                   "gamma": {"kind": "table", "entries": [["12", 1.0]]}}),
        ("anova", {"function": _LINEAR,
                   "gamma": {"kind": "finite_order", "order": 2.7,
                             "base": {"kind": "product", "seq": _GEOMETRIC}}}),
        ("transform", {"a": _GEOMETRIC_PRODUCT, "indices": [{"1": 1.5}]}),
        ("transform", {"a": {"type": "product", "gamma": {"kind": "power", "c": True, "p": 2.0}},
                       "indices": [{}]}),
        ("transform", {"a": {"type": "product", "gamma": {"kind": "power", "c": 1.0, "p": "2"}},
                       "indices": [{}]}),
        ("transform", {"a": {"type": "product",
                             "gamma": {"kind": "geometric", "c": 0.5, "rho": False}},
                       "indices": [{}]}),
        ("transform", {"a": {"type": "spline", "gamma": {"kind": "product", "seq": _GEOMETRIC},
                             "s": True}, "indices": [{}]}),
        ("transform", {"a": {"type": "spline", "gamma": {"kind": "product", "seq": _GEOMETRIC},
                             "lam": ["2"]}, "indices": [{}]}),
        ("transform", {"a": {"type": "scaled", "base": _GEOMETRIC_PRODUCT, "factor": True},
                       "indices": [{}]}),
        ("transform", {"a": {"type": "scaled", "base": _GEOMETRIC_PRODUCT, "factor": "0.5"},
                       "indices": [{}]}),
        ("transform", {"a": {"type": "table", "entries": [[{}, 1.0], [{"1": 1}, "4"]]},
                       "indices": [{}]}),
        ("transform", {"a": {"type": "table", "entries": [[{}, 1.0], [{"1": 1}, 4.0]],
                             "assert_monotone": "no"}, "indices": [{}]}),
        ("anova", {"function": _LINEAR,
                   "gamma": {"kind": "table", "entries": [[[1], 1.0]],
                             "assert_monotone": "no"}}),
    ], ids=["finite-values-string", "gamma-support-string", "finite-order-fraction",
            "index-level-fraction", "power-c-bool", "power-p-string", "geometric-rho-bool",
            "spline-s-bool", "spline-lam-string", "scaled-factor-bool",
            "scaled-factor-string", "table-value-string", "table-monotone-string",
            "gamma-table-monotone-string"])
    def test_spec_value_not_a_number_rejected(self, tmp_path, capsys, command, cfg):
        """Spec values go through the one number reader: none of these is
        read as a number (``"12"`` as [1, 2], 2.7 as 2, true as 1), and
        ``assert_monotone`` takes only a JSON bool."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, path, tmp_path / "out") == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ConfigInvalid: ")]
        assert len(errors) == 1

    @pytest.mark.parametrize("factor", [
        {"kind": "monomial", "power": -1},
        {"kind": "monomial", "power": 2.7},
        {"kind": "monomial", "power": "2"},
        {"kind": "polynomial", "coeffs": "12"},
        {"kind": "polynomial", "coeffs": [1.0, "2"]},
        {"kind": "monomial", "power": 1e300},
        {"kind": "monomial", "power": 1e400},
        {"kind": "monomial", "power": 1001},
    ], ids=["negative-power", "fractional-power", "string-power", "string-coeffs",
            "string-coefficient", "huge-power", "infinite-power", "power-above-cap"])
    def test_malformed_factor_rejected(self, tmp_path, factor):
        """Each is rejected, not read as 1, x**2, x**2, 1 + 2x or 1 + 2x, and
        no coefficient list is built for a huge power."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "function": {"dim": 1, "terms": [{"coef": 1.0, "factors": {"1": factor}}]},
            "gamma": {"kind": "product", "seq": _GEOMETRIC},
        }))
        assert run_cli("anova", path, tmp_path / "out.csv") == 2

    @pytest.mark.parametrize("command,cfg", [
        ("epsdim", {"a": {"type": "unit"}, "b": {"type": "unit"}, "eps": [True]}),
        ("epsdim", {"a": {"type": "unit"}, "b": {"type": "unit"}, "eps": ["0.5"]}),
        ("epsdim", {"a": {"type": "unit"}, "b": {"type": "unit"}, "eps": [0.5], "d": [2.7]}),
        ("truncate", {"function": _LINEAR, "gamma": {"kind": "product", "seq": _GEOMETRIC},
                      "m": [1.5]}),
        ("regress", {"samples": {"inputs": [[0.2], [0.7]], "outputs": [0.1, 0.4]},
                     "lambda": True}),
    ], ids=["eps-bool", "eps-numeric-string", "d-fractional", "m-fractional", "lambda-bool"])
    def test_non_number_config_value_rejected(self, tmp_path, command, cfg):
        """Only a JSON number is a number, and an integer setting takes no fraction."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, path, tmp_path / "out") == 2

    def test_error_printed_once(self, tmp_path):
        """A failing run writes exactly one stderr line, the ``error:`` line.

        It runs as a subprocess: pytest's log capture would hide a second,
        logged copy of the line in process.
        """
        env = dict(os.environ)
        src = str(Path(tensorsplit.cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tensorsplit.cli", "equiv",
             "--config", str(CONFIG_DIR / "equiv_uncertified.json"),
             "--out", str(tmp_path / "out.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 16
        assert proc.stderr.splitlines() == (GOLDEN_DIR / "equiv_uncertified.err").read_text().splitlines()

    def test_sobol_zero_weight_reads_like_weighted_norm(self, tmp_path, capsys):
        """Exit 9 with the same line as ``truncate`` on the same config."""
        config = GOLDEN_DIR / "truncate_zero_weight.json"
        assert run_cli("sobol", config, tmp_path / "out.csv") == 9
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == (GOLDEN_DIR / "truncate_zero_weight.err").read_text().splitlines()

    def test_negative_truncation_order(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "truncate_example.json").read_text())
        cfg["m"] = [-1]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("truncate", path, tmp_path / "out.csv") == 8

    @pytest.mark.parametrize("model,eps,d,cap,code,line", [
        # the first eps hits the cap; the smallest one alone meets NotCompact first
        ("deep", [0.3, 0.2], [], 2, 7, "EnumerationCap: visited more than 2 candidate indices"),
        ("deep", [0.2, 0.3], [], 2, 6,
         "NotCompact: entry multipliers do not decay; the threshold set is unbounded"),
        # a negative d is met right after the first eps's walk
        ("pinned", [0.2, 0.005], [1, -1], 500, 2,
         "ConfigInvalid: restriction dimension must be nonnegative"),
        ("pinned", [0.005, 0.2], [-1], 500, 7, "EnumerationCap: visited more than 500 candidate indices"),
        # a nonpositive eps is met where it stands
        ("pinned", [0.2, -1.0, 0.005], [], 500, 2, "ConfigInvalid: eps must be positive"),
        ("pinned", [0.2, 0.005, -1.0], [], 500, 7, "EnumerationCap: visited more than 500 candidate indices"),
    ])
    def test_epsdim_errors_keep_per_eps_order(self, tmp_path, capsys, model, eps, d, cap, code, line):
        """One enumeration serves every eps, but a failing request reports the
        error that one walk per eps, in list order, meets first."""
        a = json.loads((GOLDEN_DIR / "epsdim_cap.json").read_text())["a"]
        if model == "deep":
            # entry multipliers: 2.5 at coordinate 1, then 0.025 for ever
            a = {"type": "spline", "gamma": {"kind": "product", "seq": {"kind": "constant", "value": 1.0}},
                 "s": 1.0, "lam": [0.1, 10.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"a": a, "b": {"type": "unit"}, "eps": eps, "d": d}))
        out = tmp_path / "out.csv"
        assert run_cli("epsdim", path, out, ["--cap", str(cap)]) == code
        assert not out.exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [f"error: {line}"]

    @pytest.mark.parametrize("cap,code,line", [
        (2, 7, "EnumerationCap: visited more than 2 candidate indices"),
        (3, 7, "EnumerationCap: visited more than 3 candidate indices"),
        *((cap, 6, "NotCompact: entry multipliers do not decay; the threshold set is unbounded")
          for cap in (4, 5, 8)),
    ])
    def test_epsdim_cap_races_not_compact(self, tmp_path, capsys, cap, code, line):
        """Entry multipliers 4, 1.5, 0.025, 1.5, then 0.025 for ever: the
        root and total level 1 are 4 candidates, and the entry scan of
        coordinate 1 meets NotCompact.  A cap below 4 trips while level 1 is
        built (exit 7); from 4 on, the scan's error wins over the cap (exit
        6)."""
        a = {"type": "spline", "gamma": {"kind": "product", "seq": {"kind": "constant", "value": 0.05}},
             "s": 0.5, "lam": [0.00625, 0.05 / 3, 1.0, 0.05 / 3, 1.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"a": a, "b": {"type": "unit"}, "eps": [0.2]}))
        assert run_cli("epsdim", path, tmp_path / "out.csv", ["--cap", str(cap)]) == code
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [f"error: {line}"]

    @pytest.mark.parametrize("command,cfg,line", [
        ("anova", {"function": _LINEAR, "gamma": {"kind": "table", "entries": [[[1], 0.5], [[1], 0.7]]}},
         "error: ConfigInvalid: gamma table repeats support [1]"),
        ("anova", {"function": _LINEAR, "gamma": {"kind": "table", "entries": [[[1, 2], 0.5], [[2, 1], 0.7]]}},
         "error: ConfigInvalid: gamma table repeats support [2, 1]"),
        ("anova", {"function": _LINEAR, "gamma": {"kind": "table", "entries": [[[2, 1, 1], 0.5]]}},
         "error: ConfigInvalid: bad support [2, 1, 1]: a coordinate is repeated"),
        ("epsdim", {"a": {"type": "table", "entries": [[{"1": 1}, 2.0], [{"1": 1}, 3.0]]},
                    "b": {"type": "unit"}, "eps": [0.5]},
         "error: ConfigInvalid: weight table repeats index {'1': 1}"),
        ("epsdim", {"a": {"type": "table", "entries": [[{}, 1.0], [{"1": 0}, 3.0]]},
                    "b": {"type": "unit"}, "eps": [0.5]},
         "error: ConfigInvalid: weight table repeats index {'1': 0}"),
    ], ids=["gamma-support", "gamma-support-reordered", "gamma-coordinate", "weight-index",
            "weight-index-zero-level"])
    def test_repeated_table_entry_rejected(self, tmp_path, capsys, command, cfg, line):
        """A later entry does not silently replace an earlier one: exit 2."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, path, tmp_path / "out.csv") == 2
        assert not (tmp_path / "out.csv").exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [line]

    @pytest.mark.parametrize("command", ["anova", "anchored", "sobol", "truncate"])
    @pytest.mark.parametrize("dim", [MAX_DECOMP_DIM + 1, 40])
    def test_decomposition_dim_limited(self, tmp_path, capsys, command, dim):
        """Every subcommand that lists all 2**dim components refuses a
        dimension above the limit at once, with exit 2."""
        f = {"dim": dim, "terms": [{"coef": 1.0, "factors": {
            "1": {"kind": "monomial", "power": 1}}}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": f, "gamma": {"kind": "product", "seq": _GEOMETRIC}}))
        out = tmp_path / "out.csv"
        assert run_cli(command, path, out) == 2
        assert not out.exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [f"error: ConfigInvalid: a decomposition lists all 2**dim components; "
                          f"dim {dim} exceeds {MAX_DECOMP_DIM}"]

    @pytest.mark.parametrize("command", ["anova", "anchored", "sobol", "truncate"])
    @pytest.mark.parametrize("terms,line", [
        # the constant component is (1e160 * c)**2 in both modes
        ([{"coef": 1e160, "factors": {"1": {"kind": "monomial", "power": 1}}},
          {"coef": -1e160, "factors": {"1": {"kind": "monomial", "power": 2}}}],
         "the energy of component SupportSet([]) overflows the float range"),
        ([{"coef": 1.0, "factors": {"1": {"kind": "polynomial", "coeffs": [1e200, 1e200]}}}],
         "the energy of component SupportSet([]) overflows the float range"),
        # f' * g' of the two terms is +inf and -inf at the nodes
        ([{"coef": 1.0, "factors": {"1": {"kind": "sin", "freq": 1e300}}},
          {"coef": 1.0, "factors": {"1": {"kind": "cos", "freq": 1e300}}}],
         "a derivative inner product at coordinate 1 overflows the float range"),
        # the same two terms times 0 are the zero function, beside x2
        ([{"coef": 0.0, "factors": {"1": {"kind": "sin", "freq": 1e300}}},
          {"coef": 0.0, "factors": {"1": {"kind": "cos", "freq": 1e300}}},
          {"coef": 1.0, "factors": {"2": {"kind": "monomial", "power": 1}}}], None),
    ], ids=["constant-component", "polynomial-coeffs", "derivative-inner", "zero-terms"])
    def test_overflowing_energy_rejected(self, tmp_path, capsys, command, terms, line):
        """An energy past the float range is one error line and exit 2,
        not a traceback.  Terms of coefficient 0 take no part, so their
        overflowing integrals are never taken: the rows are those of the
        other terms alone."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms},
                                    "gamma": {"kind": "product", "seq": _POWER}}))
        if line is None:
            assert run_cli(command, path, tmp_path / "out.csv") == 0
            path.write_text(json.dumps({"function": {"dim": 2, "terms": terms[2:]},
                                        "gamma": {"kind": "product", "seq": _POWER}}))
            assert run_cli(command, path, tmp_path / "alone.csv") == 0
            assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
            return
        assert run_cli(command, path, tmp_path / "out.csv") == 2
        assert not (tmp_path / "out.csv").exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [f"error: ConfigInvalid: {line}"]

    @pytest.mark.parametrize("command", ["anova", "sobol", "truncate"])
    def test_overflowing_component_energy_rejected(self, tmp_path, capsys, command):
        """Both terms have mean 0, so the constant ANOVA component is 0; the
        component [1] sums +inf and -inf pieces."""
        terms = [{"coef": 1e160, "factors": {"1": {"kind": "polynomial", "coeffs": [-0.5, 1.0]}}},
                 {"coef": -1e160, "factors": {"1": {"kind": "polynomial",
                                                     "coeffs": [-0.5, 0.0, 1.5]}}}]
        path = tmp_path / "cfg.json"
        cfg = {"function": {"dim": 2, "terms": terms}, "gamma": {"kind": "product", "seq": _POWER}}
        if command != "anova":
            cfg["mode"] = "anova"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, path, tmp_path / "out.csv") == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: the energy of component SupportSet([1]) "
                          "overflows the float range"]

    @pytest.mark.parametrize("command", ["sobol", "truncate"])
    def test_overflowing_energy_sum_rejected(self, tmp_path, capsys, command):
        """Two weighted energies of 1e308 each, whose sum is not finite."""
        terms = [{"coef": 1e154, "factors": {k: {"kind": "polynomial", "coeffs": [-0.5, 1.0]}}}
                 for k in ("1", "2")]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms}, "gamma": {
            "kind": "product", "seq": {"kind": "power", "c": 1.0, "p": 0.0}}}))
        assert run_cli(command, path, tmp_path / "out.csv") == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: the weighted energies sum past the float range"]

    def test_overflowing_function_truncation_written(self, tmp_path):
        """The energies are inf without tripping a sum.  1e160 (x1 - 1/2)
        vanishes at the anchor, so S_0 f = 0 and the order-0 error is the
        infinite norm of f; S_1 f = f has no component above 1, so m = 1
        and 2 read 0 (summing f against S_1 f met +inf and -inf pieces and
        exited 2)."""
        terms = [{"coef": 1e160, "factors": {"1": {"kind": "polynomial", "coeffs": [-0.5, 1.0]}}}]
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms},
                                    "gamma": {"kind": "product", "seq": _POWER}}))
        assert run_cli("anova", path, tmp_path / "anova.csv") == 0
        assert "[1],inf,inf" in (tmp_path / "anova.csv").read_text()
        assert run_cli("truncate", path, out) == 0
        assert out.read_text() == "m,error,bound,bound_ratio\n0,inf,inf,nan\n1,0,inf,0\n2,0,inf,0\n"

    def test_overflowing_anova_component_written(self, tmp_path, capsys):
        """The same function in ANOVA: S_1 f = f, so the errors are the
        component energies above m, +inf at m = 0 and 0 beyond, written as
        they are with exit 0 (summing f against S_1 f met +inf and -inf
        pieces and exited 2)."""
        terms = [{"coef": 1e160, "factors": {"1": {"kind": "polynomial", "coeffs": [-0.5, 1.0]}}}]
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms},
                                    "gamma": {"kind": "product", "seq": _POWER}, "mode": "anova"}))
        assert run_cli("truncate", path, out) == 0
        assert out.read_text() == "m,error,bound,bound_ratio\n0,inf,inf,nan\n1,0,inf,0\n2,0,inf,0\n"

    def test_overflowing_anova_component_error_rejected(self, tmp_path, capsys):
        """Two centered terms on x1 whose derivative pieces are all +inf
        (their derivatives correlate positively) but whose value pieces are
        +inf and -inf (their values correlate negatively): the energies
        stay inf, and the L2 error of the component [1] is exit 2."""
        terms = [{"coef": 1e160, "factors": {"1": {"kind": "polynomial", "coeffs": [-0.5, 1.0]}}},
                 {"coef": 1e160, "factors": {"1": {"kind": "polynomial",
                                                    "coeffs": [0.225, -0.95, 0.0, 1.0]}}}]
        cfg = {"function": {"dim": 2, "terms": terms}, "gamma": {"kind": "product", "seq": _POWER}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("anova", path, tmp_path / "anova.csv") == 0
        assert "[1],inf,inf" in (tmp_path / "anova.csv").read_text()
        path.write_text(json.dumps({**cfg, "mode": "anova", "m": [1, 0]}))
        assert run_cli("truncate", path, tmp_path / "out.csv") == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: the L2 error of approximant 1 "
                          "overflows the float range"]

    def test_overflowing_anova_integral_rejected(self, tmp_path, capsys):
        """1e200 * (x1 - 1/2) and 1e200 * (x1**5 - 1/6) rise together, so
        their derivative pieces are +inf, but the 1-D integral of their
        values meets +inf and -inf: the component [1] has no L2 error, and
        every m below 1 is exit 2, naming the first one."""
        terms = [{"coef": 1.0, "factors": {"1": {"kind": "polynomial", "coeffs": [-5e199, 1e200]}}},
                 {"coef": 1.0, "factors": {"1": {"kind": "polynomial",
                                                  "coeffs": [-1e200 / 6, 0, 0, 0, 0, 1e200]}}}]
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg = {"function": {"dim": 2, "terms": terms}, "gamma": {"kind": "product", "seq": _POWER},
               "mode": "anova"}
        path.write_text(json.dumps({**cfg, "m": [2, 1]}))
        assert run_cli("truncate", path, out) == 0
        path.write_text(json.dumps({**cfg, "m": [1, 0]}))
        assert run_cli("truncate", path, out) == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: the L2 error of approximant 1 "
                          "overflows the float range"]

    def test_nan_anova_error_rejected(self, tmp_path, capsys):
        """1.7e308 * (x1 - 1/2) times (x2 - 1/2) and times the orthogonal
        x2**2 - x2 + 1/6: the component [1, 2] has infinite energy, and its
        cross piece is +inf * 0 = nan.  The truncation errors leave the
        exact 0 out and read 0 at m = 2 and inf at m = 0, but the energy of
        [1, 2] is nan, and the weighted norm that scales the bound refuses
        write.  ``sobol`` refuses the same nan energy rather than writing
        nan indices, and ``anova`` and ``anchored`` rather than writing its
        norm as 0."""
        x1 = {"kind": "polynomial", "coeffs": [-0.85e308, 1.7e308]}
        terms = [{"coef": 1.0, "factors": {"1": x1, "2": {"kind": "polynomial", "coeffs": [-0.5, 1.0]}}},
                 {"coef": 1.0, "factors": {"1": x1, "2": {"kind": "polynomial",
                                                          "coeffs": [1 / 6, -1.0, 1.0]}}}]
        f = function_from_json({"dim": 2, "terms": terms})
        assert tensorsplit.sensitivity._truncation_errors(f, [2, 0], "anova") == [0.0, math.inf]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms}, "mode": "anova",
                                    "gamma": {"kind": "product", "seq": _POWER}, "m": [2, 0]}))
        assert run_cli("truncate", path, tmp_path / "out.csv") == 2
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms}, "mode": "anova",
                                    "gamma": {"kind": "product", "seq": _POWER}}))
        assert run_cli("sobol", path, tmp_path / "out.csv") == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: the weighted energies sum past the float range"] * 2
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms},
                                    "gamma": {"kind": "product", "seq": _POWER}}))
        for command in ("anova", "anchored"):
            assert run_cli(command, path, tmp_path / f"{command}.csv") == 2
            assert not (tmp_path / f"{command}.csv").exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: the energy of component SupportSet([1, 2]) "
                          "overflows the float range"] * 2

    @pytest.mark.parametrize("command", ["anova", "anchored", "sobol", "truncate"])
    def test_negative_power_exponent_rejected(self, tmp_path, capsys, command):
        """A config's power sequence decays: p < 0 is exit 2, not a weight
        that overflows on [11]."""
        seq = {"kind": "power", "c": 1, "p": -300}
        f = {"dim": 12, "terms": [{"coef": 1.0, "factors": {
            "1": {"kind": "monomial", "power": 1}}}]}
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"function": f, "gamma": {"kind": "product", "seq": seq}}))
        assert run_cli(command, path, out) == 2
        assert not out.exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [f"error: ConfigInvalid: bad sequence spec {seq!r}: "
                          "exponent must be nonnegative"]

    def test_growing_weight_quotient_not_compact(self, tmp_path, capsys):
        """The quotient k**2 of two power weights grows: still NotCompact,
        whose negative exponent no config may give."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "a": {"type": "product", "gamma": {"kind": "power", "c": 1.0, "p": 2.0}},
            "b": {"type": "product", "gamma": {"kind": "power", "c": 1.0, "p": 4.0}},
            "eps": [0.5],
        }))
        assert run_cli("epsdim", cfg, tmp_path / "out.csv") == 6
        assert capsys.readouterr().err.splitlines() == [
            "error: NotCompact: entry multipliers stay above 1 for arbitrarily large coordinates"]

    @pytest.mark.parametrize("a,b", [
        # the quotient k**400 leaves the float range long before the guard
        ({"type": "product", "gamma": {"kind": "power", "c": 1.0, "p": 0.0}},
         {"type": "product", "gamma": {"kind": "power", "c": 1.0, "p": 400.0}}),
        # entry multipliers 0.025 at coordinate 1, then 2.5 for ever
        ({"type": "spline", "gamma": {"kind": "product", "seq": {"kind": "constant", "value": 1.0}},
          "s": 1.0, "lam": [10.0, 0.1]}, {"type": "unit"}),
        ({"type": "product", "gamma": {"kind": "constant", "value": 5.0}}, {"type": "unit"}),
    ], ids=["overflowing_quotient", "constant_tail", "constant"])
    def test_multipliers_above_one_for_ever(self, tmp_path, capsys, a, b):
        """Exit 6 with the line of the growing quotient above."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": a, "b": b, "eps": [0.5]}))
        assert run_cli("epsdim", cfg, tmp_path / "out.csv") == 6
        assert capsys.readouterr().err.splitlines() == [
            "error: NotCompact: entry multipliers stay above 1 for arbitrarily large coordinates"]

    @pytest.mark.parametrize("a,b", [
        ({"type": "product", "gamma": {"kind": "power", "c": 1e6, "p": 2.5}},
         {"type": "product", "gamma": {"kind": "power", "c": 1.0, "p": 2.0}}),
        ({"type": "product", "gamma": {"kind": "geometric", "c": 4.0, "rho": 0.9999998}},
         {"type": "product", "gamma": {"kind": "geometric", "c": 1.0, "rho": 0.9999999}}),
        ({"type": "spline", "gamma": {"kind": "product", "seq": {"kind": "power", "c": 1e6, "p": 0.5}}},
         {"type": "unit"}),
    ], ids=["power_quotient", "geometric_quotient", "spline_unit"])
    def test_multipliers_above_one_past_the_guard(self, tmp_path, capsys, a, b):
        """Multipliers that decay but stay above 1 past coordinate 10**7
        exit 7 with one line, without scanning up to it or building a
        table that long."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": a, "b": b, "eps": [0.5]}))
        assert run_cli("epsdim", cfg, tmp_path / "out.csv") == 7
        assert capsys.readouterr().err.splitlines() == [
            "error: EnumerationCap: coordinate scan exceeded the hard guard"]

    def test_zero_weight_after_an_infinite_product(self, tmp_path):
        """Weights 1e300, 1e300, 0: the product on [1, 2, 3] is 0, not
        inf * 0 = nan, so that set has no index and the others are finite."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"function": _LINEAR | {"dim": 3}, "gamma": {
            "kind": "product", "seq": {"kind": "finite", "values": [1e300, 1e300, 0]}}}))
        assert run_cli("sobol", path, out) == 0
        assert out.read_text() == 'omega,index,total\n[1],1,1\n[2],0,0\n"[1,2]",0,0\n'

    @pytest.mark.parametrize("values,verb", [([1e300, 1e300, 0], "overflows"),
                                             ([1e-300, 1e-300], "underflows")],
                             ids=["overflow", "underflow"])
    def test_equiv_set_weight_past_float_range_rejected(self, tmp_path, capsys, values, verb):
        """gamma on {1, 2} is 1e300 * 1e300 = inf or 1e-300 * 1e-300 = 0:
        exit 2 with one line that names the set, not a division by zero in
        alpha / gamma."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        path.write_text(json.dumps({"gamma": {"kind": "product", "seq": {
            "kind": "finite", "values": values}}}))
        assert run_cli("equiv", path, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigInvalid: the set weight of [1, 2] {verb} the float range"]

    def test_transform_finite_weight_near_float_max(self, tmp_path, capsys):
        """A finite sequence has tail 0, so the squares of its terms, which
        overflow here, are never needed: the transform is written."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": {"type": "product", "gamma": {
            "kind": "finite", "values": [1e300]}}, "indices": [{}]}))
        assert run_cli("transform", path, out) == 0
        assert capsys.readouterr().err == ""
        # 1 / exp(log1p(1e300)): the exp carries the rounding of the log
        assert out.read_text() == ("index,weight,orthogonalized,ratio\n"
                                   "{},1,1.0000000000000237e-300,1.0000000000000237e-300\n")

    @pytest.mark.parametrize("a,line", [
        ({"type": "spline", "s": 0.5, "gamma": {"kind": "product", "seq": {
            "kind": "geometric", "c": 1e150, "rho": 0.5}}},
         "a tail sum of inverse weights overflows the float range"),
        ({"type": "product", "gamma": {"kind": "geometric", "c": 1e150, "rho": 0.5}},
         "a tail sum of inverse weights overflows the float range"),
        ({"type": "spline", "s": 0.5, "lam": 1e-300, "gamma": {"kind": "product", "seq": {
            "kind": "geometric", "c": 2, "rho": 0.999999}}},
         "the squares of the terms of GeometricSeq(c=1.9999999999999998e+300, rho=0.999999) "
         "past coordinate 16 overflow the float range"),
    ], ids=["spline-tail", "product-tail", "spline-squares"])
    def test_transform_overflow_rejected(self, tmp_path, capsys, a, line):
        """A product of 1 + t_k past the float range, or squares of t_k
        that the log1p remainder needs past it, exit 2 with one line."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": a, "indices": [{}]}))
        assert run_cli("transform", path, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [f"error: ConfigInvalid: {line}"]

    @pytest.mark.parametrize("a", [
        {"type": "table", "entries": [[{}, 1e-320], [{"1": 1}, 1.0]]},
        {"type": "scaled", "factor": 1e-320, "base": _GEOMETRIC_PRODUCT},
        # finite inverses 1e308 whose sum overflows inside fsum
        {"type": "table", "entries": [[{}, 1e-308], [{"1": 1}, 1e-308]]},
    ], ids=["table-inverse", "scaled-factor", "table-sum"])
    def test_transform_overflowing_inverse_weights_rejected(self, tmp_path, capsys, a):
        """1 / 1e-320 and a finite tail over a factor of 1e-320 lie past
        the float range: exit 2 with one overflow line, not NormDegenerate's
        "not summable" (the tails are finite sums) or a traceback."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": a, "indices": [{}, {"1": 1}]}))
        assert run_cli("transform", path, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigInvalid: a tail sum of inverse weights overflows the float range"]

    @pytest.mark.parametrize("a", [
        {"type": "spline", "gamma": {"kind": "product", "seq": {"kind": "power", "c": 1e-300, "p": 2}}},
        {"type": "scaled", "factor": 2.0, "base": {"type": "spline", "gamma": {
            "kind": "product", "seq": {"kind": "finite", "values": [1e-300, 1e-300]}}}},
    ], ids=["spline-power", "scaled-spline-finite"])
    def test_transform_underflowing_set_weight_rejected(self, tmp_path, capsys, a):
        """gamma_1 * gamma_2 underflows to 0 although both are positive, so
        the weight reads inf: exit 2 naming the set, not inf / inf = nan
        (the product-weight case is the golden
        ``transform_underflowing_set_weight``)."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": a, "indices": [{}, {"1": 1, "2": 1}]}))
        assert run_cli("transform", path, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigInvalid: the set weight of [1, 2] underflows the float range"]

    def test_transform_suppressed_component_refused(self, tmp_path, capsys):
        """A coordinate value of 0 suppresses its components: the weight
        reads inf and so does the orthogonalized weight, whose ratio is nan.
        Exit 2 naming the index, and no underflow error: no value underflowed."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": {"type": "product", "gamma": {
            "kind": "finite", "values": [0.5, 0.0]}}, "indices": [{"1": 1}, {"2": 1}]}))
        assert run_cli("transform", path, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigInvalid: the weight of index {2: 1} reads inf (a suppressed component)"]

    @pytest.mark.parametrize("a", [
        {"type": "product", "gamma": {"kind": "finite", "values": [0.5, 0.0]}},
        {"type": "spline", "s": 1, "gamma": {"kind": "product", "seq": {"kind": "finite", "values": [0.5, 0.0]}}},
    ], ids=["product", "spline"])
    def test_transform_suppressed_component_writes_no_nan(self, tmp_path, capsys, a):
        """No nan in an exit-0 artifact: the config above, and spline
        weights with s 1 over the same gamma, either exit nonzero with one
        ``error:`` line and no artifact, or write no nan cell (both wrote
        ``inf,inf,nan`` for {2: 1})."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": a, "indices": [{"1": 1}, {"2": 1}]}))
        code, err = run_cli("transform", path, out), capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1 and err[0].startswith("error: ") and not out.exists()
        else:
            assert "nan" not in {cell for row in csv.reader(io.StringIO(out.read_text())) for cell in row}

    @pytest.mark.parametrize("seq", [_POWER, {"kind": "finite", "values": [1.0]}],
                             ids=["power", "finite"])
    def test_transform_level_decay_rounding_to_one(self, tmp_path, capsys, seq):
        """With s 1e-20, 2**(-2s) rounds to 1: the inverse weights of the
        levels are not summable, so exit 5 with one line."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": {"type": "spline", "s": 1e-20, "gamma": {
            "kind": "product", "seq": seq}}, "indices": [{}]}))
        assert run_cli("transform", path, out) == 5
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: NormDegenerate: inverse weights are not summable; "
            "the redundant seminorm vanishes on 1"]

    def test_transform_level_sum_scale_overflowing(self, tmp_path, capsys):
        """With lam 1e-300 and s 1e-10, rho / ((1 - rho) * lam) overflows
        to inf although the multipliers sum to a finite 1.6e300: the
        inverse weights are not summable, so exit 5 with one line, not a
        ``{},1,nan,nan`` row."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": {"type": "spline", "s": 1e-10, "lam": [1e-300], "gamma": {
            "kind": "product", "seq": _POWER}}, "indices": [{}]}))
        assert run_cli("transform", path, out) == 5
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: NormDegenerate: inverse weights are not summable; "
            "the redundant seminorm vanishes on 1"]

    def test_transform_level_sum_subnormal_lam(self, tmp_path, capsys):
        """With lam 5e-324 and s 0.1, (1 - rho) * lam rounds to 0 although
        rho < 1: the scale reads inf, as an overflowing quotient does, so
        exit 5 with the same line, not a ``ZeroDivisionError`` traceback."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": {"type": "spline", "s": 0.1, "lam": 5e-324, "gamma": {
            "kind": "product", "seq": {"kind": "finite", "values": [1.0]}}}, "indices": [{}]}))
        assert run_cli("transform", path, out) == 5
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: NormDegenerate: inverse weights are not summable; "
            "the redundant seminorm vanishes on 1"]

    @pytest.mark.parametrize("entries,code", [
        ([[[1], 0.5], [[2], 0.5], [[1, 2], 0.25]], 0),
        ([[[1, 2], 0.5]], 2),
    ], ids=["closed", "not-closed"])
    def test_gamma_table_assert_monotone(self, tmp_path, capsys, entries, code):
        """``assert_monotone`` refuses a gamma support that is not closed
        under taking subsets with one line, and accepts one that is."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"function": _LINEAR | {"dim": 2}, "gamma": {
            "kind": "table", "entries": entries, "assert_monotone": True}}))
        assert run_cli("anova", path, out) == code
        errors = capsys.readouterr().err.splitlines()
        assert errors == ([] if code == 0 else [
            "error: ConfigInvalid: gamma support is not closed under taking subsets"])

    @pytest.mark.parametrize("kind", ["spline", "aniso"])
    def test_epsdim_dyadic_overflow_rejected(self, tmp_path, capsys, kind):
        """eps**2 = 1e-320 admits weights past the float range, so a weight
        2**1024 is an error, not an inf that would drop members."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"a": {"type": kind, "s": 1.0, "gamma": {
            "kind": "table", "entries": [[[1], 1.0]]}}, "b": {"type": "unit"}, "eps": [1e-160]}))
        assert run_cli("epsdim", path, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigInvalid: the dyadic weight 2**1024 overflows the float range"]

    def test_equiv_overflowing_constant_rejected(self, tmp_path, capsys):
        """The product of 1 + q * alpha_k over k is past the float range:
        exit 2 with one line that names the constant, not a traceback."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        path.write_text(json.dumps({"gamma": {"kind": "product", "seq": {
            "kind": "geometric", "c": 1e300, "rho": 0.5}}}))
        assert run_cli("equiv", path, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigInvalid: the equivalence constant c_prime overflows the float range"]

    @pytest.mark.parametrize("seq", [
        {"kind": "finite", "values": [1e300, 1e300, 0]},
        {"kind": "power", "c": 1e6, "p": 2.0},
        None,
    ], ids=["power-sum", "product", "table-sum"])
    def test_overflowing_order_sums_rejected(self, tmp_path, capsys, seq):
        """Order sums past the float range (v**2 of a weight, the product
        of 1 + v, or the sum of table weights) are one error line and
        exit 2, not a traceback."""
        gamma = ({"kind": "table", "entries": [[[k], 1.7e308] for k in range(1, 30)]}
                 if seq is None else {"kind": "product", "seq": seq})
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"function": _LINEAR | {"dim": 3}, "gamma": gamma,
                                    "mode": "anova"}))
        assert run_cli("truncate", path, out) == 2
        assert not out.exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: the order sums of the set weights "
                          "overflow the float range"]

    def test_bad_anchor_flag(self, tmp_path):
        code = run_cli(
            "anova", CONFIG_DIR / "anova_example.json", tmp_path / "o.csv",
            extra=["--anchor", "1.5"],
        )
        assert code == 2

    def test_cap_flag_only_on_epsdim(self, tmp_path):
        assert run_cli("epsdim", CONFIG_DIR / "epsdim_example.json", tmp_path / "o.csv",
                       extra=["--cap", "0"]) == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("transform", CONFIG_DIR / "transform_example.json", tmp_path / "o.csv",
                    extra=["--cap", "500"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,text,key", [
        ("transform", '{"a": {"type": "unit"}, "indices": [], "a": {"type": "unit"}}', "a"),
        ("transform", '{"a": {"type": "product", "gamma": {"kind": "geometric", "c": 0.5, "rho": 0.5}},'
                      ' "indices": [{"1": 1, "1": 2}]}', "1"),
    ], ids=["top-level", "index"])
    def test_repeated_json_key_rejected(self, tmp_path, capsys, command, text, key):
        """A later key does not silently replace an earlier one: exit 2."""
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run_cli(command, path, tmp_path / "out.csv") == 2
        assert not (tmp_path / "out.csv").exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [f"error: ConfigInvalid: config repeats the key {key!r}"]

    def test_affine_s_with_tiny_slope(self, tmp_path):
        """A slope whose 2**(-2b) rounds to 1 reads like b = 0."""
        outs = []
        for s in ({"kind": "affine", "a": 1.0, "b": 1e-300}, 1.0):
            a = {"type": "spline", "gamma": {"kind": "product", "seq": {"kind": "power", "c": 1.0, "p": 2.0}},
                 "s": s}
            path, out = tmp_path / "cfg.json", tmp_path / f"out{len(outs)}.csv"
            path.write_text(json.dumps({"a": a, "b": {"type": "unit"}, "eps": [0.1, 0.02], "d": [1, 3]}))
            assert run_cli("epsdim", path, out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command,cfg,code,line", [
        ("epsdim", {"a": {"type": "unit"}, "b": {"type": "unit"}, "eps": [0.5], "dims": "bogus"},
         2, "ConfigInvalid: unknown dimension model 'bogus'"),
        ("epsdim", {"a": {"type": "spline", "gamma": {"kind": "product", "seq": _GEOMETRIC},
                          "s": [], "lam": 1.0}, "b": {"type": "unit"}, "eps": [0.5]},
         2, "ConfigInvalid: parameter list must be nonempty"),
        ("epsdim", {"a": {"type": "spline", "gamma": {"kind": "product", "seq": _GEOMETRIC},
                          "s": {"kind": "affine", "a": 1.0}, "lam": 1.0},
                    "b": {"type": "unit"}, "eps": [0.5]},
         2, "ConfigInvalid: missing keys ['b'] in affine s spec"),
        ("epsdim", {"a": {"type": "bogus"}, "b": {"type": "unit"}, "eps": [0.5]},
         2, "ConfigInvalid: unknown weight type 'bogus'"),
        ("equiv", {"gamma": {"kind": "bogus"}}, 2, "ConfigInvalid: unknown gamma kind 'bogus'"),
        ("transform", {"a": {"type": "table", "entries": ["x"]}, "indices": [{}]},
         2, "ConfigInvalid: table entry must be [index, value]: 'x'"),
        ("epsdim", {"a": _GEOMETRIC_PRODUCT, "b": {"type": "product", "gamma": _POWER}, "eps": [0.5]},
         13, "TailUnavailable: cannot divide GeometricSeq by PowerSeq"),
    ], ids=["dims", "spline-s-empty", "affine-s-without-b", "weight-type", "gamma-kind",
            "table-entry", "geometric-over-power"])
    def test_config_refusal(self, tmp_path, capsys, command, cfg, code, line):
        """A refused spec exits with its code, writes no artifact and prints
        exactly one error line."""
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(cfg))
        assert run_cli(command, path, out) == code
        assert not out.exists()
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [f"error: {line}"]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1e: log1p_sum loops to a tolerance a k**-1.1 tail does not reach; "
        "item 25's tail summary unmarks this"))
    def test_equiv_power_just_above_two(self, tmp_path):
        """Power gamma with p 2.2 is certified; today it exits 13 with
        ``TailUnavailable: log1p summation did not converge``."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        path.write_text(json.dumps({"gamma": {"kind": "product", "seq": {"kind": "power", "c": 1, "p": 2.2}},
                                    "q_tilde": 1}))
        assert run_cli("equiv", path, out) == 0
        assert json.loads(out.read_text())["certified"] is True


class TestEnumerationCount:
    def test_one_enumeration_per_request(self, tmp_path, monkeypatch):
        """Every eps row, every d row and d0 come from one walk over the
        threshold set, grouped (a level-graded pair) or vector by vector,
        at the smallest eps."""
        calls = []
        run = tensorsplit.epsdim._members

        def recorded(a, b, eps2, *args, graded):
            calls.append((graded, eps2))
            return run(a, b, eps2, *args, graded=graded)

        monkeypatch.setattr(tensorsplit.epsdim, "_members", recorded)
        for config, graded in [(CONFIG_DIR / "epsdim_example.json", True),
                               (GOLDEN_DIR / "epsdim_spline_listed.json", False)]:
            calls.clear()
            out = tmp_path / "eps.csv"
            assert run_cli("epsdim", config, out) == 0
            eps = min(json.loads(config.read_text())["eps"])
            assert calls == [(graded, eps * eps)]
            assert out.read_bytes() == (GOLDEN_DIR / config.name.replace(".json", ".out")).read_bytes()


class TestJsonRender:
    def test_float_list_matches_per_element_rendering(self):
        """Lists of floats take a direct path; it writes what the scalar path writes."""
        values = [0.1, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan")]
        expected = "[\n" + ",\n".join("  " + _json_render(v, 1) for v in values) + "\n]"
        assert _json_render(values) == expected
        assert _json_render({"a": values}).endswith('"inf",\n    "-inf",\n    "nan"\n  ]\n}')

    def test_float_rows_match_format(self):
        """Rows of floats, written in one format call when every element is
        finite, read as ``format(v, ".17g")`` element by element."""
        rng = np.random.default_rng(59)
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                    -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 2.0 ** 53 + 1.0]
        rows = [specials, [1e308, 1e308], [0.5, float("nan")], [float("inf"), -1.0],
                [float("-inf")], [-0.0], (rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)).tolist()]
        rows += rng.normal(size=(20, 3)).tolist()

        def cell(v):
            text = format(v, ".17g")
            return json.dumps(text) if text in ("inf", "-inf", "nan") else text

        expected = "{\n  \"c\": [\n" + ",\n".join(
            "    [\n" + ",\n".join("      " + cell(v) for v in row) + "\n    ]" for row in rows
        ) + "\n  ]\n}"
        assert _json_render({"c": rows}) == expected
        assert _json_render(specials) == "[\n" + ",\n".join("  " + cell(v) for v in specials) + "\n]"

        def nested(obj, indent=0):
            """The reference layout: lists of lists, floats read as ``cell``."""
            if not isinstance(obj, list):
                return cell(obj) if type(obj) is float else str(obj)
            inner = "  " * (indent + 1)
            return ("[\n" + ",\n".join(inner + nested(v, indent + 1) for v in obj)
                    + "\n" + "  " * indent + "]")

        # matrices of rows of one length take one format call only when every
        # element is a finite float and the sum stays finite
        square = rng.normal(size=(40, 3)).tolist()
        matrices = [square, [row[:] for row in square[:5]] + [[0.5, float("inf"), 1.0]],
                    [[1e308, 1e308], [1e308, 1.0]], [[0.1, float("nan")], [2.0, 3.0]],
                    [[0.25, 0.5], [0.75]], [[0.5, 1], [2.0, 3.0]], [[-0.0], [5e-324]],
                    [square[:3], square[3:6]]]
        for matrix in matrices:
            for indent in (0, 2):
                assert _json_render(matrix, indent) == nested(matrix, indent), matrix


class TestRowRendering:
    """Index and support cells are built without json.dumps; they must read
    exactly as the compact json.dumps rendering does."""

    def test_index_json_matches_json_dumps(self):
        indices = [IndexVector(), IndexVector({1: 2}), IndexVector({2: 1, 10: 3}),
                   IndexVector({3: 12, 1: 1, 100: 7, 2: 5, 11: 2, 10: 1, 20: 4})]
        for j in indices:
            assert _index_json(j) == json.dumps(j.to_json_obj(), separators=(",", ":"), sort_keys=True)
        # keys sort as strings, as sort_keys sorts them
        assert _index_json(IndexVector({2: 1, 10: 3})) == '{"10":3,"2":1}'

    def test_omega_json_matches_json_dumps(self):
        for omega in [SupportSet(), SupportSet.of(1), SupportSet.of(2, 10, 11), SupportSet(range(1, 13))]:
            assert _omega_json(omega) == json.dumps(list(omega), separators=(",", ":"))


def _csv_writer_text(header, rows) -> str:
    """The oracle of the CLI's CSV text: ``csv.writer`` over the row cells,
    text as it is and any other value through ``_fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    return buf.getvalue()


def _random_function(rng: random.Random, d: int, most: int) -> dict:
    """One to four terms of at most ``most`` factors over coordinates 1..d;
    the first is not constant."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        coords = rng.sample(range(1, d + 1), rng.randint(0 if terms else 1, min(most, d)))
        factors = {str(k): rng.choice([
            {"kind": "monomial", "power": rng.randint(1, 3)},
            {"kind": "polynomial", "coeffs": [round(rng.uniform(-1.0, 1.0), 3), 1.0]},
            {"kind": "exp", "rate": round(rng.uniform(-1.0, 1.0), 3)}]) for k in coords}
        terms.append({"coef": round(rng.uniform(-2.0, 2.0), 4), "factors": factors})
    return {"dim": d, "terms": terms}


def _random_gamma(rng: random.Random, kind: str, d: int, keep: int) -> dict:
    """A product gamma, or finite order 2, or a table of every set of at
    most ``keep`` coordinates and some of up to three: those two weigh
    larger sets 0."""
    seq = {"kind": "power", "c": round(rng.uniform(0.5, 1.5), 3), "p": 2.0}
    if kind == "product":
        return {"kind": "product", "seq": seq}
    if kind == "finite_order":
        return {"kind": "finite_order", "order": 2, "base": {"kind": "product", "seq": seq}}
    sets = [c for size in (1, 2, 3) for c in itertools.combinations(range(1, d + 1), size)]
    chosen = [c for c in sets if len(c) <= keep or rng.random() < 0.7]
    return {"kind": "table", "entries": [[list(c), round(rng.uniform(0.1, 1.0), 3)] for c in chosen]}


def _decomp_rows(f, gamma, mode) -> list:
    """The anova/anchored table row by row: a zero component where
    ``decompose`` lists none, else its norm and weighted contribution."""
    listed = {t.omega: t for t in decompose(f, mode)}
    rows = []
    for omega in SupportSet(range(1, f.dim + 1)).subsets():
        t = listed.get(omega)
        if t is None:
            rows.append([_omega_json(omega), "0", "0"])
            continue
        gv = gamma.value(omega)
        if gv > 0.0:
            contribution = t.mixed_norm_sq / gv
        else:
            contribution = 0.0 if t.mixed_norm_sq == 0.0 else math.inf
        rows.append([_omega_json(omega), math.sqrt(max(0.0, t.mixed_norm_sq)), contribution])
    return rows


class TestCsvText:
    """Every CSV artifact is written as text in one pass; it must read
    exactly as ``csv.writer`` over ``_omega_json``/``_fmt`` cells does."""

    def test_rows_of_mixed_cells(self, tmp_path):
        rng = random.Random(7)
        pool = ["", "0", "a,b", '{"1":2}', '"', '""x', "[1,2]", "plain", 0.1, -0.0, math.inf,
                -math.inf, math.nan, 5e-324, 3, -7, True, False, np.float64(0.3), np.int64(12)]
        header = ["c0", "c1", "c2", "c3"]
        rows = [[rng.choice(pool) for _ in header] for _ in range(400)]
        path = tmp_path / "out.csv"
        _write_csv(str(path), header, [_csv_line(row) for row in rows])
        assert path.read_bytes() == _csv_writer_text(header, rows).encode()

    @pytest.mark.parametrize("gkind", ["product", "finite_order", "table"])
    @pytest.mark.parametrize("command", ["anova", "anchored", "sobol", "sobol_empty"])
    def test_decomposition_tables(self, tmp_path, gkind, command):
        """d = 1..12: every 2**d row of anova and anchored (a table gamma
        missing a reached set gives an inf contribution), and the Sobol rows
        with or without the empty set, left out where gamma is 0."""
        rng = random.Random(f"{gkind} {command}")
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        sobol = command.startswith("sobol")
        infinite = left_out = 0
        for d in range(1, 13):
            # Sobol components with energy need a nonzero weight, so its
            # terms have at most two factors and its tables every set of two
            spec = _random_function(rng, d, 2 if sobol else 3)
            gspec = _random_gamma(rng, gkind, d, 2 if sobol else 0)
            cfg = {"function": spec, "gamma": gspec}
            if sobol:
                mode = cfg["mode"] = rng.choice(["anova", "anchored"])
            else:
                mode = command
            path.write_text(json.dumps(cfg))
            f, gamma = function_from_json(spec), gamma_from_json(gspec)
            extra = ["--include-empty"] if command == "sobol_empty" else []
            if sobol:
                table = sobol_indices(f, gamma, mode, include_empty=bool(extra))
                rows = [[_omega_json(omega), v, table.total(omega)]
                        for omega, v in table.per_omega.items()]
                header = ["omega", "index", "total"]
                left_out += 2 ** d - len(rows)
            else:
                rows = _decomp_rows(f, gamma, mode)
                header = ["omega", "term_norm", "weighted_contribution"]
                infinite += sum(row[2] == math.inf for row in rows)
            assert run_cli(command.partition("_")[0], path, out, extra) == 0
            assert out.read_bytes() == _csv_writer_text(header, rows).encode(), d
        if sobol and gkind != "product":
            assert left_out > 0
        if gkind == "table" and not sobol:
            assert infinite > 0

    @pytest.mark.parametrize("stem,extra", [("epsdim_example", {}),
                                            ("epsdim_example", {"d": [3, 0, 1]}),
                                            ("transform_example", {})])
    def test_small_tables(self, tmp_path, stem, extra):
        """epsdim rows (the empty d cell of the row over every coordinate)
        and transform's quoted index cells: the text is what csv.writer
        writes for the cells it holds."""
        cfg = {**json.loads((CONFIG_DIR / f"{stem}.json").read_text()), **extra}
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps(cfg))
        assert run_cli(stem.partition("_")[0], path, out) == 0
        text = out.read_text()
        header, *rows = csv.reader(io.StringIO(text))
        assert text == _csv_writer_text(header, rows)
        if stem == "transform_example":
            assert [row[0] for row in rows] == ["{}", '{"1":1}', '{"1":2}', '{"1":3}']
        else:
            assert "" in {row[1] for row in rows}


class TestParserCache:
    """``main`` builds its parser once per process and reuses it."""

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def _record_args(self, monkeypatch):
        seen = []
        run = tensorsplit.cli.run

        def recording(args):
            seen.append(vars(args).copy())
            return run(args)

        monkeypatch.setattr(tensorsplit.cli, "run", recording)
        return seen

    def test_include_empty_does_not_leak(self, tmp_path, monkeypatch):
        seen = self._record_args(monkeypatch)
        config = GOLDEN_DIR / "sobol_table_include_empty.json"
        outs = []
        for i, extra in enumerate([["--include-empty"], [], ["--include-empty"], []]):
            out = tmp_path / f"sobol{i}.csv"
            assert run_cli("sobol", config, out, extra) == 0
            outs.append(out.read_bytes())
        assert [args["include_empty"] for args in seen] == [True, False, True, False]
        assert outs[0] == outs[2] == (GOLDEN_DIR / "sobol_table_include_empty.out").read_bytes()
        assert outs[1] == outs[3] != outs[0]

    def test_cap_does_not_leak(self, tmp_path, monkeypatch):
        seen = self._record_args(monkeypatch)
        config = CONFIG_DIR / "epsdim_example.json"
        codes = []
        for i, extra in enumerate([["--cap", "2"], [], ["--cap", "2"], []]):
            out = tmp_path / f"eps{i}.csv"
            codes.append(run_cli("epsdim", config, out, extra))
            if codes[-1] == 0:
                assert out.read_bytes() == (GOLDEN_DIR / "epsdim_example.out").read_bytes()
        assert [args["cap"] for args in seen] == [2, DEFAULT_CAP, 2, DEFAULT_CAP]
        assert codes == [7, 0, 7, 0]

    @pytest.mark.parametrize("argv", [
        ["nosuch", "--config", "c.json", "--out", "o.csv"],
        ["epsdim", "--out", "o.csv"],
    ], ids=["unknown-subcommand", "missing-config"])
    def test_usage_errors_exit_2_on_every_call(self, capsys, argv):
        _build_parser.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1] and "error:" in messages[0]


class TestKernelCount:
    @pytest.mark.parametrize("holdout,grams", [(False, 1), (True, 2)])
    def test_one_gram_per_point_set(self, tmp_path, monkeypatch, holdout, grams):
        """The training Gram serves the fit, the residual and rmse_train;
        only a holdout needs a second kernel matrix."""
        calls = []
        gram = AnchoredKernel.gram

        def counting(self, X, Y):
            calls.append((X.shape[0], Y.shape[0]))
            return gram(self, X, Y)

        monkeypatch.setattr(AnchoredKernel, "gram", counting)
        cfg = json.loads((CONFIG_DIR / "regress_example.json").read_text())
        cfg["samples"] = str(CONFIG_DIR / cfg["samples"])
        if not holdout:
            del cfg["holdout"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("regress", path, tmp_path / "fit.json") == 0
        assert len(calls) == grams


#: (x1 - 1/2) * x2 vanishes at the anchor 1/2 with every component that
#: leaves x1 out, so its approximant of order 0 is empty
_ZERO_AT_ANCHOR = {"dim": 2, "terms": [{"coef": 1.0, "factors": {
    "1": {"kind": "polynomial", "coeffs": [-0.5, 1.0]}, "2": {"kind": "monomial", "power": 1}}}]}


class TestNestedTruncation:
    """Truncation errors come from per-coordinate generating polynomials:
    every row is the L2 error of f and its own approximant, within 1e-13 of
    ||f|| of the exact oracle and exactly 0 where the truth is 0."""

    @staticmethod
    def _configs():
        example = json.loads((CONFIG_DIR / "truncate_example.json").read_text())
        transcendental = json.loads((GOLDEN_DIR / "truncate_anchored_transcendental.json").read_text())
        zero = {"function": _ZERO_AT_ANCHOR, "gamma": {"kind": "product", "seq": _POWER}}
        return {"example": example, "transcendental": transcendental, "zero_at_anchor": zero}

    @staticmethod
    @functools.cache
    def _truths(name):
        """(||f - S_m f||**2 for m = 0..dim, ||f||) by the exact oracle."""
        spec = TestNestedTruncation._configs()[name]["function"]
        with mpmath.workdps(40):
            oracle = ExactDecomposition(spec, "anchored")
            return oracle.errors_sq(), mpmath.sqrt(mp(oracle.l2_norm_sq()))

    @pytest.mark.parametrize("name", ["example", "transcendental", "zero_at_anchor"])
    @pytest.mark.parametrize("m_list", ["all", [3, 0, 3, 1], "beyond", [2, 0, 1]])
    def test_rows_equal_l2_error(self, tmp_path, name, m_list):
        cfg = {**self._configs()[name], "mode": "anchored"}
        f = function_from_json(cfg["function"])
        if m_list == "all":
            m_list = list(range(f.dim + 1))
        elif m_list == "beyond":
            m_list = [f.dim + 2]
        cfg["m"] = m_list
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps(cfg))
        assert run_cli("truncate", path, out) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == m_list
        truths, norm = self._truths(name)
        assert_matches_truth([float(row[1]) for row in rows],
                             [truths[m] if m <= f.dim else 0 for m in m_list], scale=norm)
        if name == "zero_at_anchor":
            assert truncate_order(f, 0, "anchored").terms[0].coef == 0.0

    @pytest.mark.parametrize("gamma", [
        {"kind": "product", "seq": {"kind": "finite", "values": [1.0]}},
        {"kind": "finite_order", "order": 1,
         "base": {"kind": "product", "seq": {"kind": "power", "c": 1.0, "p": 4.0}}},
    ], ids=["finite_product", "finite_order"])
    def test_error_within_bound_above_the_last_component(self, tmp_path, gamma):
        """1 + 0.5 x1 has no component above order 1: its anchored error is
        exactly 0 there, and so within the bound 0 that a weight of largest
        order 1 gives (summing f against S_m f wrote 4.56e-9 there)."""
        spec = {"dim": 2, "terms": [{"coef": 1.0},
                                    {"coef": 0.5, "factors": {"1": {"kind": "monomial", "power": 1}}}]}
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"function": spec, "gamma": gamma}))
        assert run_cli("truncate", path, out) == 0
        rows = [[float(v) for v in row.split(",")] for row in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [0, 1, 2]
        assert [row[1] for row in rows[1:]] == [0.0, 0.0]
        assert all(error <= bound for _, error, bound, _ in rows)
        assert rows[0][1] == pytest.approx(0.5 / math.sqrt(12.0), rel=1e-15)

    def test_empty_approximant_is_the_constant_zero(self, tmp_path, capsys):
        """S_0 is empty: the constant 0.0.  f - S_0 f = f, whose x1 factor
        squares to an infinite integral: the truth is +inf.  ``l2_error``
        refuses an infinite square as an overflow; ``truncate`` writes it,
        as it writes the infinite ANOVA error of an infinite component."""
        spec = {"dim": 2, "terms": [{"coef": 1.0, "factors": {
            "1": {"kind": "polynomial", "coeffs": [1e308, 0.0, 1.7e308]},
            "2": {"kind": "polynomial", "coeffs": [-0.5, 1.0]}}}]}
        f = function_from_json(spec)
        message = "the L2 error of approximant 0 overflows the float range"
        with pytest.raises(ConfigInvalid, match=f"^{message}$"):
            l2_error(f, truncate_order(f, 0, "anchored"))
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"function": spec, "gamma": {"kind": "product", "seq": _POWER},
                                    "m": [0]}))
        assert run_cli("truncate", path, out) == 0
        assert out.read_text() == "m,error,bound,bound_ratio\n0,inf,inf,nan\n"

    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_zero_term_is_the_zero_function(self, tmp_path, mode):
        """0 * (1e308 + 1.7e308 x1^2)(x2 - 1/2) is the zero function: its
        error is 0 at every m in both modes, although the square of its x1
        factor integrates to inf and 0 times that is nan."""
        spec = {"dim": 2, "terms": [{"coef": 0.0, "factors": {
            "1": {"kind": "polynomial", "coeffs": [1e308, 0.0, 1.7e308]},
            "2": {"kind": "polynomial", "coeffs": [-0.5, 1.0]}}}]}
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps({"function": spec, "gamma": {
            "kind": "product", "seq": {"kind": "power", "c": 1.0, "p": 4.0}}, "mode": mode}))
        assert run_cli("truncate", path, out) == 0
        assert out.read_text() == "m,error,bound,bound_ratio\n0,0,0,0\n1,0,0,0\n2,0,0,0\n"

    @pytest.mark.parametrize("m_list", [[0, 1, 2], [2, 0], [0, 0, 2], [1]])
    def test_overflow_names_first_failing_approximant(self, tmp_path, capsys, m_list):
        """1e160 (x1 - 1/2)(x2 - 1/2) and 1e160 (x1**3 - 0.95 x1 + 0.225)(x2 - 1/2)
        in ANOVA: their derivatives correlate positively, so the norm is
        +inf without a failing sum, but their values correlate negatively,
        so the pieces of the component [1, 2] are +inf and -inf.  Every m
        below 2 needs them: the error line names the first such m of the
        list."""
        factor = {"kind": "polynomial", "coeffs": [-0.5, 1.0]}
        terms = [{"coef": 1e160, "factors": {"1": factor, "2": factor}},
                 {"coef": 1e160, "factors": {"1": {"kind": "polynomial", "coeffs": [0.225, -0.95, 0.0, 1.0]},
                                             "2": factor}}]
        failing = [i for i, m in enumerate(m_list) if m < 2]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms}, "mode": "anova",
                                    "gamma": {"kind": "product", "seq": _POWER}, "m": m_list}))
        assert run_cli("truncate", path, tmp_path / "out.csv") == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == [f"error: ConfigInvalid: the L2 error of approximant {failing[0]} "
                          "overflows the float range"]


def _recording_decompose(monkeypatch):
    """Count the ``decompose`` calls of every module that looks it up."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return decompose(*args, **kwargs)

    for module in (tensorsplit.decomp, tensorsplit.sensitivity):
        monkeypatch.setattr(module, "decompose", counting)
    return calls


class TestDecompositionCount:
    def test_truncate_decomposes_once(self, tmp_path, monkeypatch):
        """A product weight takes the norm from the factors: no
        decomposition.  Any other weight decomposes once, for the norm; the
        errors never decompose."""
        calls = _recording_decompose(monkeypatch)
        config = GOLDEN_DIR / "truncate_anova_all_orders.json"
        out = tmp_path / "trunc.csv"
        assert run_cli("truncate", config, out) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "truncate_anova_all_orders.out").read_bytes()
        assert calls == []
        cfg = json.loads(config.read_text())
        every_set = [[list(u), 0.5] for size in range(1, 5)
                     for u in itertools.combinations(range(1, 5), size)]
        for gamma in ({"kind": "finite_order", "base": cfg["gamma"], "order": 4},
                      {"kind": "table", "entries": every_set}):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**cfg, "gamma": gamma}))
            calls.clear()
            assert run_cli("truncate", path, out) == 0
            assert calls == [("anova", 0.5)]


class TestFactorPairCount:
    @pytest.mark.parametrize("stem", ["truncate_anova_all_orders", "truncate_anchored_transcendental"])
    def test_truncate_integrates_each_factor_pair_once(self, tmp_path, monkeypatch, stem):
        """Over every order m = 0..d of one request, each unordered pair of
        shifted factors of two terms that are both live at a coordinate is
        integrated once, and no other pair."""
        calls = []
        value_inner = tensorsplit.sensitivity.value_inner

        def counting(f, g):
            calls.append((f, g))  # holding the factors keeps their ids distinct
            return value_inner(f, g)

        monkeypatch.setattr(tensorsplit.sensitivity, "value_inner", counting)
        config = GOLDEN_DIR / f"{stem}.json"
        out = tmp_path / "trunc.csv"
        assert run_cli("truncate", config, out) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{stem}.out").read_bytes()

        f = function_from_json(json.loads(config.read_text())["function"])
        live = collections.Counter(k for t in f.terms for k, g in t.factors.items() if g.degree != 0)
        pairs = {frozenset((id(a), id(b))) for a, b in calls}
        assert len(calls) == len(pairs) == sum(n * (n + 1) // 2 for n in live.values())


class TestFmt:
    @pytest.mark.parametrize("value,text", [
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (float("nan"), "nan"),
        (-float("nan"), "nan"),
        (0.0, "0"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (0.1, "0.10000000000000001"),
        (np.float64(-np.inf), "-inf"),
        (-np.float64("nan"), "nan"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.int64(-7), "-7"),
        (3, "3"),
        (True, "true"),
        (False, "false"),
    ])
    def test_pinned_renderings(self, value, text):
        assert _fmt(value) == text


class TestDeterminism:
    @pytest.mark.parametrize("command,config", SUBCOMMANDS)
    def test_byte_identical_across_runs(self, tmp_path, command, config):
        out1 = tmp_path / "run1.out"
        out2 = tmp_path / "run2.out"
        assert run_cli(command, CONFIG_DIR / config, out1) == 0
        assert run_cli(command, CONFIG_DIR / config, out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_regress_same_bytes_on_one_cpu(self, tmp_path):
        """A regress run over several Gram tiles, holdout row blocks and
        per-output solves writes the same bytes in a process pinned to one
        CPU, in an unpinned one and in one made to use two workers.  BLAS
        runs one thread in each, as in the benchmark: its own thread count
        changes the last bits of the factorization."""
        rng = np.random.default_rng(53)
        n = 2 * 192 + 37
        cfg = {"samples": {"inputs": rng.uniform(0, 1, (n, 3)).tolist(),
                           "outputs": rng.normal(size=(n, 3)).tolist()},
               "holdout": {"inputs": rng.uniform(0, 1, (300, 3)).tolist(),
                           "outputs": rng.normal(size=(300, 3)).tolist()},
               "kernel": {"type": "anchored", "scales": [1.0, 0.35, 2.7]},
               "lambda": [1e-3, 0.2, 1e-5]}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        script = (
            "import os, sys\n"
            "if sys.argv[1] == 'pinned':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import tensorsplit.regress\n"
            "from tensorsplit.cli import main\n"
            "if sys.argv[1] == 'two':\n"
            "    tensorsplit.regress._cpus = lambda: 2\n"
            "print(tensorsplit.regress._cpus())\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        env = dict(os.environ)
        src = str(Path(tensorsplit.cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        workers, artifacts = {}, {}
        for mode in ("pinned", "unpinned", "two"):
            out = tmp_path / f"{mode}.json"
            proc = subprocess.run([sys.executable, "-c", script, mode, "regress", "--config",
                                   str(config), "--out", str(out)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            workers[mode], artifacts[mode] = int(proc.stdout), out.read_bytes()
        assert workers["pinned"] == 1 and workers["two"] == 2
        assert artifacts["pinned"] == artifacts["unpinned"] == artifacts["two"]


class TestGolden:
    """Golden configs reproduce the stored artifacts byte for byte."""

    @pytest.mark.parametrize("stem", sorted(GOLDEN_CODES))
    def test_artifact_and_exit_code(self, tmp_path, capsys, stem):
        """Same exit code, artifact (or none) and ``error:`` line."""
        config = GOLDEN_DIR / f"{stem}.json"
        if not config.exists():
            config = CONFIG_DIR / f"{stem}.json"
        out = tmp_path / "artifact.out"
        code = run_cli(stem.split("_")[0], config, out, GOLDEN_FLAGS.get(stem, ()))
        assert code == GOLDEN_CODES[stem]
        golden_out = GOLDEN_DIR / f"{stem}.out"
        if golden_out.exists():
            assert out.read_bytes() == golden_out.read_bytes()
        else:
            assert not out.exists()
        golden_err = GOLDEN_DIR / f"{stem}.err"
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        expected = golden_err.read_text().splitlines() if golden_err.exists() else []
        assert errors == expected


class TestImports:
    def test_only_regress_loads_scipy(self, tmp_path):
        """A fresh interpreter runs every non-regress bundled config without
        importing scipy; a regress run after them loads scipy.linalg and
        writes the bytes an in-process run writes."""
        stems = sorted(path.stem for path in CONFIG_DIR.glob("*.json")
                       if not path.stem.startswith("regress"))
        script = (
            "import json, sys\n"
            "import tensorsplit.cli\n"
            "config_dir, out_dir, stems = sys.argv[1], sys.argv[2], sys.argv[3:]\n"
            "codes = {stem: tensorsplit.cli.main([stem.split('_')[0], '--config',\n"
            "         f'{config_dir}/{stem}.json', '--out', f'{out_dir}/{stem}.out'])\n"
            "         for stem in stems}\n"
            "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "codes['regress_example'] = tensorsplit.cli.main(['regress', '--config',\n"
            "    f'{config_dir}/regress_example.json', '--out', f'{out_dir}/regress.json'])\n"
            "print(json.dumps({'codes': codes, 'scipy_before': before,\n"
            "                  'linalg_after': 'scipy.linalg' in sys.modules}))\n"
        )
        env = dict(os.environ)
        src = str(Path(tensorsplit.cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script, str(CONFIG_DIR), str(tmp_path),
                               *stems], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["scipy_before"] == []
        assert result["linalg_after"]
        assert result["codes"] == {**{stem: GOLDEN_CODES[stem] for stem in stems},
                                   "regress_example": 0}
        expected = tmp_path / "in_process.json"
        assert run_cli("regress", CONFIG_DIR / "regress_example.json", expected) == 0
        assert (tmp_path / "regress.json").read_bytes() == expected.read_bytes()


class TestLibraryOwnsCommands:
    def test_cli_reads_no_private_library_name(self):
        """cli.py imports no underscore name from the package and reads no
        underscore attribute of a library object: each command's numbers
        come from the library's public functions."""
        tree = ast.parse(Path(tensorsplit.cli.__file__).read_text(encoding="utf-8"))
        imported = [(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("tensorsplit"))
                    for alias in node.names]
        assert imported
        assert [name for name in imported if name[1].startswith("_")] == []
        private = [(node.lineno, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   and not (node.attr.startswith("__") and node.attr.endswith("__"))]
        assert private == []
