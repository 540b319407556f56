"""CLI subcommands: correctness of artifacts, error codes, determinism."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import tensorsplit.cli
import tensorsplit.decomp
import tensorsplit.epsdim
import tensorsplit.sensitivity
from tensorsplit.cli import _build_parser, _fmt, _index_json, _json_render, _omega_json, main
from tensorsplit.decomp import MAX_DECOMP_DIM, decompose
from tensorsplit.epsdim import DEFAULT_CAP
from tensorsplit.functions import function_from_json
from tensorsplit.indexing import IndexVector, SupportSet
from tensorsplit.regress import AnchoredKernel
from tensorsplit.sensitivity import _truncated

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
    ], ids=["constant-component", "polynomial-coeffs", "derivative-inner"])
    def test_overflowing_energy_rejected(self, tmp_path, capsys, command, terms, line):
        """An energy past the float range is one error line and exit 2,
        not a traceback."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms},
                                    "gamma": {"kind": "product", "seq": _POWER}}))
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

    def test_overflowing_truncation_error_rejected(self, tmp_path, capsys):
        """The energies are inf without tripping a sum, as before; the L2
        error of the order-1 truncation sums +inf and -inf pieces."""
        terms = [{"coef": 1e160, "factors": {"1": {"kind": "polynomial", "coeffs": [-0.5, 1.0]}}}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": {"dim": 2, "terms": terms},
                                    "gamma": {"kind": "product", "seq": _POWER}}))
        assert run_cli("anova", path, tmp_path / "anova.csv") == 0
        assert "[1],inf,inf" in (tmp_path / "anova.csv").read_text()
        assert run_cli("truncate", path, tmp_path / "out.csv") == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert errors == ["error: ConfigInvalid: the L2 error of approximant 1 "
                          "overflows the float range"]

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

    def test_equiv_overflowing_set_weight_rejected(self, tmp_path, capsys):
        """gamma on {1, 2} is 1e300 * 1e300 = inf: exit 2 with one line that
        names the set, not a division by alpha / gamma = 0."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        path.write_text(json.dumps({"gamma": {"kind": "product", "seq": {
            "kind": "finite", "values": [1e300, 1e300, 0]}}}))
        assert run_cli("equiv", path, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigInvalid: the set weight of [1, 2] overflows the float range"]

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


class TestEnumerationCount:
    def test_one_enumeration_per_request(self, tmp_path, monkeypatch):
        """Every eps row, every d row and d0 come from one threshold set,
        enumerated at the smallest eps."""
        calls = []
        enumerate_threshold_set = tensorsplit.epsdim.enumerate_threshold_set

        def counting(a, b, eps, *args, **kwargs):
            calls.append(eps)
            return enumerate_threshold_set(a, b, eps, *args, **kwargs)

        monkeypatch.setattr(tensorsplit.epsdim, "enumerate_threshold_set", counting)
        config = CONFIG_DIR / "epsdim_example.json"
        out = tmp_path / "eps.csv"
        assert run_cli("epsdim", config, out) == 0
        assert calls == [min(json.loads(config.read_text())["eps"])]
        assert out.read_bytes() == (GOLDEN_DIR / "epsdim_example.out").read_bytes()


class TestJsonRender:
    def test_float_list_matches_per_element_rendering(self):
        """Lists of floats take a direct path; it writes what the scalar path writes."""
        values = [0.1, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan")]
        expected = "[\n" + ",\n".join("  " + _json_render(v, 1) for v in values) + "\n]"
        assert _json_render(values) == expected
        assert _json_render({"a": values}).endswith('"inf",\n    "-inf",\n    "nan"\n  ]\n}')


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


class TestDecompositionCount:
    def test_truncate_decomposes_once(self, tmp_path, monkeypatch):
        """The norm and every order's truncation share one decomposition."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return decompose(*args, **kwargs)

        for module in (tensorsplit.cli, tensorsplit.decomp, tensorsplit.sensitivity):
            monkeypatch.setattr(module, "decompose", counting)
        config = GOLDEN_DIR / "truncate_anova_all_orders.json"
        out = tmp_path / "trunc.csv"
        assert run_cli("truncate", config, out) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "truncate_anova_all_orders.out").read_bytes()
        assert len(calls) == 1


class TestFactorPairCount:
    @pytest.mark.parametrize("stem", ["truncate_anova_all_orders", "truncate_anchored_transcendental"])
    def test_truncate_integrates_each_factor_pair_once(self, tmp_path, monkeypatch, stem):
        """Over every order m = 0..d of one request, each unordered pair of
        factors that meet at a coordinate is integrated once."""
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

        cfg = json.loads(config.read_text())
        f = function_from_json(cfg["function"])
        components = decompose(f, cfg["mode"])
        pairs = set()
        for m in range(f.dim + 1):
            terms = f.terms + _truncated(f, components, m).terms
            for tr in terms:
                for ts in terms:
                    for k in tr.factors.keys() | ts.factors.keys():
                        pairs.add(frozenset((id(tr.factor(k)), id(ts.factor(k)))))
        assert len({frozenset((id(a), id(b))) for a, b in calls}) == len(calls) == len(pairs)


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
