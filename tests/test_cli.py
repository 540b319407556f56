"""CLI subcommands: correctness of artifacts, error codes, determinism."""

import json
from importlib import resources
from pathlib import Path

import pytest

import tensorsplit.epsdim
from tensorsplit.cli import main

CONFIG_DIR = Path(str(resources.files("tensorsplit") / "configs"))
GOLDEN_DIR = Path(__file__).parent / "golden"
#: config stem -> expected exit code.  A stem names a bundled config or a
#: config stored next to its artifact in GOLDEN_DIR; the regress artifact is
#: left out because its coefficients depend on the BLAS build in the last bits
GOLDEN_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
#: extra flags of a golden run
GOLDEN_FLAGS = {"epsdim_cap": ["--cap", "500"]}

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

    def test_negative_truncation_order(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "truncate_example.json").read_text())
        cfg["m"] = [-1]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("truncate", path, tmp_path / "out.csv") == 8

    def test_bad_anchor_flag(self, tmp_path):
        code = run_cli(
            "anova", CONFIG_DIR / "anova_example.json", tmp_path / "o.csv",
            extra=["--anchor", "1.5"],
        )
        assert code == 2


class TestEnumerationCount:
    def test_one_enumeration_per_eps(self, tmp_path, monkeypatch):
        """The full count, every d row and d0 come from one threshold set."""
        calls = []
        enumerate_threshold_set = tensorsplit.epsdim.enumerate_threshold_set

        def counting(a, b, eps, *args, **kwargs):
            calls.append(eps)
            return enumerate_threshold_set(a, b, eps, *args, **kwargs)

        monkeypatch.setattr(tensorsplit.epsdim, "enumerate_threshold_set", counting)
        config = CONFIG_DIR / "epsdim_example.json"
        assert run_cli("epsdim", config, tmp_path / "eps.csv") == 0
        assert calls == json.loads(config.read_text())["eps"]


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
