"""Command-line entry point.

Every subcommand reads a JSON config, writes one artifact file (CSV for
tabular results, JSON for reports), and exits 0 on success or with the
error's stable exit code otherwise.  Outputs are byte-identical across
repeated runs of the same config: rows come in canonical order, sums of
terms and components go through ``math.fsum`` (correctly rounded, so
independent of term order), floats are printed with 17 significant digits,
and nothing here consults a clock or an unseeded generator.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .decomp import _weighted_norm, decompose
from .epsdim import DEFAULT_CAP, dims_from_json, eps_dimension
from .equivalence import certify_equivalence
from .errors import (ConfigInvalid, NoCertificate, TensorsplitError, check_keys,
                     config_number, config_numbers)
from .functions import function_from_json
from .gammas import gamma_from_json
from .indexing import IndexVector, SupportSet
from .regress import AnchoredKernel, SampleSet, fit, fit_map, predict
from .sensitivity import _truncated, l2_error, sobol_indices, truncation_bound
from .weights import orthogonalized_weight, weights_from_json


def _fmt(x) -> str:
    """17-significant-digit decimal rendering, round-trip faithful."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    if math.isnan(xf):
        return "nan"
    return format(xf, ".17g")


#: JSON has no literal for non-finite floats: they are written as strings
_NONFINITE = {t: json.dumps(t) for t in ("inf", "-inf", "nan")}


def _json_render(obj, indent=0) -> str:
    """Deterministic JSON with floats printed via _fmt."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{inner}{json.dumps(str(k))}: {_json_render(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            # a list of floats skips the per-element type dispatch below
            texts = [_NONFINITE.get(t, t) for t in map(_fmt, obj)]
        else:
            texts = [_json_render(v, indent + 1) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    text = _fmt(obj)
    return _NONFINITE.get(text, text)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path: str, header: list[str], rows: list[list]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    _write_text(path, buf.getvalue())


def _write_json(path: str, report: dict):
    _write_text(path, _json_render(report) + "\n")


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` that refuses a repeated key instead of keeping the last."""
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise ConfigInvalid(f"config repeats the key {k!r}")
        obj[k] = v
    return obj


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError as exc:
        raise ConfigInvalid(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not obj:
        raise ConfigInvalid("config must be a nonempty JSON object")
    return obj


# Compact JSON cells built by hand: a json.dumps call per row was a tenth of
# a decomp request.  Keys and values are ints or digit strings, which need
# no escaping.

def _index_json(j: IndexVector) -> str:
    """``{"k": level, ...}`` with keys sorted as strings, as ``sort_keys`` does."""
    return "{" + ",".join(f'"{k}":{level}' for k, level in sorted(j.to_json_obj().items())) + "}"


def _omega_json(omega) -> str:
    return "[" + ",".join(map(str, omega)) + "]"


# ---------------------------------------------------------------------------
# subcommands: each takes (config, args) and writes the artifact to args.out


def _cmd_epsdim(cfg: dict, args):
    if args.cap < 1:
        raise ConfigInvalid("--cap must be positive")
    check_keys(cfg, "config", {"a", "b", "eps"}, {"dims", "d"})
    a = weights_from_json(cfg["a"])
    b = weights_from_json(cfg["b"])
    dims = dims_from_json(cfg.get("dims", "all_one"))
    eps_list = config_numbers(cfg["eps"], float, "eps")
    d_list = config_numbers(cfg.get("d", []), int, "d")
    rows = []
    if eps_list:
        # One enumeration at the smallest eps serves every row: threshold
        # sets nest in eps, and so does the walk.  Errors keep the order of
        # one walk per eps: a nonpositive eps where it stands, a negative d
        # right after the first eps's walk, and a failed walk as the first
        # failing eps meets it (a larger eps visits fewer indices, so it may
        # hit the cap before a deeper walk meets a different error).
        lead = list(itertools.takewhile(lambda eps: eps > 0, eps_list))
        if not lead or any(d < 0 for d in d_list):
            lead = eps_list[:1]
        try:
            walk = eps_dimension(a, b, min(lead), dims, cap=args.cap)
        except TensorsplitError:
            for eps in lead:
                eps_dimension(a, b, eps, dims, cap=args.cap)
            raise
        d_keys = ["", *map(str, d_list)]
        for eps, d0, counts in walk.table(eps_list, d_list):
            rows.extend([eps, d, n, size, d0, walk.truncated]
                        for d, (n, size) in zip(d_keys, counts))
    _write_csv(args.out, ["eps", "d", "n", "set_size", "d0", "truncated"], rows)


def _cmd_transform(cfg: dict, args):
    check_keys(cfg, "config", {"a", "indices"})
    a = weights_from_json(cfg["a"])
    if not isinstance(cfg["indices"], list):
        raise ConfigInvalid(f"indices must be a list of index objects, got {cfg['indices']!r}")
    indices = [IndexVector.from_json_obj(obj) for obj in cfg["indices"]]
    oracle = a.tail_oracle()
    rows = []
    for j in sorted(indices, key=IndexVector.canonical_key):
        w = a.weight(j)
        w_hat = orthogonalized_weight(a, j, oracle)
        rows.append([_index_json(j), w, w_hat, w_hat / w if w > 0 else math.inf])
    _write_csv(args.out, ["index", "weight", "orthogonalized", "ratio"], rows)


def _cmd_decomp(cfg: dict, args):
    """``anova`` and ``anchored``: the subcommand names the decomposition mode."""
    check_keys(cfg, "config", {"function", "gamma"})
    f = function_from_json(cfg["function"])
    gamma = gamma_from_json(cfg["gamma"])
    rows = []
    for term in decompose(f, args.command, args.anchor):
        gv = gamma.value(term.omega)
        if gv > 0.0:
            contribution = term.mixed_norm_sq / gv
        else:
            contribution = 0.0 if term.mixed_norm_sq == 0.0 else math.inf
        rows.append([
            _omega_json(term.omega),
            math.sqrt(max(0.0, term.mixed_norm_sq)),
            contribution,
        ])
    _write_csv(args.out, ["omega", "term_norm", "weighted_contribution"], rows)


def _cmd_equiv(cfg: dict, args):
    check_keys(cfg, "config", {"gamma"}, {"q_tilde"})
    gamma = gamma_from_json(cfg["gamma"])
    q_tilde = config_number(cfg.get("q_tilde", 1.0), float, "q_tilde")
    cert = certify_equivalence(gamma, anchor=args.anchor, q_tilde=q_tilde)
    if cert is None:
        _write_json(args.out, {
            "certified": False,
            "reason": "a domination supremum diverges for these weights",
            "anchor": args.anchor,
            "q_tilde": q_tilde,
        })
        raise NoCertificate("no equivalence certificate")
    _write_json(args.out, {
        "certified": True,
        "c_prime": cert.c_prime,
        "c_dprime": cert.c_dprime,
        "c": cert.c,
        "q": cert.q,
        "alpha": cert.alpha_spec,
        "anchor": args.anchor,
    })


def _cmd_sobol(cfg: dict, args):
    check_keys(cfg, "config", {"function", "gamma"}, {"mode"})
    f = function_from_json(cfg["function"])
    gamma = gamma_from_json(cfg["gamma"])
    mode = cfg.get("mode", "anova")
    table = sobol_indices(
        f, gamma, mode, anchor=args.anchor, include_empty=args.include_empty
    )
    rows = []
    for omega in sorted(table.per_omega, key=SupportSet.canonical_key):
        rows.append([_omega_json(omega), table.per_omega[omega], table.total(omega)])
    _write_csv(args.out, ["omega", "index", "total"], rows)


def _cmd_truncate(cfg: dict, args):
    check_keys(cfg, "config", {"function", "gamma"}, {"mode", "m"})
    f = function_from_json(cfg["function"])
    gamma = gamma_from_json(cfg["gamma"])
    mode = cfg.get("mode", "anchored")
    m_list = config_numbers(cfg["m"], int, "m") if "m" in cfg else list(range(f.dim + 1))
    components = decompose(f, mode, args.anchor)
    norm = _weighted_norm(components, gamma)
    rows = []
    for m in m_list:
        s_m = _truncated(f, components, m)
        err = l2_error(f, s_m)
        bound = truncation_bound(gamma, m, mode, anchor=args.anchor) * norm
        rows.append([m, err, bound, err / bound if bound > 0 else 0.0])
    _write_csv(args.out, ["m", "error", "bound", "bound_ratio"], rows)


def _cmd_regress(cfg: dict, args):
    check_keys(cfg, "config", {"samples", "lambda"}, {"kernel", "holdout"})
    config_dir = Path(args.config).resolve().parent
    X, Y = _load_samples(cfg["samples"], config_dir)
    samples = SampleSet(X, Y)
    kernel = _kernel_from_json(cfg.get("kernel", {"type": "anchored"}),
                               X.shape[1], args.anchor)
    lam = cfg["lambda"]
    if samples.outputs.ndim == 1:
        model = fit(samples, kernel, config_number(lam, float, "lambda"))
    else:
        convert = config_numbers if isinstance(lam, list) else config_number
        model = fit_map(samples, kernel, convert(lam, float, "lambda"))
    report = {
        "n": samples.n,
        "outputs": samples.n_outputs,
        "lambda": lam,
        "coefficients": model.coefficients.tolist(),
        "residual": model.residual,
        "jitter": model.jitter,
        "rmse_train": _rmse(model.fitted, samples.outputs),
    }
    if "holdout" in cfg:
        holdout = SampleSet(*_load_samples(cfg["holdout"], config_dir))
        if holdout.inputs.shape[1] != samples.inputs.shape[1]:
            raise ConfigInvalid(
                f"holdout inputs have {holdout.inputs.shape[1]} columns, "
                f"training inputs {samples.inputs.shape[1]}"
            )
        if holdout.outputs.shape[1:] != samples.outputs.shape[1:]:
            raise ConfigInvalid(
                f"holdout outputs have shape {holdout.outputs.shape}, "
                f"training outputs {samples.outputs.shape}: need the same number "
                "of output columns, both 1-D or both 2-D"
            )
        report["rmse_holdout"] = _rmse(predict(model, holdout.inputs), holdout.outputs)
    _write_json(args.out, report)


def _rmse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def _load_samples(spec, config_dir: Path):
    if isinstance(spec, str):
        path = Path(spec)
        if not path.is_absolute():
            path = config_dir / path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rows = [row for row in reader if row]
            if any(len(row) != len(header) for row in rows):
                raise ValueError(f"every row needs {len(header)} values")
            data = np.array(rows, dtype=float).reshape(len(rows), len(header))
        except (OSError, StopIteration, ValueError) as exc:
            raise ConfigInvalid(f"cannot read sample CSV {path}: {exc}") from exc
        x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
        y_cols = [i for i, name in enumerate(header) if name.startswith("y")]
        if not x_cols or not y_cols:
            raise ConfigInvalid("sample CSV needs x... and y... columns")
        X = data[:, x_cols]
        Y = data[:, y_cols]
        if Y.shape[1] == 1:
            Y = Y[:, 0]
        return X, Y
    if isinstance(spec, dict):
        check_keys(spec, "samples", {"inputs", "outputs"})
        try:
            return np.asarray(spec["inputs"], dtype=float), np.asarray(spec["outputs"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad inline samples: {exc}") from exc
    raise ConfigInvalid("samples must be a CSV path or an inline object")


def _kernel_from_json(obj, dim: int, anchor: float):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigInvalid("kernel spec must be an object with 'type'")
    if obj["type"] == "anchored":
        check_keys(obj, "kernel spec", {"type"}, {"scales", "anchor"})
        anchor = config_number(obj.get("anchor", anchor), float, "anchor")
        return AnchoredKernel(dim, anchor=anchor, scales=obj.get("scales"))
    raise ConfigInvalid(f"unknown kernel type {obj['type']!r}")


# ---------------------------------------------------------------------------
# driver

#: subcommand -> (help text, handler)
_COMMANDS = {
    "epsdim": ("exact eps-dimension over an eps grid", _cmd_epsdim),
    "transform": ("orthogonalizing weight transform", _cmd_transform),
    "anova": ("mean-projection decomposition table", _cmd_decomp),
    "anchored": ("anchor-projection decomposition table", _cmd_decomp),
    "equiv": ("norm-equivalence certificate", _cmd_equiv),
    "sobol": ("weighted sensitivity indices", _cmd_sobol),
    "truncate": ("m-variate truncation errors and bounds", _cmd_truncate),
    "regress": ("kernel least-squares fit", _cmd_regress),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    of ``main`` in the same process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="tensorsplit",
        description="Weighted tensor-product space computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output artifact path")
        p.add_argument("--anchor", type=float, default=0.5,
                       help="anchor point in [0, 1]")
        if name == "epsdim":
            p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                           help="enumeration size cap")
        if name == "sobol":
            p.add_argument("--include-empty", action="store_true",
                           help="keep the constant component in the quotient")
    return parser


def run(args) -> int:
    if not 0.0 <= args.anchor <= 1.0:
        raise ConfigInvalid("--anchor must lie in [0, 1]")
    _, handler = _COMMANDS[args.command]
    handler(_load_config(args.config), args)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except TensorsplitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
