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
import functools
import itertools
import json
import math
import numbers
import sys
from pathlib import Path

from .decomp import decomposition_table
from .epsdim import DEFAULT_CAP, dims_from_json, eps_dimension_table
from .equivalence import certify_equivalence
from .errors import (ConfigInvalid, NoCertificate, TensorsplitError, check_keys,
                     config_number, config_numbers)
from .functions import function_from_json
from .gammas import gamma_from_json
from .indexing import IndexVector
from .regress import regression_report
from .sensitivity import sobol_indices, truncation_report
from .weights import transform_table, weights_from_json


def _fmt(x) -> str:
    """17-significant-digit decimal rendering, round-trip faithful; infinities
    and NaNs (of either sign) come out as ``inf``, ``-inf`` and ``nan``."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return format(float(x), ".17g")


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
        sep = ",\n" + inner
        if all(type(v) is float for v in obj):
            # a list of floats (a coefficient row too) skips the type
            # dispatch of _fmt: each element is written as _fmt writes it.
            # A finite sum means every element is finite, and then one
            # "%.17g" format writes the whole list
            if math.isfinite(sum(obj)):
                body = sep.join(("%.17g",) * len(obj)) % tuple(obj)
            else:
                texts = [format(v, ".17g") for v in obj]
                body = sep.join([_NONFINITE.get(t, t) for t in texts])
        elif (type(obj[0]) is list and obj[0]
              and all(type(r) is list and len(r) == len(obj[0]) for r in obj)
              and all(type(v) is float for r in obj for v in r) and math.isfinite(sum(map(sum, obj)))):
            # rows of one length of finite floats (a coefficient matrix):
            # one "%.17g" template writes them all as the row path would
            row = "[\n" + inner + "  " + (sep + "  ").join(("%.17g",) * len(obj[0])) + "\n" + inner + "]"
            body = sep.join((row,) * len(obj)) % tuple(v for r in obj for v in r)
        else:
            body = sep.join([_json_render(v, indent + 1) for v in obj])
        return "[\n" + inner + body + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    text = _fmt(obj)
    return _NONFINITE.get(text, text)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path: str, header: list[str], lines: list[str]):
    """The header, then each line: every one ends in LF."""
    _write_text(path, "\n".join([",".join(header), *lines]) + "\n")


def _csv_line(row: list) -> str:
    """A row as ``csv.writer`` writes it, without the LF: text holding a
    comma or a quote is quoted, with its quotes doubled (no cell the CLI
    writes holds a line break), and any other value goes through _fmt."""
    cells = []
    for v in row:
        if not isinstance(v, str):
            v = _fmt(v)
        elif "," in v or '"' in v:
            v = '"' + v.replace('"', '""') + '"'
        cells.append(v)
    return ",".join(cells)


def _write_json(path: str, report: dict):
    _write_text(path, _json_render(report) + "\n")


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` that refuses a repeated key instead of keeping the last."""
    obj = dict(pairs)
    if len(obj) != len(pairs):  # name the first key that repeats
        seen = set()
        k = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ConfigInvalid(f"config repeats the key {k!r}")
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


def _omega_cell(coords: tuple[int, ...]) -> str:
    """``_omega_json(coords)`` as ``csv.writer`` writes it: quoted where it
    holds a comma."""
    text = _omega_json(coords)
    return f'"{text}"' if len(coords) > 1 else text


def _support_cells(dim: int, suffix: str = "") -> list[str]:
    """``_omega_cell`` of every subset of 1..dim in canonical order (size,
    then lexicographic), each followed by ``suffix``."""
    names = [str(k) for k in range(1, dim + 1)]
    cells = ["[]" + suffix]
    for size in range(1, dim + 1):
        joined = map(",".join, itertools.combinations(names, size))
        cells += [f'"[{s}]"{suffix}' for s in joined] if size > 1 else [f"[{s}]{suffix}" for s in joined]
    return cells


def _canonical_rank(coords: tuple[int, ...], dim: int) -> int:
    """The position of the subset ``coords`` of 1..dim in canonical order:
    the subsets of smaller size, then its lexicographic rank among those of
    its size (the combinatorial number system)."""
    size = len(coords)
    rank = sum(math.comb(dim, s) for s in range(size)) + math.comb(dim, size) - 1
    for i, k in enumerate(coords):
        rank -= math.comb(dim - k, size - i)
    return rank


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
    rows = eps_dimension_table(a, b, eps_list, dims, d_list, cap=args.cap)
    _write_csv(args.out, ["eps", "d", "n", "set_size", "d0", "truncated"],
               [_csv_line([eps, "" if d is None else d, n, size, d0, False])
                for eps, d, n, size, d0 in rows])


def _cmd_transform(cfg: dict, args):
    check_keys(cfg, "config", {"a", "indices"})
    a = weights_from_json(cfg["a"])
    if not isinstance(cfg["indices"], list):
        raise ConfigInvalid(f"indices must be a list of index objects, got {cfg['indices']!r}")
    indices = [IndexVector.from_json_obj(obj) for obj in cfg["indices"]]
    _write_csv(args.out, ["index", "weight", "orthogonalized", "ratio"],
               [_csv_line([_index_json(j), *cells]) for j, *cells in transform_table(a, indices)])


def _cmd_decomp(cfg: dict, args):
    """``anova`` and ``anchored``: the subcommand names the decomposition mode."""
    check_keys(cfg, "config", {"function", "gamma"})
    f = function_from_json(cfg["function"])
    gamma = gamma_from_json(cfg["gamma"])
    rows = decomposition_table(f, gamma, args.command, args.anchor)
    # a component the table leaves out reads 0 in both cells
    lines = _support_cells(f.dim, ",0,0")
    for omega, norm, contribution in rows:
        coords = omega.coords
        lines[_canonical_rank(coords, f.dim)] = _omega_cell(coords) + ",%.17g,%.17g" % (norm, contribution)
    _write_csv(args.out, ["omega", "term_norm", "weighted_contribution"], lines)


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
    cells = _support_cells(f.dim)
    lines = [cells[rank] + ",%.17g,%.17g" % (index, table.mask_total(mask))
             for rank, mask, index in table.rows()]
    _write_csv(args.out, ["omega", "index", "total"], lines)


def _cmd_truncate(cfg: dict, args):
    check_keys(cfg, "config", {"function", "gamma"}, {"mode", "m"})
    f = function_from_json(cfg["function"])
    gamma = gamma_from_json(cfg["gamma"])
    mode = cfg.get("mode", "anchored")
    m_list = config_numbers(cfg["m"], int, "m") if "m" in cfg else None
    report = truncation_report(f, gamma, mode, m_list, args.anchor)
    _write_csv(args.out, ["m", "error", "bound", "bound_ratio"], [_csv_line(row) for row in report.rows])


def _cmd_regress(cfg: dict, args):
    check_keys(cfg, "config", {"samples", "lambda"}, {"kernel", "holdout"})
    _write_json(args.out, regression_report(cfg, args.anchor, Path(args.config).resolve().parent))


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
