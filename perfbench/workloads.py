"""Seeded request lists for the three benchmark workloads.

A workload is a fixed list of CLI requests built from the benchmark seed.
The mix and order of each list (how many requests of each kind, their
dimensions and sizes) are fixed; the seed only draws the numbers inside
each request, so two seeds cost about the same and their timings can be
compared.  The order is not shuffled: a seeded order changes the memory
allocator's history and with it the peak resident set.

Every request carries the exit code it must return and an ``oracle`` record
telling ``oracles.py`` how to check its artifact.  Nothing here imports the
package under test.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

#: eps range of the pinned epsdim config and restriction list (ROADMAP item 1)
EPS_LO, EPS_HI = 0.002, 0.02
PINNED_DLIST = [1, 2, 4, 8, 16, 32, 64]
PINNED_GAMMA = {"kind": "product", "seq": {"kind": "power", "c": 1.0, "p": 2.0}}


@dataclass
class Request:
    """One CLI call: subcommand, JSON config, extra flags and expectations."""

    kind: str
    cfg: dict
    expect_rc: int = 0
    oracle: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    #: sample files the config names, written next to it: name -> (X, Y)
    files: dict = field(default_factory=dict)
    label: str = ""
    #: set by the worker once the config is written
    argv: list = field(default_factory=list)
    out_path: object = None


def _strata_eps(rng: random.Random, count: int, lo=EPS_LO, hi=EPS_HI) -> list[float]:
    """A log-spaced eps grid, each point moved by the seed within 5% of its cell.

    Enumeration cost grows steeply as eps falls, so the seed moves eps only
    a little: two seeds then cost about the same.
    """
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + 0.5 + 0.1 * (rng.random() - 0.5)) / count)
            for i in range(count)]


def _near(rng: random.Random, x: float, rel: float = 0.02) -> float:
    """x moved by the seed by at most ``rel`` (cost-setting parameters)."""
    return round(x * (1.0 + rel * (2.0 * rng.random() - 1.0)), 6)


# ---------------------------------------------------------------------------
# epsdim


def _spline(gamma, s=1.0, lam=1.0):
    return {"type": "spline", "gamma": gamma, "s": s, "lam": lam}


def _power(c, p):
    return {"kind": "product", "seq": {"kind": "power", "c": c, "p": p}}


def epsdim_requests(seed: int) -> list[Request]:
    rng = random.Random(seed * 7919 + 1)
    reqs: list[Request] = []
    unit = {"type": "unit"}

    # the pinned ROADMAP config, verbatim
    reqs.append(Request(
        "epsdim",
        {"a": _spline(PINNED_GAMMA), "b": unit, "dims": "spline",
         "eps": [0.01, 0.005, 0.002], "d": PINNED_DLIST},
        oracle={"type": "spline_unit", "gamma": PINNED_GAMMA, "s": 1.0, "lam": 1.0},
        label="pinned",
    ))
    # bulk: the pinned model at seeded eps, with and without a d list
    for eps in _strata_eps(rng, 32):
        reqs.append(Request(
            "epsdim",
            {"a": _spline(PINNED_GAMMA), "b": unit, "dims": "spline",
             "eps": [eps], "d": PINNED_DLIST},
            oracle={"type": "spline_unit", "gamma": PINNED_GAMMA, "s": 1.0, "lam": 1.0},
            label="pinned_d",
        ))
    for pair in zip(*[iter(_strata_eps(rng, 24))] * 2):
        reqs.append(Request(
            "epsdim",
            {"a": _spline(PINNED_GAMMA), "b": unit, "dims": "spline", "eps": list(pair)},
            oracle={"type": "spline_unit", "gamma": PINNED_GAMMA, "s": 1.0, "lam": 1.0},
            label="pinned_nod",
        ))
    # product/unit pairs: generic depth-first enumeration over {0,1} levels
    for i, eps in enumerate(_strata_eps(rng, 4, 0.003, 0.03)):
        c, p = _near(rng, 0.85), _near(rng, 2.0)
        cfg = {"a": {"type": "product", "gamma": {"kind": "power", "c": c, "p": p}},
               "b": unit, "dims": ("all_one", "spline")[i % 2], "eps": [eps]}
        if i < 2:
            cfg["d"] = [1, 2, 3, 5, 8, 13, 21]
        reqs.append(Request("epsdim", cfg,
                            oracle={"type": "product_unit", "c": c, "p": p},
                            label="product_unit"))
    # finite-support spline gammas: the per-support level scan
    # strata: (product or table gamma, coordinates, smoothness)
    strata = (("product", 4, 1.0), ("table", 4, 1.0), ("product", 3, 0.5), ("table", 3, 0.5))
    for (gkind, coords, s), eps in zip(strata, _strata_eps(rng, 4)):
        if gkind == "product":
            values = [_near(rng, 0.9 - 0.1 * k) for k in range(coords)]
            gamma = {"kind": "product", "seq": {"kind": "finite", "values": values}}
        else:
            gamma = {"kind": "table", "entries": [
                [list(w), _near(rng, 0.8 ** len(w))]
                for size in (1, 2, 3) for w in itertools.combinations(range(1, coords + 1), size)]}
        cfg = {"a": _spline(gamma, s), "b": unit, "dims": "spline", "eps": [eps]}
        if gkind == "product":
            cfg["d"] = [1, 2, 3, 4, 5]
        reqs.append(Request("epsdim", cfg,
                            oracle={"type": "spline_unit", "gamma": gamma, "s": s, "lam": 1.0},
                            label="finite_support"))
    # orthogonalizing transform of a one- to three-coordinate spline model
    for _ in range(3):
        values = [round(rng.uniform(0.2, 1.0), 6) for _ in range(rng.randint(1, 3))]
        s = round(rng.uniform(0.5, 2.0), 6)
        lam = round(rng.uniform(0.5, 2.0), 6)
        indices = [{}] + [{"1": lvl} for lvl in range(1, 5)]
        if len(values) > 1:
            indices += [{"1": 1, "2": 1}, {"2": 2}]
        reqs.append(Request(
            "transform",
            {"a": _spline({"kind": "product", "seq": {"kind": "finite", "values": values}}, s, lam),
             "indices": indices},
            oracle={"type": "transform", "values": values, "s": s, "lam": lam},
            label="transform",
        ))
    # norm-equivalence certificates: certified iff sqrt(gamma) is summable
    for p, certified in ((round(rng.uniform(2.8, 4.0), 6), True),
                         (round(rng.uniform(2.8, 4.0), 6), True),
                         (round(rng.uniform(1.2, 2.0), 6), False)):
        c = round(rng.uniform(0.5, 1.0), 6)
        q_tilde = round(rng.uniform(1.0, 1.5), 6)
        reqs.append(Request(
            "equiv", {"gamma": _power(c, p), "q_tilde": q_tilde},
            expect_rc=0 if certified else 16,
            oracle={"type": "equiv", "c": c, "p": p, "q_tilde": q_tilde, "certified": certified},
            label="equiv" if certified else "equiv_uncertified",
        ))
    # spline target as smooth as the source: not compact, exit 6
    s = rng.choice([1.0, 1.5])
    reqs.append(Request(
        "epsdim",
        {"a": _spline(PINNED_GAMMA, s), "b": _spline(PINNED_GAMMA, s),
         "eps": [round(rng.uniform(0.01, 0.1), 6)]},
        expect_rc=6, oracle={"type": "none"}, label="not_compact",
    ))
    return reqs


def _table_entries(rng: random.Random, coords, max_size: int) -> list:
    """Random positive weights on every subset (size <= max_size) of coords."""
    coords = list(coords)
    entries = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(coords, size):
            entries.append([list(combo), round(rng.uniform(0.1, 1.0), 6)])
    return entries


# ---------------------------------------------------------------------------
# decomp


def _factor(rng: random.Random, transcendental: bool) -> dict:
    if transcendental:
        if rng.random() < 0.5:
            return {"kind": "sin", "freq": round(rng.uniform(0.5, 3.0), 6),
                    "phase": round(rng.uniform(0.0, 1.0), 6)}
        return {"kind": "exp", "rate": round(rng.choice([-1, 1]) * rng.uniform(0.3, 1.5), 6)}
    if rng.random() < 0.6:
        return {"kind": "monomial", "power": rng.randint(1, 3)}
    degree = rng.randint(1, 3)
    coeffs = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(degree)]
    coeffs.append(round(rng.choice([-1, 1]) * rng.uniform(0.5, 1.5), 6))
    return {"kind": "polynomial", "coeffs": coeffs}


def _function(rng, d, sizes, transcendental_terms):
    """Terms with the given support sizes; the first few use sin/exp factors."""
    terms = []
    for r, size in enumerate(sizes):
        coords = sorted(rng.sample(range(1, d + 1), size))
        factors = {str(k): _factor(rng, r < transcendental_terms) for k in coords}
        terms.append({"coef": round(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0), 6),
                      "factors": factors})
    return {"dim": d, "terms": terms}


def _gamma(rng: random.Random, kind: str, d: int) -> dict:
    """Product gamma, or one of finite support on sets of size <= 3."""
    def power():
        return _power(round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(2.0, 3.0), 6))

    if kind == "product":
        return power()
    if kind == "finite_order":
        return {"kind": "finite_order", "order": 3, "base": power()}
    return {"kind": "table", "entries": _table_entries(rng, range(1, d + 1), 3)}


#: decomp strata: (copies, subcommand, mode, d, support size of each term,
#: gamma kind, number of terms with sin/exp factors).  The structure fixes
#: the cost; the seed draws coordinates, factors, coefficients and gamma
#: parameters.  Finite-support gammas only meet terms of at most 3
#: variables.  The six d=8 sobol requests put about 10% of each pass at
#: one cost level, so the p90 latency does not jump between levels.
_DECOMP_STRATA = (
    (2, "anova", "anova", 4, (2, 3), "product", 0),
    (2, "anova", "anova", 5, (3, 2, 1), "product", 1),
    (2, "anova", "anova", 6, (4,), "product", 0),
    (2, "anova", "anova", 6, (3, 3), "table", 0),
    (2, "anova", "anova", 7, (4, 3, 2, 2), "product", 0),
    (2, "anova", "anova", 8, (5, 3), "product", 1),
    (2, "anova", "anova", 8, (3, 3, 2), "finite_order", 0),
    (2, "anova", "anova", 9, (4, 4), "product", 0),
    (2, "anova", "anova", 10, (5, 3, 2), "product", 0),
    (2, "anova", "anova", 10, (3, 2), "finite_order", 1),
    (2, "anchored", "anchored", 4, (3, 2, 2), "product", 0),
    (2, "anchored", "anchored", 5, (4,), "product", 0),
    (2, "anchored", "anchored", 6, (4, 3, 2, 2), "product", 1),
    (2, "anchored", "anchored", 6, (2, 2), "finite_order", 0),
    (2, "anchored", "anchored", 7, (5, 3), "product", 0),
    (2, "anchored", "anchored", 8, (4,), "product", 0),
    (2, "anchored", "anchored", 8, (3, 3, 2), "table", 0),
    (2, "anchored", "anchored", 9, (4, 3, 3, 2), "product", 1),
    (2, "anchored", "anchored", 10, (4, 4), "product", 0),
    (2, "anchored", "anchored", 10, (3, 3), "finite_order", 0),
    (2, "sobol", "anova", 4, (2, 2), "product", 0),
    (2, "sobol", "anchored", 5, (3, 2, 2), "product", 1),
    (2, "sobol", "anova", 6, (3, 3), "product", 0),
    (2, "sobol", "anchored", 7, (3,), "finite_order", 0),
    (6, "sobol", "anova", 8, (4, 3), "product", 0),
    (2, "sobol", "anchored", 8, (3, 2, 2, 1), "table", 0),
    (1, "sobol", "anova", 10, (5, 4), "product", 0),
    (2, "truncate", "anova", 4, (4,), "product", 0),
    (2, "truncate", "anchored", 4, (4, 4), "product", 1),
    (1, "truncate", "anova", 4, (4, 4, 4), "product", 0),
    (2, "truncate", "anchored", 5, (5,), "product", 0),
    (2, "truncate", "anova", 5, (2, 2), "finite_order", 0),
    (1, "truncate", "anchored", 6, (6,), "product", 1),
    (1, "truncate", "anova", 6, (6,), "product", 0),
    (2, "truncate", "anchored", 6, (3, 2, 2), "finite_order", 0),
)
#: truncate strata that ask for three m values instead of every m in 0..d
_TRUNCATE_THREE_M = {(4, 3), (5, 2), (6, 1), (6, 3)}


def decomp_requests(seed: int) -> list[Request]:
    rng = random.Random(seed * 7919 + 2)
    reqs: list[Request] = []
    strata = [row[1:] for row in _DECOMP_STRATA for _ in range(row[0])]
    for cmd, mode, d, sizes, gkind, transcendental in strata:
        cfg = {"function": _function(rng, d, sizes, transcendental),
               "gamma": _gamma(rng, gkind, d)}
        flags = []
        if cmd in ("sobol", "truncate"):
            cfg["mode"] = mode
        if cmd == "sobol" and d == 6:
            flags.append("--include-empty")
        if cmd == "truncate" and (d, len(sizes)) in _TRUNCATE_THREE_M:
            cfg["m"] = [1, d // 2, d]
        reqs.append(Request(cmd, cfg, flags=flags,
                            oracle={"type": cmd, "mode": mode, "anchor": 0.5,
                                    "include_empty": bool(flags)},
                            label=f"{cmd}_d{d}_{gkind}"))
    # ROADMAP 3a: anova truncation of prod x_k, d=8, PowerSeq(1,4), m=6.
    # The seed reports bound 0 while the true error is 2.4e-4.
    f8 = {"dim": 8, "terms": [{"coef": 1.0, "factors": {
        str(k): {"kind": "monomial", "power": 1} for k in range(1, 9)}}]}
    reqs.append(Request(
        "truncate",
        {"function": f8, "gamma": _power(1.0, 4.0), "mode": "anova", "m": [6]},
        oracle={"type": "truncate", "mode": "anova", "anchor": 0.5, "include_empty": False},
        label="truncate_3a",
    ))
    return reqs


# ---------------------------------------------------------------------------
# regress


#: regress strata: (n, d, outputs, lambda kind, holdout size)
_REGRESS_STRATA = (
    (500, 2, 1, "common", 0), (500, 3, 3, "common", 100), (500, 4, 1, "common", 2000),
    (500, 5, 3, "per_output", 0), (500, 6, 1, "common", 100), (500, 7, 3, "common", 2000),
    (500, 8, 1, "common", 0), (500, 3, 3, "per_output", 100), (500, 5, 1, "common", 0),
    (500, 2, 3, "common", 0),
    (1000, 2, 3, "per_output", 100), (1000, 4, 1, "common", 0), (1000, 5, 3, "common", 0),
    (1000, 6, 1, "common", 2000), (1000, 8, 3, "per_output", 0), (1000, 3, 1, "common", 100),
    (2000, 3, 1, "common", 0), (2000, 6, 3, "common", 100),
)

NOISE = 0.005


def generating_function(rng: np.random.Generator, d: int, outputs: int) -> dict:
    """Smooth targets in the anchored Sobolev space: affine plus pairwise terms."""
    return {
        "const": rng.uniform(0.5, 1.5, outputs).tolist(),
        "lin": rng.uniform(-1.0, 1.0, (outputs, d)).tolist(),
        "pair": rng.uniform(-0.5, 0.5, outputs).tolist(),
    }


def evaluate_generating(g: dict, X: np.ndarray) -> np.ndarray:
    lin = np.asarray(g["lin"])
    Y = np.asarray(g["const"])[None, :] + X @ lin.T
    if X.shape[1] >= 2:
        Y = Y + np.asarray(g["pair"])[None, :] * (X[:, :1] * X[:, 1:2])
    return Y


def regress_requests(seed: int) -> list[Request]:
    rng = random.Random(seed * 7919 + 3)
    nrng = np.random.default_rng(abs(seed) * 7919 + 3)
    reqs: list[Request] = []
    for i, (n, d, outputs, lam_kind, n_hold) in enumerate(_REGRESS_STRATA):
        g = generating_function(nrng, d, outputs)
        X = nrng.random((n, d))
        Y = evaluate_generating(g, X) + NOISE * nrng.standard_normal((n, outputs))
        lam = round(10 ** rng.uniform(-5.0, -3.0), 9)
        if outputs == 1:
            lam_cfg = lam
        elif lam_kind == "common":
            lam_cfg = [lam] * outputs
        else:
            lam_cfg = [round(lam * rng.uniform(0.5, 2.0), 9) for _ in range(outputs)]
        kernel = {"type": "anchored"}
        if rng.random() < 0.5:
            kernel["scales"] = [round(rng.uniform(0.5, 2.0), 6) for _ in range(d)]
        cfg = {"samples": f"samples_{i}.csv", "kernel": kernel, "lambda": lam_cfg}
        files = {f"samples_{i}.csv": (X, Y)}
        if n_hold:
            Xh = nrng.random((n_hold, d))
            files[f"holdout_{i}.csv"] = (Xh, evaluate_generating(g, Xh))
            cfg["holdout"] = f"holdout_{i}.csv"
        reqs.append(Request("regress", cfg, files=files,
                            oracle={"type": "regress", "generating": g},
                            label=f"regress_n{n}_L{outputs}_h{n_hold}"))
    return reqs


WORKLOADS = {
    "epsdim": epsdim_requests,
    "decomp": decomp_requests,
    "regress": regress_requests,
}


# ---------------------------------------------------------------------------
# warm-up: one small request per subcommand of the workload


def warmup_requests(workload: str) -> list[Request]:
    unit = {"type": "unit"}
    if workload == "epsdim":
        return [
            Request("epsdim", {"a": _spline(PINNED_GAMMA), "b": unit, "eps": [0.1], "d": [1]}),
            Request("transform", {"a": _spline({"kind": "product", "seq": {
                "kind": "finite", "values": [1.0]}}), "indices": [{}, {"1": 1}]}),
            Request("equiv", {"gamma": _power(1.0, 4.0)}),
        ]
    if workload == "decomp":
        f = {"dim": 2, "terms": [{"coef": 1.0, "factors": {
            "1": {"kind": "sin", "freq": 1.0}, "2": {"kind": "monomial", "power": 2}}}]}
        g = _power(1.0, 2.0)
        return [Request(cmd, {"function": f, "gamma": g}) for cmd in
                ("anova", "anchored", "sobol", "truncate")]
    X = np.linspace(0.05, 0.95, 40)[:, None] * np.ones((1, 2))
    X[:, 1] = X[::-1, 1]
    return [Request("regress", {"samples": "warm.csv", "lambda": 0.01, "holdout": "warm.csv"},
                    files={"warm.csv": (X, X.sum(axis=1)[:, None])})]
