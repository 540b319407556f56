"""Acceptance suite: one test per criterion, with a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is fixed here, not configurable.
"""

import functools
import math
import time

import numpy as np
import pytest

from corpus import corpus
from test_epsdim import EPS_GRID, brute_force_set, config_ratios, filtered_counts, weight_configs
from tensorsplit.cli import main as cli_main
from tensorsplit.decomp import (
    anchored_contraction,
    anchored_kernel,
    anchored_representation,
    anova_kernel,
    averaged_anchored_kernel,
    averaged_kernel_energy,
    decompose,
    mean_representation,
    reconstruct,
    weighted_norm,
)
from tensorsplit.epsdim import (
    AllOneDims,
    SplineDims,
    eps_dimension,
    spline_eps_dimension,
)
from tensorsplit.equivalence import certify_equivalence, product_weight_equivalence
from tensorsplit.errors import NormDegenerate
from tensorsplit.functions import UnivariateFactor as F
from tensorsplit.gammas import ProductGamma
from tensorsplit.indexing import IndexSet, IndexVector, ZERO_INDEX
from tensorsplit.quadrature import gauss_legendre, integrate_1d, integrate_piecewise
from tensorsplit.regress import AnchoredKernel, SampleSet, fit, fit_map, objective
from tensorsplit.sensitivity import (
    l2_error,
    sobol_indices,
    truncate_order,
    truncation_bound,
)
from tensorsplit.sequences import ConstantSeq, FiniteSeq, PowerSeq
from tensorsplit.weights import (
    ProductWeights,
    SplineWeights,
    TableWeights,
    UnitWeights,
    orthogonalized_weight,
)

SPLINE_CROSSCHECK = {
    "spline_s1",
    "spline_s05",
    "spline_finite_order",
    "spline_table_gamma",
}


def criterion(number, label, budget_seconds=None):
    """Print one pass/fail line per criterion and enforce the time budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {label}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s)")
            if budget_seconds is not None:
                assert elapsed < budget_seconds, (
                    f"criterion {number} exceeded its {budget_seconds}s budget"
                )

        return inner

    return wrap


@criterion(1, "kernel-constants", budget_seconds=1.0)
def test_criterion_01_kernel_constants():
    rule = gauss_legendre(10)
    for anchor in (0.0, 0.25, 0.5, 1.0):
        # energy of the averaged kernel against direct quadrature
        energy = integrate_piecewise(
            lambda t: averaged_anchored_kernel(t, anchor) ** 2, rule, (anchor,)
        )
        assert abs(energy - averaged_kernel_energy(anchor)) <= 1e-12

        # the contraction constant equals the larger blockwise double
        # integral of the squared anchored kernel (below/above the anchor)
        def block(lo, hi):
            def inner(x):
                if not lo <= x <= hi:
                    return 0.0
                return integrate_piecewise(
                    lambda t: anchored_kernel(x, t, anchor) ** 2, rule, (x, anchor)
                )

            return integrate_piecewise(inner, rule, (anchor,))

        oracle = max(block(0.0, anchor), block(anchor, 1.0))
        assert abs(oracle - anchored_contraction(anchor)) <= 1e-12

        # the sup-based closed form itself
        assert abs(
            anchored_contraction(anchor)
            - 0.5 * max(anchor**2, (1 - anchor) ** 2)
        ) <= 1e-15

    # endpoint ranges
    assert abs(averaged_kernel_energy(0.5) - 1.0 / 12.0) <= 1e-15
    assert abs(averaged_kernel_energy(0.0) - 1.0 / 3.0) <= 1e-15
    assert abs(averaged_kernel_energy(1.0) - 1.0 / 3.0) <= 1e-15
    assert abs(anchored_contraction(0.5) - 1.0 / 8.0) <= 1e-15
    assert abs(anchored_contraction(0.0) - 0.5) <= 1e-15
    assert abs(anchored_contraction(1.0) - 0.5) <= 1e-15
    for anchor in np.linspace(0, 1, 21):
        assert 1.0 / 12.0 - 1e-15 <= averaged_kernel_energy(anchor) <= 1.0 / 3.0 + 1e-15
        assert 1.0 / 8.0 - 1e-15 <= anchored_contraction(anchor) <= 0.5 + 1e-15


@criterion(2, "univariate-identities", budget_seconds=1.0)
def test_criterion_02_univariate_identities():
    rng = np.random.default_rng(2001)
    rule = gauss_legendre(8)
    xs = rng.uniform(0.0, 1.0, 50)
    for degree in range(6):
        g = F.monomial(degree)
        for x in xs:
            x = float(x)
            for anchor in (0.0, 0.5):
                rep = anchored_representation(g, x, anchor, rule)
                assert abs(rep - g.value(x)) <= 1e-12
            rep = mean_representation(g, x, rule)
            assert abs(rep - g.value(x)) <= 1e-12

    def inner(x):
        return integrate_piecewise(lambda t: anova_kernel(x, t) ** 2, rule, (x,))

    double = integrate_1d(inner, rule)
    assert abs(double - 1.0 / 6.0) <= 1e-12


@criterion(3, "epsdim-oracle", budget_seconds=30.0)
def test_criterion_03_epsdim_oracle_equivalence():
    for name, a, b in weight_configs():
        ratios = config_ratios(name)
        for eps in EPS_GRID:
            expected = brute_force_set(ratios, eps)
            res = eps_dimension(a, b, eps, AllOneDims())
            assert res.index_set == expected, f"{name} eps={eps}"
            assert res.n == len(expected)
            spline_n = eps_dimension(a, b, eps, SplineDims()).n
            manual = sum(2 ** (j.total_level - j.num_active) for j in expected)
            assert spline_n == manual

        if name in SPLINE_CROSSCHECK:
            gamma, s, lam = a.gamma, a.s.const, a.lam.const
            for eps in EPS_GRID:
                counted = spline_eps_dimension(gamma, s, lam, eps)
                enumerated = eps_dimension(a, UnitWeights(), eps, SplineDims())
                assert counted.n == enumerated.n, f"{name} eps={eps}"


@criterion(4, "restriction-stabilization")
def test_criterion_04_restriction_stabilization():
    ds = range(0, 6)
    for name, a, b in weight_configs():
        ratios = config_ratios(name)
        for eps in EPS_GRID:
            expected = brute_force_set(ratios, eps)
            full = eps_dimension(a, b, eps, AllOneDims())
            ((_, d0, (whole, *rows)),) = full.table([eps], ds)
            assert d0 == expected.max_coord, f"{name} eps={eps}"
            assert [whole, *rows] == filtered_counts(expected, ds, AllOneDims()), f"{name} eps={eps}"
            previous = -1
            for d, (n, _) in zip(ds, rows):
                assert n >= previous, f"{name} eps={eps} d={d}"
                previous = n
                if d >= d0:
                    assert n == full.n, f"{name} eps={eps} d={d}"


def _random_monotone_table(rng):
    while True:
        seeds = [
            IndexVector({1: int(rng.integers(0, 3)), 2: int(rng.integers(0, 3))})
            for _ in range(int(rng.integers(1, 3)))
        ]
        base = IndexSet(seeds).downward_closure()
        if 1 <= len(base) <= 6:
            break
    return TableWeights({j: float(rng.uniform(0.3, 3.0)) for j in base})


def _minimum_by_kkt(model, coefficients):
    """Direct quadratic minimization of the redundant-splitting energy.

    Variables are the components v_{j,i} (index j carries basis direction i
    for every supported i <= j); the constraint for each i is that its
    components across j recover the coefficient w_i.  The stationarity and
    constraint equations form one dense linear system, solved numerically.
    """
    support = model.support()
    pairs = [(j, i) for j in support for i in support if i <= j]
    n_v = len(pairs)
    n_c = len(support)
    A = np.zeros((n_v + n_c, n_v + n_c))
    rhs = np.zeros(n_v + n_c)
    for row, (j, i) in enumerate(pairs):
        A[row, row] = 2.0 * model.entries[j]
        A[row, n_v + support.index(i)] = -1.0
    for col, (j, i) in enumerate(pairs):
        A[n_v + support.index(i), col] = 1.0
    for row, i in enumerate(support):
        rhs[n_v + row] = coefficients[i]
    sol = np.linalg.solve(A, rhs)
    v = sol[:n_v]
    return float(
        sum(model.entries[j] * v[k] ** 2 for k, (j, i) in enumerate(pairs))
    )


@criterion(5, "redundant-transform", budget_seconds=10.0)
def test_criterion_05_redundant_transform():
    # (i) geometric single-coordinate: transform is exactly (1-rho) * weight
    for rho in (0.5, 0.25, 0.125):
        s = -0.5 * math.log2(rho)
        model = SplineWeights(ProductGamma(FiniteSeq([1.0])), s=s, lam=1.0)
        oracle = model.tail_oracle()
        for level in range(8):
            j = IndexVector({1: level}) if level else ZERO_INDEX
            hat = orthogonalized_weight(model, j, oracle)
            assert abs(hat / model.weight(j) - (1.0 - rho)) <= 1e-12

    # (ii) direct quadratic minimization equals the transformed energy
    rng = np.random.default_rng(505)
    for trial in range(10):
        model = _random_monotone_table(rng)
        oracle = model.tail_oracle()
        support = model.support()
        coefficients = {i: float(rng.normal()) for i in support}
        direct = _minimum_by_kkt(model, coefficients)
        transformed = sum(
            orthogonalized_weight(model, i, oracle) * coefficients[i] ** 2
            for i in support
        )
        assert abs(direct - transformed) <= 1e-8, f"trial {trial}"

    # (iii) constant weights on infinite support are rejected with witness
    flat = ProductWeights(ConstantSeq(1.0))
    with pytest.raises(NormDegenerate) as err:
        orthogonalized_weight(flat, ZERO_INDEX)
    assert err.value.unit_seminorm == 0.0


@criterion(6, "decomposition-reconstruction")
def test_criterion_06_reconstruction():
    rng = np.random.default_rng(606)
    anchor = 0.5
    mean_rule = gauss_legendre(32)
    for name, f in corpus():
        anova_terms = decompose(f, "anova", anchor)
        anchored_terms = decompose(f, "anchored", anchor)
        for x in rng.uniform(0.0, 1.0, (100, f.dim)):
            fx = f.value(x)
            assert abs(reconstruct(anova_terms, x) - fx) <= 1e-10
            assert abs(reconstruct(anchored_terms, x) - fx) <= 1e-10
        # per-coordinate means of mean-projection components vanish
        for t in anova_terms:
            for k in t.omega:
                x = rng.uniform(0.0, 1.0, f.dim)

                def marginal(s, x=x, k=k, t=t):
                    y = list(x)
                    y[k - 1] = s
                    return t.func.value(y)

                assert abs(integrate_1d(marginal, mean_rule)) <= 1e-10
        # anchored components vanish exactly on anchor slices
        for t in anchored_terms:
            for k in t.omega:
                x = rng.uniform(0.0, 1.0, f.dim)
                x[k - 1] = anchor
                assert t.func.value(x) == 0.0


@criterion(7, "norm-equivalence", budget_seconds=10.0)
def test_criterion_07_norm_equivalence():
    anchor = 0.5
    gamma = ProductGamma(PowerSeq(1.0, 4.0))
    cert = certify_equivalence(gamma, anchor=anchor)
    assert cert is not None
    for name, f in corpus():
        na = weighted_norm(f, gamma, "anova", anchor)
        nan = weighted_norm(f, gamma, "anchored", anchor)
        ratio = na / nan
        assert 1.0 / cert.c <= ratio <= cert.c, f"{name}: {ratio} vs C={cert.c}"
    assert not product_weight_equivalence(PowerSeq(1.0, 2.0))
    assert product_weight_equivalence(PowerSeq(1.0, 4.0))


@criterion(8, "sobol-comparability")
def test_criterion_08_sobol_ratio_bounds():
    anchor = 0.5
    gamma = ProductGamma(PowerSeq(1.0, 4.0))
    cert = certify_equivalence(gamma, anchor=anchor)
    c2 = cert.c**2
    for name, f in corpus():
        tab_a = sobol_indices(f, gamma, "anova", anchor, include_empty=True)
        tab_an = sobol_indices(f, gamma, "anchored", anchor, include_empty=True)
        for omega0 in set(tab_a.per_omega) | set(tab_an.per_omega):
            sa = tab_a.total(omega0)
            san = tab_an.total(omega0)
            if sa <= 1e-13 and san <= 1e-13:
                continue
            assert san > 0.0 and sa > 0.0, f"{name} {omega0}"
            assert 1.0 / c2 <= sa / san <= c2, f"{name} {omega0}: {sa / san}"


@criterion(9, "truncation-bounds")
def test_criterion_09_truncation():
    anchor = 0.5
    gamma = ProductGamma(PowerSeq(1.0, 4.0))
    for name, f in corpus():
        for mode in ("anchored", "anova"):
            norm = weighted_norm(f, gamma, mode, anchor)
            for m in range(f.dim + 1):
                s_m = truncate_order(f, m, mode, anchor)
                err = l2_error(f, s_m)
                bound = truncation_bound(gamma, m, mode, anchor) * norm
                assert err <= bound * (1 + 1e-10) + 1e-12, (
                    f"{name} {mode} m={m}: {err} > {bound}"
                )

    # bound-factor ratio at the midpoint anchor on common-scale weights
    scale, coords = 1e-3, 4
    common = ProductGamma(FiniteSeq([scale] * coords))
    for m in range(coords):
        num = truncation_bound(common, m, "anchored", 0.5)
        den = truncation_bound(common, m, "anova", 0.5)
        expected = (3.0 / 4.0) ** ((m + 1) / 2.0)
        assert expected / 1.01 <= num / den <= expected * 1.01, f"m={m}"


@criterion(10, "regression")
def test_criterion_10_regression():
    rng = np.random.default_rng(1010)
    for trial in range(20):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 5))
        samples = SampleSet(rng.uniform(0, 1, (n, d)), rng.normal(size=n))
        kernel = AnchoredKernel(d)
        lam = float(rng.uniform(1e-3, 1.0))
        model = fit(samples, kernel, lam)
        assert model.residual <= 1e-10, f"trial {trial}"
        base = objective(model, samples)
        for _ in range(5):
            delta = rng.normal(size=n)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert objective(model, samples, model.coefficients + delta) >= base - 1e-12

    # rank-one map targets reproduce scaled coefficient columns
    X = rng.uniform(0, 1, (20, 3))
    y = rng.normal(size=20)
    scales = np.array([1.5, -0.5, 2.0])
    mapped = fit_map(SampleSet(X, np.outer(y, scales)), AnchoredKernel(3), 0.1)
    single = fit(SampleSet(X, y), AnchoredKernel(3), 0.1)
    expected = np.outer(single.coefficients, scales)
    assert np.max(np.abs(mapped.coefficients - expected)) <= 1e-12


@criterion(11, "cli-determinism")
def test_criterion_11_cli_determinism(tmp_path):
    from importlib import resources
    from pathlib import Path

    config_dir = Path(str(resources.files("tensorsplit") / "configs"))
    jobs = [
        ("epsdim", "epsdim_example.json"),
        ("transform", "transform_example.json"),
        ("anova", "anova_example.json"),
        ("anchored", "anchored_example.json"),
        ("equiv", "equiv_example.json"),
        ("sobol", "sobol_example.json"),
        ("truncate", "truncate_example.json"),
        ("regress", "regress_example.json"),
    ]
    for command, config in jobs:
        out1 = tmp_path / f"{command}_1.out"
        out2 = tmp_path / f"{command}_2.out"
        for out in (out1, out2):
            code = cli_main(
                [command, "--config", str(config_dir / config), "--out", str(out)]
            )
            assert code == 0, f"{command} exited {code}"
        assert out1.read_bytes() == out2.read_bytes(), f"{command} output differs"
