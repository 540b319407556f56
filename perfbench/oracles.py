"""Independent checks of CLI artifacts.

Each check recomputes the expected output from the request's own numbers
with code written here (closed forms, direct counting, a separate
Gauss-Legendre rule from numpy, a separate kernel), not with the functions
under test.  The one exception is the comparison the epsdim rows must pass
against ``spline_eps_dimension``, the package's counting path, which is a
different algorithm from the enumerator that produced the rows.

``check(request, rc, artifact)`` returns a list of ``Failure`` records; an
empty list means the request passed.

``KNOWN_DEFECTS`` names failures that the seed is known to produce, with the
ROADMAP item that describes them.  Such a failure still counts in
``failed`` and ``failed_frac``; it only leaves the run's ``correct`` flag
set.  Any other failure clears it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from workloads import NOISE, evaluate_generating

#: check name -> (ROADMAP item, predicate on the failure's details)
KNOWN_DEFECTS = {
    "truncate.bound_below_true_error": (
        "ROADMAP 3a: truncation_bound cancels to 0.0 while the true error is positive",
        lambda details: details.get("bound") == 0.0,
    ),
}


@dataclass(frozen=True)
class Failure:
    check: str
    message: str
    details: tuple = ()

    @property
    def known(self) -> bool:
        entry = KNOWN_DEFECTS.get(self.check)
        return entry is not None and entry[1](dict(self.details))


def check(req, rc: int, artifact: bytes | None) -> list[Failure]:
    if rc != req.expect_rc:
        return [Failure("exit_code", f"exit code {rc}, expected {req.expect_rc}")]
    kind = req.oracle.get("type", "none")
    if kind == "none":
        return []
    if artifact is None:
        return [Failure("artifact", "no artifact written")]
    text = artifact.decode("utf-8")
    try:
        return _CHECKS[kind](req, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [Failure("artifact.parse", f"{type(exc).__name__}: {exc}")]


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_tol


# ---------------------------------------------------------------------------
# epsdim: direct counting of threshold sets


def _gamma_evaluator(spec: dict):
    """(value(coords) for a sorted tuple, candidate supports or None for power)."""
    kind = spec["kind"]
    if kind == "product":
        seq = spec["seq"]
        if seq["kind"] == "power":
            c, p = float(seq["c"]), float(seq["p"])

            def coord(k):
                return c * float(k) ** (-p)
        elif seq["kind"] == "finite":
            vals = [float(v) for v in seq["values"]]

            def coord(k):
                return vals[k - 1] if 1 <= k <= len(vals) else 0.0
        else:
            raise ValueError(f"no oracle for sequence kind {seq['kind']}")

        def value(coords):
            v = 1.0
            for k in coords:
                v *= coord(k)
            return v

        if seq["kind"] == "finite":
            n = len(seq["values"])
            supports = [tuple(k + 1 for k in range(n) if mask >> k & 1) for mask in range(1 << n)]
            return value, supports, coord
        return value, None, coord
    if kind == "table":
        table = {(): 1.0}
        for omega, v in spec["entries"]:
            if float(v) > 0:
                table[tuple(sorted(int(k) for k in omega))] = float(v)
        return (lambda coords: table.get(tuple(coords), 0.0)), sorted(table), None
    if kind == "finite_order":
        base_value, base_supports, coord = _gamma_evaluator(spec["base"])
        order = int(spec["order"])
        if base_supports is not None:
            base_supports = [w for w in base_supports if len(w) <= order]
        return (lambda coords: base_value(coords) if len(coords) <= order else 0.0), base_supports, None
    raise ValueError(f"no oracle for gamma kind {kind}")


def spline_unit_counts(spec: dict, s: float, lam: float, eps: float):
    """Per support: (max coordinate, indices, dyadic dimension) of the threshold set.

    An index with support omega and total level |omega| + m carries the
    ratio gamma_omega / (lam**|omega| * 2**(2 s (|omega| + m))); it clears
    the threshold iff that is >= eps**2.  The comparison repeats the
    floating-point steps of the definition, so boundary decisions agree.
    """
    value, supports, coord = _gamma_evaluator(spec)
    eps2 = eps * eps

    def ratio(coords, level):
        gv = value(coords)
        if gv == 0.0:
            return 0.0
        lam_prod = 1.0
        for _ in coords:
            lam_prod *= lam
        return 1.0 / (lam_prod * 2.0 ** (2.0 * s * level) / gv)

    def excess(coords):
        m = -1
        while ratio(coords, len(coords) + m + 1) >= eps2:
            m += 1
        return m

    found = [(0, 1, 1)]  # the zero index
    if supports is None:
        # power-law product gamma: entering coordinate k multiplies the ratio
        # by coord(k) / (lam * 4**s) <= 1, decreasing in k, so a support that
        # fails prunes its larger siblings and all its supersets
        if coord(1) / (lam * 2.0 ** (2.0 * s)) > 1.0:
            raise ValueError("oracle needs entry multipliers <= 1")
        candidates = []
        stack = [()]
        while stack:
            omega = stack.pop()
            if omega:
                candidates.append(omega)
            k = (omega[-1] if omega else 0) + 1
            while ratio(omega + (k,), len(omega) + 1) >= eps2:
                stack.append(omega + (k,))
                k += 1
        supports = candidates
    for omega in supports:
        if not omega:
            continue
        m_max = excess(omega)
        if m_max < 0:
            continue
        size = len(omega)
        indices = sum(math.comb(m + size - 1, size - 1) for m in range(m_max + 1))
        dyadic = sum(math.comb(m + size - 1, size - 1) * 2**m for m in range(m_max + 1))
        found.append((max(omega), indices, dyadic))
    return found


def product_unit_counts(c: float, p: float, eps: float):
    """Supports of {0,1}-level product weights with prod gamma_k >= eps**2."""
    eps2 = eps * eps

    def ratio(coords):
        gw = 1.0
        for k in coords:
            gw *= c * float(k) ** (-p)
        return 0.0 if gw == 0.0 else 1.0 / (1.0 / gw)

    if c > 1.0:
        raise ValueError("oracle needs coordinate weights <= 1")
    found = [(0, 1, 1)]
    stack = [()]
    while stack:
        omega = stack.pop()
        k = (omega[-1] if omega else 0) + 1
        while ratio(omega + (k,)) >= eps2:
            child = omega + (k,)
            found.append((k, 1, 1))
            stack.append(child)
            k += 1
    return found


def _check_epsdim(req, text: str) -> list[Failure]:
    header, rows = _csv_rows(text)
    if header != ["eps", "d", "n", "set_size", "d0", "truncated"]:
        return [Failure("epsdim.header", f"unexpected header {header}")]
    cfg, orc = req.cfg, req.oracle
    d_list = [int(d) for d in cfg.get("d", [])]
    eps_list = [float(e) for e in cfg["eps"]]
    if len(rows) != len(eps_list) * (1 + len(d_list)):
        return [Failure("epsdim.rows", f"{len(rows)} rows for {len(eps_list)} eps")]
    dyadic = cfg.get("dims", "all_one") == "spline"
    out = []
    it = iter(rows)
    for eps in eps_list:
        if orc["type"] == "spline_unit":
            found = spline_unit_counts(orc["gamma"], float(orc["s"]), float(orc["lam"]), eps)
        else:
            found = product_unit_counts(float(orc["c"]), float(orc["p"]), eps)

        def expected(dmax):
            sel = [f for f in found if dmax is None or f[0] <= dmax]
            size = sum(f[1] for f in sel)
            return (sum(f[2] for f in sel) if dyadic else size), size

        d0 = max(f[0] for f in found)
        full = next(it)
        got = [float(full[0]), full[1], int(full[2]), int(full[3]), int(full[4]), full[5]]
        want = (eps, "", *expected(None), d0, "false")
        if tuple(got) != want:
            out.append(Failure("epsdim.full_row", f"eps={eps}: got {got}, want {list(want)}"))
        if orc["type"] == "spline_unit" and dyadic:
            counted = _spline_eps_dimension(orc, eps)
            if counted != got[2]:
                out.append(Failure("epsdim.counting_path",
                                   f"eps={eps}: n={got[2]}, spline_eps_dimension gives {counted}"))
        prev = -1
        for d in d_list:
            row = next(it)
            n_d, size_d = int(row[2]), int(row[3])
            if (row[1], int(row[4]), row[5]) != (str(d), d0, "false"):
                out.append(Failure("epsdim.restricted_row", f"eps={eps} d={d}: row {row}"))
            if (n_d, size_d) != expected(d):
                out.append(Failure("epsdim.restricted_count",
                                   f"eps={eps} d={d}: got {(n_d, size_d)}, want {expected(d)}"))
            if n_d < prev or (d >= d0 and n_d != got[2]):
                out.append(Failure("epsdim.restriction_order",
                                   f"eps={eps} d={d}: n={n_d} after {prev}, full {got[2]}, d0={d0}"))
            prev = n_d
    return out


def _spline_eps_dimension(orc: dict, eps: float) -> int:
    from tensorsplit.epsdim import spline_eps_dimension
    from tensorsplit.gammas import gamma_from_json

    return spline_eps_dimension(gamma_from_json(orc["gamma"]), orc["s"], orc["lam"], eps).n


# ---------------------------------------------------------------------------
# transform: closed-form tail sums of a finite product-gamma spline model


def _check_transform(req, text: str) -> list[Failure]:
    header, rows = _csv_rows(text)
    if header != ["index", "weight", "orthogonalized", "ratio"]:
        return [Failure("transform.header", f"unexpected header {header}")]
    orc = req.oracle
    vals, s, lam = [float(v) for v in orc["values"]], float(orc["s"]), float(orc["lam"])
    rho = 2.0 ** (-2.0 * s)
    t = [g * rho / (lam * (1.0 - rho)) for g in vals]
    want_keys = sorted(json.dumps(j, sort_keys=True) for j in req.cfg["indices"])
    got_keys = sorted(json.dumps(json.loads(r[0]), sort_keys=True) for r in rows)
    if want_keys != got_keys:
        return [Failure("transform.indices", f"rows {got_keys}, want {want_keys}")]
    out = []
    for row in rows:
        j = {int(k): int(v) for k, v in json.loads(row[0]).items()}
        gamma = math.prod(vals[k - 1] if k <= len(vals) else 0.0 for k in j)
        level = sum(j.values())
        weight = 1.0 if not j else lam ** len(j) * 2.0 ** (2.0 * s * level) / gamma
        tail = math.prod(1.0 + t[k - 1] for k in range(1, len(vals) + 1) if k not in j)
        for k, lvl in j.items():
            tail *= vals[k - 1] * rho**lvl / (lam * (1.0 - rho))
        want = (weight, 1.0 / tail, (1.0 / tail) / weight)
        got = tuple(float(x) for x in row[1:])
        if not all(_close(g, w, 1e-11) for g, w in zip(got, want)):
            out.append(Failure("transform.values", f"{row[0]}: got {got}, want {want}"))
    return out


# ---------------------------------------------------------------------------
# equiv: product-weight constants as explicit infinite products


def _log_product(x: float, r: float, terms: int = 200_000) -> float:
    """log prod_k (1 + x k**-r) for r > 1: direct head, integrated tail."""
    k = np.arange(1, terms + 1, dtype=np.float64)
    head = float(np.sum(np.log1p(x * k ** (-r))))
    a = terms + 0.5  # midpoint rule for the tail integral
    tail = 0.0
    for i in (1, 2, 3):  # log1p(u) = u - u^2/2 + u^3/3 - ...
        tail += (-1) ** (i + 1) / i * x**i * a ** (1 - i * r) / (i * r - 1)
    return head + tail


def _check_equiv(req, text: str) -> list[Failure]:
    rep = json.loads(text)
    orc = req.oracle
    if not orc["certified"]:
        if rep.get("certified") is not False:
            return [Failure("equiv.uncertified", f"report {rep}")]
        return []
    c, p, qt = float(orc["c"]), float(orc["p"]), float(orc["q_tilde"])
    q = 1.0 / 3.0 - 0.25  # averaged anchored kernel energy at anchor 1/2
    c_prime = math.exp(_log_product(q * qt * math.sqrt(c), p / 2))
    c_dprime = math.exp(_log_product(math.sqrt(c) / qt, p / 2))
    want = {"c_prime": c_prime, "c_dprime": c_dprime, "c": math.sqrt(c_prime * c_dprime), "q": q}
    out = []
    if rep.get("certified") is not True:
        out.append(Failure("equiv.certified", f"report {rep}"))
    for key, w in want.items():
        if not _close(float(rep[key]), w, 1e-9):
            out.append(Failure("equiv.constant", f"{key}: got {rep[key]}, want {w}"))
    return out


# ---------------------------------------------------------------------------
# decomp, sobol, truncate: per-coordinate integrals of separable functions

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
_X = 0.5 * (_NODES + 1.0)
_W = 0.5 * _WEIGHTS


def _factor_fns(spec: dict | None):
    """(value, derivative) as numpy callables; None is the constant 1."""
    if spec is None:
        return (lambda x: np.ones_like(x)), (lambda x: np.zeros_like(x))
    kind = spec["kind"]
    if kind in ("monomial", "polynomial"):
        coeffs = ([0.0] * int(spec["power"]) + [1.0]) if kind == "monomial" else [
            float(c) for c in spec["coeffs"]]
        poly = np.polynomial.Polynomial(coeffs)
        return poly, poly.deriv()
    if kind == "sin":
        w, b = float(spec["freq"]), float(spec.get("phase", 0.0))
        return (lambda x: np.sin(w * x + b)), (lambda x: w * np.cos(w * x + b))
    if kind == "exp":
        a = float(spec["rate"])
        return (lambda x: np.exp(a * x)), (lambda x: a * np.exp(a * x))
    raise ValueError(f"no oracle for factor kind {kind}")


class _Separable:
    """Per-term, per-coordinate factor tables of a function spec."""

    def __init__(self, spec: dict, mode: str, anchor: float):
        self.d = int(spec["dim"])
        self.coefs = np.array([float(t["coef"]) for t in spec["terms"]])
        vals, ders, proj = [], [], []
        for t in spec["terms"]:
            fv, fd, fp = [], [], []
            for k in range(1, self.d + 1):
                v, dv = _factor_fns(t["factors"].get(str(k)))
                fv.append(v(_X))
                fd.append(dv(_X))
                fp.append(float(np.dot(_W, v(_X))) if mode == "anova" else float(v(np.array([anchor]))[0]))
            vals.append(fv)
            ders.append(fd)
            proj.append(fp)
        self.vals = np.array(vals)   # (R, d, nodes)
        self.ders = np.array(ders)
        self.proj = np.array(proj)   # (R, d): mean or anchor value

    def pair(self, table_r, table_s):
        """(R, R, d) integrals of products of per-term nodal tables."""
        return np.einsum("rkn,skn,n->rsk", table_r, table_s, _W)

    def energies(self):
        """Component energies E[mask] and absolute scales A[mask] over all 2^d sets."""
        D = self.pair(self.ders, self.ders)
        P = self.proj[:, None, :] * self.proj[None, :, :]
        R = len(self.coefs)
        arr = np.ones((R, R, 1))
        for k in range(self.d):
            arr = np.concatenate([arr * P[:, :, k:k + 1], arr * D[:, :, k:k + 1]], axis=2)
        cc = self.coefs[:, None, None] * self.coefs[None, :, None]
        return (cc * arr).sum(axis=(0, 1)), np.abs(cc * arr).sum(axis=(0, 1))

    def truncation_error_sq(self, mode: str, m: int):
        """(||f - S_m f||^2, absolute scale of the summed terms)."""
        centered = self.vals - self.proj[:, :, None]
        V = self.pair(centered, centered)
        P = self.proj[:, None, :] * self.proj[None, :, :]
        cc = self.coefs[:, None] * self.coefs[None, :]
        R = len(self.coefs)
        if mode == "anova":
            # orthogonal components: one generating variable for the order
            poly = np.zeros((R, R, self.d + 1))
            poly[:, :, 0] = 1.0
            for k in range(self.d):
                nxt = poly * P[:, :, k:k + 1]
                nxt[:, :, 1:] += poly[:, :, :-1] * V[:, :, k:k + 1]
                poly = nxt
            terms = cc[:, :, None] * poly[:, :, m + 1:]
            return float(terms.sum()), float(np.abs(terms).sum())
        # anchored components are not orthogonal: track both orders
        mean_c = np.einsum("rkn,n->rk", centered, _W)
        B = mean_c[:, None, :] * self.proj[None, :, :]
        C = self.proj[:, None, :] * mean_c[None, :, :]
        poly = np.zeros((R, R, self.d + 1, self.d + 1))
        poly[:, :, 0, 0] = 1.0
        for k in range(self.d):
            a, b, c, v = (x[:, :, k, None, None] for x in (P, B, C, V))
            nxt = poly * a
            nxt[:, :, 1:, :] += poly[:, :, :-1, :] * b
            nxt[:, :, :, 1:] += poly[:, :, :, :-1] * c
            nxt[:, :, 1:, 1:] += poly[:, :, :-1, :-1] * v
            poly = nxt
        terms = cc[:, :, None, None] * poly[:, :, m + 1:, m + 1:]
        return float(terms.sum()), float(np.abs(terms).sum())

    def l2_scale(self) -> float:
        G = self.pair(self.vals, self.vals)
        cc = np.abs(self.coefs[:, None] * self.coefs[None, :])
        return float(math.sqrt((cc * np.abs(np.prod(G, axis=2))).sum()))


def _mask(omega: list[int]) -> int:
    return sum(1 << (k - 1) for k in omega)


def _coords(mask: int, d: int) -> tuple[int, ...]:
    return tuple(k + 1 for k in range(d) if mask >> k & 1)


def _gamma_table(spec: dict, d: int) -> np.ndarray:
    value, _, _ = _gamma_evaluator(spec)
    return np.array([value(_coords(mask, d)) for mask in range(1 << d)])


def _check_decomp(req, text: str) -> list[Failure]:
    header, rows = _csv_rows(text)
    if header != ["omega", "term_norm", "weighted_contribution"]:
        return [Failure("decomp.header", f"unexpected header {header}")]
    f = _Separable(req.cfg["function"], req.oracle["mode"], req.oracle["anchor"])
    E, A = f.energies()
    gam = _gamma_table(req.cfg["gamma"], f.d)
    if sorted(_mask(json.loads(r[0])) for r in rows) != list(range(1 << f.d)):
        return [Failure("decomp.supports", f"{len(rows)} rows for d={f.d}")]
    out = []
    contributions = []
    for row in rows:
        mask = _mask(json.loads(row[0]))
        norm, contrib = float(row[1]), float(row[2])
        contributions.append(contrib)
        if not _close(norm * norm, max(E[mask], 0.0), 0.0, 1e-9 * (abs(E[mask]) + A[mask])):
            out.append(Failure("decomp.term_norm", f"{row[0]}: {norm}^2 vs {E[mask]}"))
        if gam[mask] > 0.0:
            ok = _close(contrib, E[mask] / gam[mask], 0.0, 1e-9 * (abs(E[mask]) + A[mask]) / gam[mask])
        else:
            ok = contrib == (0.0 if E[mask] == 0.0 else math.inf)
        if not ok:
            out.append(Failure("decomp.contribution", f"{row[0]}: {contrib}, energy {E[mask]}, gamma {gam[mask]}"))
    spec = req.cfg["gamma"]
    if spec["kind"] == "product":
        # ||f||_gamma^2 = sum_{r,s} c_r c_s prod_k (m_rk m_sk + D_k^{rs} / gamma_k)
        D = f.pair(f.ders, f.ders)
        P = f.proj[:, None, :] * f.proj[None, :, :]
        value, _, _ = _gamma_evaluator(spec)
        g = np.array([value((k,)) for k in range(1, f.d + 1)])
        closed = float((f.coefs[:, None] * f.coefs[None, :] * np.prod(P + D / g, axis=2)).sum())
        total = math.fsum(contributions)
        if not _close(total, closed, 1e-10):
            out.append(Failure("decomp.weighted_norm", f"sum {total} vs closed form {closed}"))
    return out[:5]


def _superset_sums(x: np.ndarray, d: int) -> np.ndarray:
    x = x.copy()
    for k in range(d):
        bit = 1 << k
        for mask in range(1 << d):
            if not mask & bit:
                x[mask] += x[mask | bit]
    return x


def _check_sobol(req, text: str) -> list[Failure]:
    header, rows = _csv_rows(text)
    if header != ["omega", "index", "total"]:
        return [Failure("sobol.header", f"unexpected header {header}")]
    f = _Separable(req.cfg["function"], req.oracle["mode"], req.oracle["anchor"])
    E, A = f.energies()
    gam = _gamma_table(req.cfg["gamma"], f.d)
    include_empty = req.oracle["include_empty"]
    keep = np.array([(mask or include_empty) and gam[mask] > 0.0 for mask in range(1 << f.d)])
    weighted = np.where(keep, E / np.where(gam > 0, gam, 1.0), 0.0)
    scale = np.where(keep, A / np.where(gam > 0, gam, 1.0), 0.0)
    denom = weighted.sum()
    index = weighted / denom
    totals = _superset_sums(index, f.d)
    total_scale = _superset_sums(scale / denom, f.d)
    got_masks = sorted(_mask(json.loads(r[0])) for r in rows)
    if got_masks != [m for m in range(1 << f.d) if keep[m]]:
        return [Failure("sobol.supports", f"{len(rows)} rows, want {int(keep.sum())}")]
    out = []
    col = [float(r[1]) for r in rows]
    if abs(math.fsum(col) - 1.0) > 1e-12 * len(col):
        out.append(Failure("sobol.sum", f"indices sum to {math.fsum(col)!r}"))
    for row in rows:
        mask = _mask(json.loads(row[0]))
        got_i, got_t = float(row[1]), float(row[2])
        if not _close(got_i, index[mask], 0.0, 1e-9 * (abs(index[mask]) + scale[mask] / denom) + 1e-15):
            out.append(Failure("sobol.index", f"{row[0]}: {got_i} vs {index[mask]}"))
        if not _close(got_t, totals[mask], 0.0, 1e-9 * (abs(totals[mask]) + total_scale[mask]) + 1e-15):
            out.append(Failure("sobol.total", f"{row[0]}: {got_t} vs {totals[mask]}"))
    return out[:5]


def _check_truncate(req, text: str) -> list[Failure]:
    header, rows = _csv_rows(text)
    if header != ["m", "error", "bound", "bound_ratio"]:
        return [Failure("truncate.header", f"unexpected header {header}")]
    mode = req.cfg.get("mode", "anchored")
    f = _Separable(req.cfg["function"], mode, req.oracle["anchor"])
    m_list = [int(m) for m in req.cfg.get("m", range(f.d + 1))]
    if [int(r[0]) for r in rows] != m_list:
        return [Failure("truncate.rows", f"m column {[r[0] for r in rows]}, want {m_list}")]
    l2_scale = f.l2_scale()
    out = []
    for row in rows:
        m, err, bound, ratio = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        err_sq, scale = f.truncation_error_sq(mode, m)
        true_err = math.sqrt(max(err_sq, 0.0))
        noise = math.sqrt(1e-14 * scale)  # rounding floor of the expansion above
        if bound < true_err - noise:
            out.append(Failure("truncate.bound_below_true_error",
                               f"m={m}: bound {bound} < true error {true_err}",
                               (("bound", bound), ("true_error", true_err))))
        if abs(err - true_err) > 1e-7 * l2_scale + noise:
            out.append(Failure("truncate.error", f"m={m}: error {err} vs true {true_err}"))
        want_ratio = err / bound if bound > 0 else 0.0
        if not _close(ratio, want_ratio, 1e-12):
            out.append(Failure("truncate.bound_ratio", f"m={m}: {ratio} vs {want_ratio}"))
    return out


# ---------------------------------------------------------------------------
# regress: the linear system and the holdout error, with an independent kernel


def anchored_gram(X: np.ndarray, Y: np.ndarray, anchor: float, scales) -> np.ndarray:
    """prod_k (1 + scale_k * overlap), overlap = min distance to the anchor on a shared side."""
    G = np.ones((X.shape[0], Y.shape[0]))
    for k in range(X.shape[1]):
        a = X[:, k, None] - anchor
        b = Y[None, :, k] - anchor
        same_side = (np.sign(a) * np.sign(b)) > 0
        G *= 1.0 + scales[k] * np.where(same_side, np.minimum(np.abs(a), np.abs(b)), 0.0)
    return G


def _check_regress(req, text: str) -> list[Failure]:
    rep = json.loads(text)
    cfg = req.cfg
    X, Y = req.files[cfg["samples"]]
    n, outputs = Y.shape
    out = []
    if (rep["n"], rep["outputs"]) != (n, outputs):
        return [Failure("regress.shape", f"n={rep['n']} outputs={rep['outputs']}")]
    if not rep["residual"] <= 1e-10:
        out.append(Failure("regress.residual", f"artifact residual {rep['residual']}"))
    C = np.array(rep["coefficients"], dtype=float).reshape(n, outputs)
    lam = np.broadcast_to(np.asarray(cfg["lambda"], dtype=float), (outputs,))
    kernel = cfg.get("kernel", {})
    scales = kernel.get("scales") or [1.0] * X.shape[1]
    anchor = float(kernel.get("anchor", 0.5))
    G = anchored_gram(X, X, anchor, scales)
    for l in range(outputs):
        r = G @ C[:, l] + n * lam[l] * C[:, l] - Y[:, l]
        rel = float(np.linalg.norm(r) / np.linalg.norm(Y[:, l]))
        if not rel <= 1e-10:
            out.append(Failure("regress.solve", f"output {l}: relative residual {rel:.3e}"))
    rmse_train = float(np.sqrt(np.mean((G @ C - Y) ** 2)))
    if not _close(rep["rmse_train"], rmse_train, 1e-6):
        out.append(Failure("regress.rmse_train", f"{rep['rmse_train']} vs {rmse_train}"))
    if "holdout" in cfg:
        Xh, Yh = req.files[cfg["holdout"]]
        rmse = float(np.sqrt(np.mean((anchored_gram(Xh, X, anchor, scales) @ C - Yh) ** 2)))
        if not _close(rep["rmse_holdout"], rmse, 1e-6):
            out.append(Failure("regress.rmse_holdout", f"{rep['rmse_holdout']} vs {rmse}"))
        truth = evaluate_generating(req.oracle["generating"], Xh)
        spread = float(np.sqrt(np.mean((truth - truth.mean(axis=0)) ** 2)))
        if not rmse <= 0.1 * spread + 3 * NOISE:
            out.append(Failure("regress.accuracy",
                               f"holdout rmse {rmse:.4g} against target spread {spread:.4g}"))
    return out


_CHECKS = {
    "spline_unit": _check_epsdim,
    "product_unit": _check_epsdim,
    "transform": _check_transform,
    "equiv": _check_equiv,
    "anova": _check_decomp,
    "anchored": _check_decomp,
    "sobol": _check_sobol,
    "truncate": _check_truncate,
    "regress": _check_regress,
}
