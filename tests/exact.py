"""Exact truncation errors and product-weight norms of function specs.

Every number here comes from a function spec alone, not from tensorsplit:
as a ``fractions.Fraction`` when every factor is a polynomial (float
coefficients, a float anchor and float weights are exact rationals), else as
an mpmath number at the caller's working precision (``mpmath.workdps(40)``)
for ``exp``, ``sin`` and ``cos`` factors.

For a pair of terms (r, s), c_rk is the projection of the factor g_rk: its
mean (ANOVA) or its value at the anchor (anchored), with g = 1 where a term
has no factor at k, and s_rk = g_rk - c_rk.  The squared L2 norm of the
components above m, summed over both terms' active sets u and v::

    ||f - S_m f||**2 = sum_{r,s} c_r c_s sum_{i,j>m} [z**i w**j]
        prod_k (c_rk c_sk + z c_sk int s_rk + w c_rk int s_sk + z w <s_rk, s_sk>)

In ANOVA mode int s_rk = 0, so only i = j is left.  For a product weight,
||f||_gamma**2 = sum_{r,s} c_r c_s prod_k (c_rk c_sk + <g_rk', g_sk'> / gamma_k).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath


def mp(x):
    """A Fraction or an mpf as an mpf at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else x


class _Poly:
    """A polynomial with Fraction coefficients, ascending."""

    exact = True

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    def at(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def mp_at(self, x):
        return mpmath.polyval([mp(c) for c in reversed(self.coeffs)], x)

    def mean(self):
        return sum(c / (i + 1) for i, c in enumerate(self.coeffs))

    def deriv(self):
        return _Poly([i * c for i, c in enumerate(self.coeffs)][1:] or [Fraction(0)])


class _Transcendental:
    """``exp(rate x)``, ``sin(freq x + phase)`` or ``cos(freq x + phase)``,
    evaluated by mpmath, with its derivative in closed form."""

    exact = False

    def __init__(self, fn, deriv):
        self.fn, self._deriv = fn, deriv

    @classmethod
    def of(cls, spec):
        if spec["kind"] == "exp":
            rate = mp(Fraction(spec["rate"]))
            return cls(lambda x: mpmath.exp(rate * x), lambda x: rate * mpmath.exp(rate * x))
        w, b = mp(Fraction(spec["freq"])), mp(Fraction(spec.get("phase", 0.0)))
        if spec["kind"] == "sin":
            return cls(lambda x: mpmath.sin(w * x + b), lambda x: w * mpmath.cos(w * x + b))
        assert spec["kind"] == "cos"
        return cls(lambda x: mpmath.cos(w * x + b), lambda x: -w * mpmath.sin(w * x + b))

    def at(self, x):
        return self.fn(mp(x))

    def mp_at(self, x):
        return self.fn(x)

    def mean(self):
        return mpmath.quad(self.fn, [0, 1])

    def deriv(self):
        return _Transcendental(self._deriv, None)


ONE = _Poly([Fraction(1)])


def _factor(spec):
    kind = spec["kind"]
    if kind == "monomial":
        return _Poly([Fraction(0)] * spec["power"] + [Fraction(1)])
    if kind == "polynomial":
        return _Poly(map(Fraction, spec["coeffs"]))
    if kind == "constant":
        return _Poly([Fraction(spec["value"])])
    return _Transcendental.of(spec)


def _integral(g, h):
    """The integral of g * h over [0, 1]."""
    if g.exact and h.exact:
        return sum(a * b / (i + j + 1) for i, a in enumerate(g.coeffs) for j, b in enumerate(h.coeffs))
    return mpmath.quad(lambda x: g.mp_at(x) * h.mp_at(x), [0, 1])


class ExactDecomposition:
    """The ANOVA or anchored decomposition of one function spec."""

    def __init__(self, spec: dict, mode: str = "anova", anchor: float = 0.5):
        assert mode in ("anova", "anchored")
        self.dim = spec["dim"]
        self.mode = mode
        self.anchor = Fraction(anchor)
        self.terms = [(Fraction(t["coef"]),
                       {int(k): _factor(g) for k, g in t.get("factors", {}).items()})
                      for t in spec["terms"]]
        exact = all(g.exact for _, fs in self.terms for g in fs.values())
        self.num = (lambda x: x) if exact else mp

    def _factors(self, k):
        return [fs.get(k, ONE) for _, fs in self.terms]

    def _projection(self, g):
        return g.mean() if self.mode == "anova" else g.at(self.anchor)

    def errors_sq(self) -> list:
        """||f - S_m f||**2 for m = 0..dim."""
        num = self.num
        zero = num(Fraction(0))
        by_order = [[zero] * (self.dim + 1) for _ in range(self.dim + 1)]
        per_coordinate = []
        for k in range(1, self.dim + 1):
            gs = self._factors(k)
            cs = [num(self._projection(g)) for g in gs]
            means = [num(g.mean()) for g in gs]
            per_coordinate.append((gs, cs, means))
        for r, (cr, _) in enumerate(self.terms):
            for s, (cs_, _) in enumerate(self.terms):
                poly = {(0, 0): num(cr * cs_)}
                for gs, cs, means in per_coordinate:
                    a = cs[r] * cs[s]
                    b = cs[s] * (means[r] - cs[r])
                    c = cs[r] * (means[s] - cs[s])
                    v = num(_integral(gs[r], gs[s])) - cs[r] * means[s] - cs[s] * means[r] + a
                    out = {}
                    for (i, j), p in poly.items():
                        for di, dj, x in ((0, 0, a), (1, 0, b), (0, 1, c), (1, 1, v)):
                            out[i + di, j + dj] = out.get((i + di, j + dj), zero) + x * p
                    poly = out
                for (i, j), p in poly.items():
                    by_order[i][j] += p
        return [sum((by_order[i][j] for i in range(m + 1, self.dim + 1)
                     for j in range(m + 1, self.dim + 1)), zero)
                for m in range(self.dim + 1)]

    def l2_norm_sq(self):
        """||f||**2 over [0, 1]**dim."""
        total = self.num(Fraction(0))
        for cr, fr in self.terms:
            for cs, fs in self.terms:
                piece = self.num(cr * cs)
                for k in range(1, self.dim + 1):
                    piece *= self.num(_integral(fr.get(k, ONE), fs.get(k, ONE)))
                total += piece
        return total

    def weighted_norm_sq(self, gamma_k):
        """||f||_gamma**2 for the product weight with per-coordinate values
        ``gamma_k(k)``, each positive."""
        num = self.num
        total = num(Fraction(0))
        for cr, fr in self.terms:
            for cs, fs in self.terms:
                piece = num(cr * cs)
                for k in range(1, self.dim + 1):
                    g, h = fr.get(k, ONE), fs.get(k, ONE)
                    d = num(_integral(g.deriv(), h.deriv()))
                    piece *= (num(self._projection(g)) * num(self._projection(h))
                              + d / num(Fraction(gamma_k(k))))
                total += piece
        return total


def poly_spec(dim, terms):
    """A function spec from ``(coef, {k: ascending coefficients})`` terms."""
    return {"dim": dim, "terms": [{"coef": c, "factors": {str(k): {"kind": "polynomial", "coeffs": cs}
                                                        for k, cs in fs.items()}}
                                  for c, fs in terms]}


def assert_matches_truth(errors, truths_sq, scale=None):
    """Each error within 1e-13 of its truth, relative (or of ``scale`` when
    given), and exactly 0.0 where the truth is 0."""
    with mpmath.workdps(40):
        for m, (err, truth_sq) in enumerate(zip(errors, truths_sq, strict=True)):
            if truth_sq == 0:
                assert err == 0.0, f"entry {m}: {err!r} where the truth is 0"
                continue
            truth = mpmath.sqrt(mp(truth_sq))
            tol = 1e-13 * (truth if scale is None else scale)
            assert abs(mpmath.mpf(err) - truth) <= tol, f"entry {m}: {err!r} vs {mpmath.nstr(truth, 17)}"
