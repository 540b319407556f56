"""Tracing from outside the package: spans, counts and per-layer metrics.

The tracer replaces public functions of the package where their callers
look them up (a module global such as ``tensorsplit.epsdim.ratio``, a name
imported into ``tensorsplit.cli``, or a method on every subclass of a base
class) and puts the originals back on ``uninstall``.  The package itself is
not edited.

* Spans (name, start, end, parent, request) are kept for calls that take
  about a millisecond or more; they are held in memory and written out
  when the run ends.  A span's self time is its duration minus the
  durations of its direct children.
* Calls of a few microseconds (``weight``, ``ratio``, ``bump``,
  ``tail_sum``, gamma ``value``) only increment a counter, so tracing does
  not swamp them; the 1-D inner products also add up their time.

A name the package no longer defines is skipped, so the tracer keeps
working as the package changes; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute, span name): calls made by the CLI into the library
_CLI_SPANS = [
    ("tensorsplit.cli", "weights_from_json", "weights.from_json"),
    ("tensorsplit.cli", "gamma_from_json", "gammas.from_json"),
    ("tensorsplit.cli", "function_from_json", "functions.from_json"),
    ("tensorsplit.cli", "eps_dimension", "epsdim.eps_dimension"),
    ("tensorsplit.cli", "stabilization_dim", "epsdim.stabilization_dim"),
    ("tensorsplit.cli", "eps_dimension_restricted", "epsdim.eps_dimension_restricted"),
    ("tensorsplit.cli", "spline_eps_dimension", "epsdim.spline_eps_dimension"),
    ("tensorsplit.cli", "orthogonalized_weight", "weights.orthogonalized_weight"),
    ("tensorsplit.cli", "decompose", "decomp.decompose"),
    ("tensorsplit.cli", "weighted_norm", "decomp.weighted_norm"),
    ("tensorsplit.cli", "certify_equivalence", "equivalence.certify"),
    ("tensorsplit.cli", "sobol_indices", "sensitivity.sobol"),
    ("tensorsplit.cli", "truncate_order", "sensitivity.truncate_order"),
    ("tensorsplit.cli", "truncation_bound", "sensitivity.bound"),
    ("tensorsplit.cli", "l2_error", "sensitivity.l2_error"),
    ("tensorsplit.cli", "fit", "regress.fit"),
    ("tensorsplit.cli", "fit_map", "regress.fit_map"),
    ("tensorsplit.cli", "predict", "regress.predict"),
]

#: spans inside the library, where the library's own callers resolve them
_LIB_SPANS = [
    ("tensorsplit.epsdim", "enumerate_threshold_set", "epsdim.enumerate"),
    ("tensorsplit.epsdim", "spline_eps_dimension", "epsdim.spline_eps_dimension"),
    ("tensorsplit.decomp", "decompose", "decomp.decompose"),
    ("tensorsplit.sensitivity", "decompose", "decomp.decompose"),
    ("tensorsplit.regress", "gram_matrix", "regress.gram"),
]

#: (module, attribute, counter name): hot module-level functions
_COUNTED = [
    ("tensorsplit.epsdim", "ratio", "epsdim.ratio"),
    ("tensorsplit.functions", "integrate_1d", "quadrature.integrate"),
    ("tensorsplit.quadrature", "integrate_1d", "quadrature.integrate"),
]

#: (module, attribute): 1-D inner products, counted and timed without spans
_INNER = [
    ("tensorsplit.decomp", "deriv_inner"),
    ("tensorsplit.sensitivity", "value_inner"),
    ("tensorsplit.functions", "value_inner"),
    ("tensorsplit.functions", "deriv_inner"),
]

#: (module, base class, method, counter name): methods on every subclass
_COUNTED_METHODS = [
    ("tensorsplit.weights", "WeightModel", "weight", "weights.weight"),
    ("tensorsplit.weights", "TailOracle", "tail", "weights.tail"),
    ("tensorsplit.sequences", "CoordSeq", "tail_sum", "sequences.tail"),
    ("tensorsplit.sequences", "CoordSeq", "tail_sup", "sequences.tail"),
    ("tensorsplit.indexing", "IndexVector", "bump", "indexing.bump"),
    ("tensorsplit.gammas", "GammaModel", "value", "gammas.value"),
    ("tensorsplit.gammas", "GammaModel", "order_sums", "gammas.order_sums"),
]


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.request = -1
        self.counts = defaultdict(int)
        self.inner_ns = 0
        self._restore: list = []

    # -- instruments ------------------------------------------------------

    def _span(self, name, fn, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1], self.request)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _inner(self, fn):
        counts, clock = self.counts, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.inner_ns += clock() - start
                counts["functions.inner"] += 1

        return wrapper

    # -- result hooks -------------------------------------------------------

    def _after_enumerate(self, args, result):
        self.counts["epsdim.emitted"] += len(result[0])

    def _after_decompose(self, args, result):
        self.counts["decomp.supports"] += len(result)
        self.counts["decomp.live"] += sum(1 for t in result if t.mixed_norm_sq != 0.0)

    def _after_l2_error(self, args, result):
        self.counts["sensitivity.l2_pairs"] += (len(args[0].terms) + len(args[1].terms)) ** 2

    def _after_fit(self, args, result):
        self.counts["regress.fits"] += 1
        self.counts["regress.jitter_fits"] += result.jitter > 0.0

    def _after_gram(self, args, result):
        self.counts["regress.kernel_grams"] += 1
        self.counts["regress.gram_bytes"] += 8 * result.shape[0] * result.shape[1]

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper_of):
        if attr not in vars(owner):
            return
        orig = vars(owner)[attr]
        setattr(owner, attr, wrapper_of(orig))
        self._restore.append((owner, attr, orig))

    def install(self):
        mod = importlib.import_module
        posts = {
            "epsdim.enumerate": self._after_enumerate,
            "decomp.decompose": self._after_decompose,
            "sensitivity.l2_error": self._after_l2_error,
            "regress.fit": self._after_fit,
            "regress.fit_map": self._after_fit,
        }
        for module, attr, name in _CLI_SPANS + _LIB_SPANS:
            self._patch(mod(module), attr,
                        lambda fn, name=name: self._span(name, fn, posts.get(name)))
        for module, attr, name in _COUNTED:
            self._patch(mod(module), attr, lambda fn, name=name: self._counter(name, fn))
        for module, attr in _INNER:
            self._patch(mod(module), attr, self._inner)
        for module, base, method, name in _COUNTED_METHODS:
            base_cls = getattr(mod(module), base, None)
            for cls in _subclasses(base_cls) if base_cls is not None else ():
                self._patch(cls, method, lambda fn, name=name: self._counter(name, fn))
        sensitivity = mod("tensorsplit.sensitivity")
        if hasattr(sensitivity, "SobolTable"):
            self._patch(sensitivity.SobolTable, "total",
                        lambda fn: self._span("sensitivity.total", fn))
        regress = mod("tensorsplit.regress")
        if hasattr(regress, "AnchoredKernel"):
            self._patch(regress.AnchoredKernel, "gram",
                        lambda fn: self._span("regress.kernel_gram", fn, self._after_gram))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def call(self, name, fn, *args):
        """Run ``fn`` as a root span (one CLI request)."""
        return self._span(name, fn)(*args)

    # -- reduction ------------------------------------------------------------

    def span_table(self) -> dict:
        """Per span name: calls, total ms and self ms."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[i]
        return {name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
                for name, (c, t, s) in sorted(table.items())}

    def _nested_ns(self, outer: set, inner: str) -> int:
        """Time of ``inner`` spans that run inside an ``outer`` span."""
        total = 0
        for name, start, end, parent, _ in self.spans:
            if name != inner:
                continue
            while parent >= 0 and self.spans[parent][0] not in outer:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total

    def layer_metrics(self, requests: int, root: str) -> dict:
        """Per-request layer metrics (see README.md for what each should move)."""
        table = self.span_table()
        n = max(requests, 1)
        c = self.counts

        def ms(name):
            return table.get(name, {}).get("total_ms", 0.0) / n

        def calls(name):
            return table.get(name, {}).get("calls", 0) / n

        fit_ms = ms("regress.fit") + ms("regress.fit_map")
        gram_in_fit = self._nested_ns({"regress.fit", "regress.fit_map"}, "regress.gram") / 1e6 / n
        return {
            "cli.glue_ms": table.get(root, {}).get("self_ms", 0.0) / n,
            "epsdim.enumerations_per_req": calls("epsdim.enumerate"),
            "epsdim.enumerate_ms": ms("epsdim.enumerate"),
            "epsdim.count_path_calls": calls("epsdim.spline_eps_dimension"),
            "epsdim.candidates": c["epsdim.ratio"] / n,
            "epsdim.indices_emitted": c["epsdim.emitted"] / n,
            "epsdim.emit_ratio": c["epsdim.emitted"] / c["epsdim.ratio"] if c["epsdim.ratio"] else 0.0,
            "weights.weight_calls": c["weights.weight"] / n,
            "weights.tail_calls": c["weights.tail"] / n,
            "sequences.tail_calls": c["sequences.tail"] / n,
            "indexing.bump_calls": c["indexing.bump"] / n,
            "gammas.value_calls": c["gammas.value"] / n,
            "gammas.order_sums_calls": c["gammas.order_sums"] / n,
            "decomp.decompose_ms": ms("decomp.decompose"),
            "decomp.supports": c["decomp.supports"] / n,
            "decomp.live_share": c["decomp.live"] / c["decomp.supports"] if c["decomp.supports"] else 0.0,
            "functions.inner_calls": c["functions.inner"] / n,
            "functions.inner_ms": self.inner_ns / 1e6 / n,
            "quadrature.integrate_calls": c["quadrature.integrate"] / n,
            "sensitivity.total_calls": calls("sensitivity.total"),
            "sensitivity.total_ms": ms("sensitivity.total"),
            "sensitivity.l2_error_pairs": c["sensitivity.l2_pairs"] / n,
            "sensitivity.l2_error_ms": ms("sensitivity.l2_error"),
            "sensitivity.sobol_ms": ms("sensitivity.sobol"),
            "sensitivity.bound_ms": ms("sensitivity.bound"),
            "equivalence.certify_ms": ms("equivalence.certify"),
            "regress.gram_calls_per_req": calls("regress.gram"),
            "regress.gram_ms": ms("regress.gram"),
            "regress.solve_ms": fit_ms - gram_in_fit,
            "regress.predict_ms": ms("regress.predict"),
            "regress.gram_mb": (c["regress.gram_bytes"] / c["regress.kernel_grams"] / 1e6
                                if c["regress.kernel_grams"] else 0.0),
            "regress.jitter_share": (c["regress.jitter_fits"] / c["regress.fits"]
                                     if c["regress.fits"] else 0.0),
        }
