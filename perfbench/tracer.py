"""Span tracing installed from the benchmark's own code.

A :class:`Tracer` replaces a function at each of its import sites with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until the pass ends.  A span's
self time is its duration minus the durations of its direct children; the
process is single-threaded, so children never overlap.

Only the traced pass installs anything; untraced passes run the package
exactly as shipped.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from time import perf_counter

# Span name -> layer.  Names are the home module of the wrapped function.
LAYERS = {
    "norlund.d_norlund": "L1_norlund",
    "closed_form.f_odd": "L2_assembly",
    "closed_form.logdet_gjms": "L2_assembly",
    "product_rules.logdet_via_product": "L2_assembly",
    "zexpr.render": "L2_assembly",
    "closed_form.evaluate": "L3_numeric",
    "closed_form.zeta_odd": "L3_numeric",
    "quadrature.logdet_quadrature_result": "L4_quadrature",
    "quadrature.logdet_factor_quadrature": "L4_quadrature",
    "quadrature.integrand": "L4_quadrature",
    "cli.main": "L5_cli",
    "bench.item": "other",
    "bench.cal": None,  # calibration runs: taken out of the pass's time
}
LAYER_NAMES = ("L1_norlund", "L2_assembly", "L3_numeric", "L4_quadrature", "L5_cli", "other")


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, result)`` runs once
        the span has closed, so its cost is not charged to the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, name: str, sites, attr: str, after=None) -> None:
        """Replace ``attr`` on every object in ``sites`` by one traced wrapper
        of the first site's current value."""
        original = getattr(sites[0], attr)
        wrapper = self.wrap(name, original, after)
        for site in sites:
            self._patched.append((site, attr, getattr(site, attr)))
            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, value in reversed(self._patched):
            setattr(site, attr, value)
        self._patched.clear()

    def summary(self) -> dict:
        """Self time and span count per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls)}

    def write(self, path) -> None:
        """Write every span as CSV (index, name, start, end, parent)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")


def layer_shares(self_s: dict[str, float], wall_s: float) -> dict[str, float]:
    """Self time summed per layer, as a share of the traced pass's wall time.

    ``other`` is the benchmark's own per-item work plus anything outside a
    span; the shares add up to 1.  ``wall_s`` excludes the calibration runs.
    """
    shares = dict.fromkeys(LAYER_NAMES, 0.0)
    for name, seconds in self_s.items():
        if LAYERS[name] is not None:
            shares[LAYERS[name]] += seconds / wall_s
    shares["other"] = 1.0 - sum(v for k, v in shares.items() if k != "other")
    return shares
