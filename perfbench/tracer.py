"""Outside-in layer trace of sqfpairs: spans around each layer's public calls.

Nothing in the package is edited.  Each name is patched where its caller
looks it up (a module attribute or a class attribute), so the program's own
calls go through the wrapper.  Spans are kept in memory; a layer's self time
is the duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import time


# Work of a span, called with the traced function's own arguments.

def _cells(lo, hi, *args, **kwargs):
    return hi - lo


def _floors(self, ns):
    return len(ns)


def _phases(self, h, ns, m):
    return len(ns)


class Tracer:
    def __init__(self):
        # [layer, parent index or -1, start, end, work]; work is 1 per call
        # unless the patch names a work function
        self.spans = []
        self._open = []

    def wrap(self, layer, fn, work=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, open_[-1] if open_ else -1, 0.0, 0.0,
                    work(*args, **kwargs) if work else 1]
            open_.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_.pop()

        return traced

    def patch(self, owner, name, layer, work=None):
        setattr(owner, name, self.wrap(layer, getattr(owner, name), work))

    def install(self):
        """Patch every traced layer; returns the traced cli.main."""
        from sqfpairs import alpha, cli, constants, counting, expsum, sieves

        for module in (counting, expsum):
            layer = module.__name__.rpartition(".")[2]
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    self.patch(module, name, layer)
        self.patch(sieves, "sieve_segment", "sieves.prime", _cells)
        self.patch(counting, "squarefree_flags", "sieves.sqf", _cells)
        self.patch(alpha.AlgebraicAlpha, "floors_bulk", "alpha.floors", _floors)
        self.patch(alpha.AlgebraicAlpha, "floor_times", "alpha.exact")
        self.patch(alpha.AlgebraicAlpha, "frac_parts", "alpha.phases", _phases)
        self.patch(cli, "parse_alpha", "alpha.parse")
        self.patch(constants, "sigma_enclosure", "constants.sigma")
        self.patch(cli, "main", "cli")
        return cli.main

    def summary(self) -> dict:
        """{layer: {"self_s", "calls", "work"}} over all recorded spans."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (layer, _, start, end, work), child_s in zip(self.spans, covered):
            entry = out.setdefault(layer, {"self_s": 0.0, "calls": 0, "work": 0})
            entry["self_s"] += end - start - child_s
            entry["calls"] += 1
            entry["work"] += work
        return out
