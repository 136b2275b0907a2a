"""Per-layer tracing by wrapping public ``pclyap`` functions from outside.

:meth:`Tracer.install` replaces each listed function, in every loaded
``pclyap`` module that holds a reference to it, with a wrapper that times
the call and counts it; nothing under ``src/`` changes.  A call's self time
is its duration minus the time of wrapped calls made inside it.  Untraced
runs never create a Tracer, so they run the library unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "simplex": ("phase_one",),
    "feasibility": ("feasible", "rho_bound"),
    "lifts": ("sum_lift", "max_lift", "min_lift", "composition_lift",
              "backward_composition_lift", "de_bruijn"),
    "copositive": ("verify_certificate", "transport_certificate"),
    "graphs": ("make_graph", "is_path_complete", "check_assumption_minimal"),
    "jsr": ("hierarchy", "brute_force_bounds", "spectral_radius"),
    "serialize": ("load_json", "dumps"),
    "cli": ("dispatch",),
}


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _tableau(tracer, args, kwargs, _result):
    G = np.asarray(_first(args, kwargs, "G"))
    h = np.asarray(args[1] if len(args) > 1 else kwargs["h"])
    m, n = G.shape if G.ndim == 2 else (0, 0)
    size = 8 * m * (n + m + int(np.count_nonzero(h < 0)) + 1)  # phase_one's dense float tableau
    tracer.extra["simplex.tableau_bytes"] = max(tracer.extra["simplex.tableau_bytes"], size)


def _edges_built(tracer, _args, _kwargs, result):
    tracer.extra["lifts.edges_built"] += len(result.edges)


def _verify_edges(tracer, args, kwargs, _result):
    tracer.extra["copositive.verify_edges"] += len(_first(args, kwargs, "g").edges)


def _levels(tracer, _args, _kwargs, result):
    tracer.extra["jsr.levels_run"] += max(row.level for row in result.rows)


HOOKS = {"simplex.phase_one": _tableau, "copositive.verify_certificate": _verify_edges,
         "jsr.hierarchy": _levels,
         **{f"lifts.{name}": _edges_built for name in LAYERS["lifts"]}}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)
        self._children = []   # time spent in wrapped callees, one slot per open call

    def _wrap(self, key, fn):
        hook = HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._children.pop()
                self.calls[key] += 1
                self.total[key] += elapsed
                self.self_time[key] += elapsed - inner
                if self._children:
                    self._children[-1] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"pclyap.{layer}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pclyap" or name.startswith("pclyap."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"pclyap.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def to_dict(self):
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "extra": dict(self.extra)}

    def merge(self, data):
        """Add the totals of another tracer's :meth:`to_dict` (a child process)."""
        for key, value in data["calls"].items():
            self.calls[key] += value
        for key, value in data["total"].items():
            self.total[key] += value
        for key, value in data["self"].items():
            self.self_time[key] += value
        for key, value in data["extra"].items():
            if key == "simplex.tableau_bytes":
                self.extra[key] = max(self.extra[key], value)
            else:
                self.extra[key] += value
