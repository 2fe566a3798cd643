"""Outside-in span tracer for the fquant layers.

The tracer wraps every public function defined in each layer module and
rebinds it under every name an ``fquant`` module holds it by, so calls made
through ``from .quantize_core import pairwise_distances`` are seen as well as
calls through the defining module.  The ``Codebook`` constructor is wrapped on
the class.  Nothing inside ``src/`` is edited: the spans sit at the layer
boundaries, as seen from the caller.

Each span records calls and self time (its duration minus the time covered
by its child spans).  A few hooks count work at the same
boundaries: distance-pass shapes, sampled paths, splitting fallbacks, SGD
steps and evaluations, and empty-cell repairs from the returned traces.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "fquant"
LAYERS = ("path_space", "process_sim", "quantize_core", "optimize",
          "diagnostics", "oracles", "config", "cli")


class Tracer:
    """Per-op span statistics: ``reset`` before an op, then read ``calls``,
    ``self_time``, ``counters`` and ``top_level_s`` (time in outermost spans)."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [name, child seconds]

    def install(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])
        codebook = importlib.import_module(f"{PACKAGE}.quantize_core").Codebook
        self._rebind(codebook, "__init__",
                     self._wrap("quantize_core.Codebook", codebook.__init__))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                hook(self, bound, parent)
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.self_time[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                else:
                    self.top_level_s += dt
            if name in _RESULT_HOOKS:
                _RESULT_HOOKS[name](self, result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)


# -- counters at layer boundaries ---------------------------------------------


def _on_pairwise(tr: Tracer, a: dict, parent) -> None:
    cb, sample = a["codebook"], a["sample"]
    N, n = len(sample), cb.n
    space = cb.space
    dm = space.d * space.m
    tr.counters["pair_evals"] += N * n
    if space.p == 2.0:
        # cross-term GEMM plus the two weighted squared norms
        tr.counters["flops"] += 2 * N * n * dm + 3 * (N + n) * dm
    else:
        # subtract, abs, power, weight multiply, accumulate per element
        tr.counters["flops"] += 5 * N * n * dm
    # compulsory traffic: read paths and atoms once, write the (N, n) matrix
    tr.counters["bytes"] += 8 * (N * dm + n * dm + N * n)
    if tr.inside("optimize.lloyd_run"):
        tr.counters["lloyd_passes"] += 1


def _on_sample_paths(tr: Tracer, a: dict, parent) -> None:
    tr.counters["paths"] += int(a["n_paths"])


def _on_assign(tr: Tracer, a: dict, parent) -> None:
    if parent == "optimize.splitting_init":
        tr.counters["splitting_fallbacks"] += 1


def _on_distortion(tr: Tracer, a: dict, parent) -> None:
    if parent == "optimize.splitting_init":
        tr.counters["splitting_stages"] += 1
    elif parent == "optimize.sgd_run":
        tr.counters["sgd_evals"] += 1


def _on_optimize_result(tr: Tracer, result) -> None:
    tr.counters["empty_cell_repairs"] += len(result[1].empty_cell_events)


def _on_sgd_result(tr: Tracer, result) -> None:
    tr.counters["sgd_steps"] += result[1].iterations


_HOOKS = {
    "quantize_core.pairwise_distances": _on_pairwise,
    "process_sim.sample_paths": _on_sample_paths,
    "quantize_core.assign": _on_assign,
    "quantize_core.distortion": _on_distortion,
}
_RESULT_HOOKS = {
    "optimize.optimize_codebook": _on_optimize_result,
    "optimize.sgd_run": _on_sgd_result,
}
