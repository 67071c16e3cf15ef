"""Spans and counts recorded around the public functions of nlintsim.

The benchmark installs these wrappers from outside the program, only for the
traced pass, and removes them afterwards. Each call of a wrapped function
becomes a span (name, start, end, parent span, item id, diagnostic flag) kept
in memory until the pass ends and is then written out with the counts taken
at the same boundaries; ``layer_metrics`` turns them into the per-layer
metrics.

A call belongs to the convergence diagnostic when its arguments show it: a
halved resolution, a coarsened grid, or a delay axis shorter than the one the
same function saw first in the item. Everything below a diagnostic span is
diagnostic too.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# span name -> per-layer metric holding the summed self time of those spans
SELF_TIME_METRICS = {
    "coherence.transform": "coherence.transform_s",
    "coherence.build": "coherence.build_s",
    "coherence.envelope": "coherence.envelope_s",
    "coherence.g1_scan": "coherence.g1_scan_self_s",
    "optics_model.reflectivity": "optics_model.reflectivity_s",
    "biphoton.schmidt": "biphoton.schmidt_s",
    "biphoton.jsa": "biphoton.jsa_s",
    "biphoton.marginal": "biphoton.marginal_s",
    "biphoton.spectrum": "biphoton.spectrum_s",
    "oct_scan.bilayer": "oct_scan.bilayer_s",
    "oct_scan.peaks": "oct_scan.peaks_s",
    "oct_scan.numeric": "oct_scan.numeric_self_s",
    "cli_runner.run": "cli_runner.self_s",
    "cli_runner.export": "cli_runner.export_s",
    "cli_runner.parse": "cli_runner.parse_s",
}

COUNT_METRICS = (
    "coherence.delay_pairs",
    "coherence.builds",
    "coherence.omega_s_points",
    "optics_model.reflectivity_points",
    "biphoton.schmidt_calls",
    "biphoton.jsa_calls",
    "biphoton.spectrum_calls",
)

RATIO_METRICS = {
    # ratio -> (count of calls, span name whose distinct argument keys count)
    "coherence.build_distinct_ratio": ("coherence.builds", "coherence.build"),
    "biphoton.jsa_distinct_ratio": ("biphoton.jsa_calls", "biphoton.jsa"),
}


class Tracer:
    """Records spans of the wrapped nlintsim functions for one pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.keys: dict[str, set] = {}
        self.item: dict | None = None
        self._stack: list[dict] = []
        self._axis_seen: dict[str, int] = {}
        self._patches: list[tuple] = []

    # -- item context ------------------------------------------------------
    def begin_item(self, item: dict, grid_points: int, tasks: tuple) -> None:
        """Record spans for ``item`` until ``end_item``; nothing is recorded outside."""
        self.item = {"id": item["id"], "grid_points": grid_points, "tasks": tasks}
        self._axis_seen = {}

    def end_item(self) -> None:
        self.item = None

    # -- spans ---------------------------------------------------------------
    def _call(self, name, fn, signature, diagnostic, count, key, after, args, kwargs):
        if self.item is None:
            return fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        parent = self._stack[-1] if self._stack else None
        span = {
            "name": name,
            "item": self.item["id"],
            "parent": parent["index"] if parent else None,
            "index": len(self.spans),
            "diagnostic": bool(
                (parent is not None and parent["diagnostic"])
                or (diagnostic is not None and diagnostic(a))
            ),
        }
        if key is not None:
            self.keys.setdefault(name, set()).add(key(a))
        if count is not None:
            self.counts[count[0]] += count[1](a)
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            self.counts[after[0]] += after[1](a)
        return result

    def _wrap(self, name, fn, diagnostic=None, count=None, key=None, after=None):
        """Wrap ``fn`` as span ``name``.

        ``diagnostic(args)`` flags a diagnostic call, ``count = (metric,
        fn(args))`` adds to a count before the call and ``after`` likewise once
        it returned; ``key(args)`` is the argument set counted for distinctness.
        """
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(
                name, fn, signature, diagnostic, count, key, after, args, kwargs
            )

        return wrapper

    # -- diagnostic rules ----------------------------------------------------
    def _coarse_grid(self, grid) -> bool:
        return grid.n_points < self.item["grid_points"]

    def _halved(self, resolution: float) -> bool:
        return resolution < self.item["grid_points"] / 2048.0

    def _scan_diagnostic(self, name: str, a: dict) -> bool:
        """Subsampled delay axis (shorter than the item's first) or halved resolution."""
        size = int(np.size(a["delta_z_mm"]))
        first = self._axis_seen.setdefault(name, size)
        return size < first or self._halved(a["resolution"])

    # -- install / remove ----------------------------------------------------
    def install(self) -> None:
        """Wrap the public functions in every nlintsim module that binds them."""
        from nlintsim import biphoton, cli_runner, coherence, oct_scan, optics_model

        t = self
        once = lambda a: 1  # noqa: E731

        def spectrum_diagnostic(a):
            # without its own spectrum task an item calls signal_spectrum only
            # as the joint_spectrum task's reference fallback
            return a["resolution"] < 1.0 or "spectrum" not in t.item["tasks"]

        def build_key(a):
            return tuple(a[k] for k in (
                "crystal", "pump", "sample", "t2_fs", "t1_max_fs", "resolution",
                "extra_idler_delay_fs",
            ))

        functions = [
            (biphoton.joint_spectral_intensity, t._wrap(
                "biphoton.jsa", biphoton.joint_spectral_intensity,
                lambda a: t._coarse_grid(a["grid"]),
                ("biphoton.jsa_calls", once),
                lambda a: (a["kernel"], a["crystal"], a["pump"], a["grid"].n_points,
                           float(a["grid"].omega_s[0]), float(a["grid"].omega_s[-1])),
            )),
            (biphoton.schmidt_analysis, t._wrap(
                "biphoton.schmidt", biphoton.schmidt_analysis,
                lambda a: t._coarse_grid(a["js"].grid),
                ("biphoton.schmidt_calls", once),
            )),
            (biphoton.marginal_spectrum, t._wrap(
                "biphoton.marginal", biphoton.marginal_spectrum,
                lambda a: t._coarse_grid(a["js"].grid),
            )),
            (biphoton.signal_spectrum, t._wrap(
                "biphoton.spectrum", biphoton.signal_spectrum,
                spectrum_diagnostic, ("biphoton.spectrum_calls", once),
            )),
            (coherence.g1_scan, t._wrap(
                "coherence.g1_scan", coherence.g1_scan,
                lambda a: t._scan_diagnostic("g1_scan", a),
            )),
            (coherence.g1_envelope, t._wrap("coherence.envelope", coherence.g1_envelope)),
            (oct_scan.interferogram_bilayer,
             t._wrap("oct_scan.bilayer", oct_scan.interferogram_bilayer)),
            (oct_scan.interferogram_numeric, t._wrap(
                "oct_scan.numeric", oct_scan.interferogram_numeric,
                lambda a: t._scan_diagnostic("numeric", a),
            )),
            (oct_scan.envelope_peaks, t._wrap("oct_scan.peaks", oct_scan.envelope_peaks)),
            (cli_runner.export_series,
             t._wrap("cli_runner.export", cli_runner.export_series)),
            (cli_runner.parse_scenario,
             t._wrap("cli_runner.parse", cli_runner.parse_scenario)),
            (cli_runner.run_scenario, t._wrap("cli_runner.run", cli_runner.run_scenario)),
        ]
        methods = [
            (coherence.PairCorrelator, "__init__", t._wrap(
                "coherence.build", coherence.PairCorrelator.__init__,
                lambda a: t._halved(a["resolution"]),
                ("coherence.builds", once), build_key,
                ("coherence.omega_s_points", lambda a: a["self"].omega_s.size),
            )),
            (coherence.PairCorrelator, "correlation", t._wrap(
                "coherence.transform", coherence.PairCorrelator.correlation, None,
                ("coherence.delay_pairs",
                 lambda a: int(np.size(a["t1_fs"])) * a["self"].omega_s.size),
            )),
        ]
        for cls in (optics_model.UniformSample, optics_model.BilayerSample,
                    optics_model.TabulatedSample):
            methods.append((cls, "reflectivity", t._wrap(
                "optics_model.reflectivity", cls.reflectivity, None,
                ("optics_model.reflectivity_points", lambda a: int(np.size(a["omega_i"]))),
            )))

        modules = [m for n, m in sys.modules.items()
                   if n == "nlintsim" or n.startswith("nlintsim.")]
        for original, wrapper in functions:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for cls, attr, wrapper in methods:
            self._patches.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


    def dump(self) -> dict:
        """What the pass recorded, for writing out when it ends."""
        return {
            "spans": self.spans,
            "counts": self.counts,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced pass (self times, counts, ratios) from ``dump``."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    diagnostic = 0.0
    for span, below in zip(spans, child_time):
        duration = span["end"] - span["start"]
        out[SELF_TIME_METRICS[span["name"]]] += duration - below
        parent = spans[span["parent"]] if span["parent"] is not None else None
        if span["diagnostic"] and not (parent and parent["diagnostic"]):
            diagnostic += duration
    out["cli_runner.diagnostic_s"] = diagnostic
    out.update(trace["counts"])
    for ratio, (count, name) in RATIO_METRICS.items():
        calls = trace["counts"][count]
        out[ratio] = trace["distinct"].get(name, 0) / calls if calls else 0.0
    return out
