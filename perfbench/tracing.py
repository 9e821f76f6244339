"""Span recording from outside the program.

`Tracer.install()` swaps every binding that the mdlnfa modules hold for a
traced function (module attributes and module-level dicts such as
`polygon._SCORE_FN` or `equivalence.XI_FAMILIES`) with a wrapper that records
a span: its name, start, end, parent span and whether it returned.  Rebinding
in every importing module matters because `from .numeric import log_binomial`
copies the reference; patching `mdlnfa.numeric` alone would miss the callers.
`uninstall()` restores every original binding.

Spans are aggregated as they close (calls and self time per name, calls per
parent/child pair and outcome), and the raw spans of the first pass are kept
in memory and written out when the run ends.  Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter

import numpy as np

# (span name, module, attribute).  Several xi functions share one span name.
TARGETS = (
    ("numeric.log_binomial", "mdlnfa.numeric", "log_binomial"),
    ("numeric.binomial_tail_log", "mdlnfa.numeric", "binomial_tail_log"),
    ("imaging.flip_noise", "mdlnfa.imaging", "flip_noise"),
    ("imaging.synthesize_squares", "mdlnfa.imaging", "synthesize_squares"),
    ("imaging.rasterize_polygon", "mdlnfa.imaging", "rasterize_polygon"),
    ("imaging.count_region", "mdlnfa.imaging", "count_region"),
    ("square_detect.mdl_score_single", "mdlnfa.square_detect", "mdl_score_single"),
    ("square_detect.nfa_score_single", "mdlnfa.square_detect", "nfa_score_single"),
    ("square_detect.select_hypothesis", "mdlnfa.square_detect", "select_hypothesis"),
    ("polygon.bss_simplify", "mdlnfa.polygon", "bss_simplify"),
    ("polygon.PolygonHypothesis", "mdlnfa.polygon", "PolygonHypothesis.__post_init__"),
    ("polygon.mdl_polygon_score", "mdlnfa.polygon", "mdl_polygon_score"),
    ("polygon.nfa_polygon_score", "mdlnfa.polygon", "nfa_polygon_score"),
    ("polygon.polygon_scores", "mdlnfa.polygon", "polygon_scores"),
    ("lsd.isotropic_orientation_map", "mdlnfa.lsd", "isotropic_orientation_map"),
    ("lsd.region_grow_candidates", "mdlnfa.lsd", "region_grow_candidates"),
    ("lsd.fit_rectangle", "mdlnfa.lsd", "fit_rectangle"),
    ("lsd.score_candidates", "mdlnfa.lsd", "score_candidates"),
    ("lsd.count_aligned", "mdlnfa.lsd", "count_aligned"),
    ("lsd.nfa_rect", "mdlnfa.lsd", "nfa_rect"),
    ("lsd.mdl_rect", "mdlnfa.lsd", "mdl_rect"),
    ("equivalence.check_equivalence", "mdlnfa.equivalence", "check_equivalence"),
    ("equivalence.xi", "mdlnfa.equivalence", "xi_count_ones"),
    ("equivalence.xi", "mdlnfa.equivalence", "xi_longest_run"),
    ("equivalence.xi", "mdlnfa.equivalence", "xi_weighted_sum"),
    ("experiments.run_sweep_single", "mdlnfa.experiments", "run_sweep_single"),
    ("experiments.run_sweep_multi", "mdlnfa.experiments", "run_sweep_multi"),
    ("experiments.run_polygon", "mdlnfa.experiments", "run_polygon"),
    ("experiments.h0_false_alarm_counts", "mdlnfa.experiments", "h0_false_alarm_counts"),
    ("experiments.run_equivalence", "mdlnfa.experiments", "run_equivalence"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

LARGE_N = 10_000   # numeric.log_binomial leaves its table path from here


def _count_large_n(counters, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    if np.ndim(n) == 0 and n >= LARGE_N:
        counters["numeric.log_binomial.large_n_calls"] += 1


def _count_mask_pixels(counters, args, kwargs, result):
    counters["imaging.rasterize_polygon.mask_pixels"] += result.size


def _count_box_pixels(counters, args, kwargs, result):
    # The bounding box that count_aligned scans, recomputed from its inputs.
    rect, omap = args[0], args[1]
    cx, cy = 0.5 * (rect.ax + rect.bx), 0.5 * (rect.ay + rect.by)
    reach = rect.length / 2.0 + rect.width / 2.0 + 1.0
    cols = (min(omap.width - 1, math.ceil(cx + reach))
            - max(0, math.floor(cx - reach)) + 1)
    rows = (min(omap.height - 1, math.ceil(cy + reach))
            - max(0, math.floor(cy - reach)) + 1)
    counters["lsd.count_aligned.box_pixels"] += cols * rows


def _count_candidates(counters, args, kwargs, result):
    counters["lsd.candidates"] += len(result)


def _count_nfa_keep(counters, args, kwargs, result):
    counters["lsd.nfa_keep"] += sum(d.nfa_keep for d in result)


def _count_bss_steps(counters, args, kwargs, result):
    counters["polygon.bss.steps"] += len(result.steps) - 1


def _count_configs(counters, args, kwargs, result):
    counters["equivalence.configs"] += result.total_configs


OBSERVERS = {
    "numeric.log_binomial": _count_large_n,
    "imaging.rasterize_polygon": _count_mask_pixels,
    "lsd.count_aligned": _count_box_pixels,
    "lsd.region_grow_candidates": _count_candidates,
    "lsd.score_candidates": _count_nfa_keep,
    "polygon.bss_simplify": _count_bss_steps,
    "equivalence.check_equivalence": _count_configs,
}


def _resolve(module_name: str, attr: str):
    holder = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        holder = getattr(holder, part)
    return holder, leaf


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.edges = Counter()       # (parent name, name, returned) -> calls
        self.top_level_s = 0.0
        self.recording = True        # keep raw spans (first pass only)
        self.spans = []              # (id, parent id, name, start, end, ok)
        self._stack = []             # open spans: [id, name, child seconds]
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if parent is None:
                    self.top_level_s += duration
                else:
                    parent[2] += duration
                    self.edges[parent[1], name, ok] += 1
                if self.recording:
                    self.spans.append((frame[0], parent[0] if parent else None,
                                       name, start, end, ok))
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, module_name, attr in TARGETS:
            holder, leaf = _resolve(module_name, attr)
            original = getattr(holder, leaf)
            wrapper = self.wrap(name, original)
            if isinstance(holder, type):
                self._set(holder, leaf, wrapper, original)
            else:
                self._rebind(original, wrapper)

    def _set(self, holder, key, value, original):
        setattr(holder, key, value)
        self._undo.append((setattr, holder, key, original))

    def _rebind(self, original, wrapper):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mdlnfa" or name.startswith("mdlnfa.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper, original)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._undo.append((dict.__setitem__, value, dkey,
                                               original))

    def uninstall(self):
        while self._undo:
            restore, holder, key, original = self._undo.pop()
            restore(holder, key, original)

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass values of every per-layer metric, as {name: (value, unit)}."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        log_binomial_calls = self.calls["numeric.log_binomial"]
        out["numeric.log_binomial.large_n_share"] = (
            _share(self.counters["numeric.log_binomial.large_n_calls"],
                   log_binomial_calls), "share")
        for key, unit in (("imaging.rasterize_polygon.mask_pixels", "pixels"),
                          ("lsd.count_aligned.box_pixels", "pixels"),
                          ("lsd.candidates", "count"),
                          ("lsd.nfa_keep", "count"),
                          ("polygon.bss.steps", "count"),
                          ("equivalence.configs", "count")):
            out[key] = (self.counters[key] / passes, unit)
        # A BSS removal is attempted whenever bss_simplify builds a child
        # hypothesis; it is valid when the child's score returned.  The
        # starting polygon's score is the one scored call that is no child.
        bss = "polygon.bss_simplify"
        attempted = (self.edges[bss, "polygon.PolygonHypothesis", True]
                     + self.edges[bss, "polygon.PolygonHypothesis", False])
        scored = (self.edges[bss, "polygon.mdl_polygon_score", True]
                  + self.edges[bss, "polygon.nfa_polygon_score", True]
                  - self.calls[bss])
        out["polygon.children_valid_share"] = (_share(scored, attempted),
                                               "share")
        return out

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _share(part, whole) -> float:
    return part / whole if whole else 0.0
