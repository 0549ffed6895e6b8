"""Span tracer that times the starkcomb layers from outside the program.

Every public function of each layer module is wrapped at every module
attribute that refers to it, because ``scenarios``, ``cli`` and ``comb``
import names directly (``starkcomb.scenarios.stitched_response``,
``starkcomb.comb.transition_frequency_at``, ...). YAML parsing is timed
through a stand-in for the ``yaml`` module that ``starkcomb.config`` uses.

Spans (name, start, end, parent) are kept in memory in flat arrays, written
out by :meth:`Tracer.dump`, and reduced to per-layer counts and self times
by :meth:`Tracer.metrics`. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("config", "cli", "scenarios", "comb", "field_map", "stark", "receiver", "bloch")
YAML_PARSE = "config.yaml_parse"


class _ModuleStandIn:
    """Delegates to ``module`` except for the attributes given."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every layer's public functions at each module that holds them."""
        modules = {layer: importlib.import_module(f"starkcomb.{layer}") for layer in LAYERS}
        sites = [sys.modules["starkcomb"], *modules.values()]
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for site in sites:
            for attr, value in list(vars(site).items()):
                if id(value) in wrappers:
                    self._patch(site, attr, wrappers[id(value)])
        config = modules["config"]
        if hasattr(config, "yaml"):
            parse = self._wrap(config.yaml.safe_load, YAML_PARSE)
            self._patch(config, "yaml", _ModuleStandIn(config.yaml, safe_load=parse))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)

    def _patch(self, site, attr, value) -> None:
        self._patches.append((site, attr, getattr(site, attr)))
        setattr(site, attr, value)

    def _wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        post = _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if post is not None:
                post(self.counts, result)
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def dump(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )

    def metrics(self, eit_rows: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every span recorded since the last reset."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - children
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0], dtype=np.int64)
        span_layer = layer_of[nid] if nid.size else nid
        layer_self = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS))
        layer_calls = np.bincount(span_layer, minlength=len(LAYERS))

        def count(name):
            return int(np.count_nonzero(nid == self._name_ids[name])) if name in self._name_ids else 0

        def total(name):
            return float(dur[nid == self._name_ids[name]].sum()) if name in self._name_ids else 0.0

        def layer(name):
            return LAYERS.index(name)

        comb_evals = 0
        if "field_map.transition_frequency_at" in self._name_ids:
            evals = nid == self._name_ids["field_map.transition_frequency_at"]
            has_parent = evals & nested
            comb_evals = int(
                np.count_nonzero(span_layer[parent[has_parent]] == layer("comb"))
            )
        loads = count("config.load_config") + count("config.default_config")
        lines = self.counts["comb.lines_placed"]
        points = self.counts["receiver.points"]
        solves = count("bloch.steady_state")
        solve_s = total("bloch.steady_state")
        stitched_s = total("receiver.stitched_response")
        return {
            "config.loads": (loads, "count"),
            "config.load_s": (total("config.load_config") + total("config.default_config"), "s"),
            "config.yaml_parses": (count(YAML_PARSE), "count"),
            "config.yaml_parse_s": (total(YAML_PARSE), "s"),
            "cli.calls": (count("cli.main"), "count"),
            "cli.self_s": (float(layer_self[layer("cli")]), "s"),
            "cli.exit_nonzero": (self.counts["cli.exit_nonzero"] + self.counts["cli.main.raised"], "count"),
            "comb.place_cells_calls": (count("comb.place_cells"), "count"),
            "comb.place_cells_s": (total("comb.place_cells"), "s"),
            "comb.lines_placed": (lines, "count"),
            "comb.evals_per_line": (comb_evals / lines if lines else 0.0, "evals/line"),
            "field_map.calls": (int(layer_calls[layer("field_map")]), "count"),
            "field_map.self_s": (float(layer_self[layer("field_map")]), "s"),
            "stark.calls": (int(layer_calls[layer("stark")]), "count"),
            "stark.self_s": (float(layer_self[layer("stark")]), "s"),
            "receiver.points": (points, "count"),
            "receiver.stitched_response_s": (stitched_s, "s"),
            "receiver.us_per_point": (1e6 * stitched_s / points if points else 0.0, "us"),
            "receiver.beat_power_calls": (count("receiver.beat_power"), "count"),
            "bloch.solves": (solves, "count"),
            "bloch.steady_state_s": (solve_s, "s"),
            "bloch.us_per_solve": (1e6 * solve_s / solves if solves else 0.0, "us"),
            "bloch.solves_per_point": (solves / eit_rows if eit_rows else 0.0, "solves/point"),
            "scenarios.calls": (count("scenarios.run_scenario"), "count"),
            "scenarios.self_s": (float(layer_self[layer("scenarios")]), "s"),
            "scenarios.bytes_written": (self.counts["scenarios.bytes_written"], "B"),
            "scenarios.files_written": (self.counts["scenarios.files_written"], "count"),
        }


# Counters taken from a wrapped function's result, after its span has ended.


def _count_exit(counts, code):
    if code != 0:
        counts["cli.exit_nonzero"] += 1


def _count_placed(counts, plan):
    counts["comb.lines_placed"] += len(plan.entries)


def _count_points(counts, spectrum):
    counts["receiver.points"] += len(spectrum.rows)


def _count_written(counts, paths):
    counts["scenarios.files_written"] += len(paths)
    counts["scenarios.bytes_written"] += sum(Path(p).stat().st_size for p in paths)


_POST = {
    "cli.main": _count_exit,
    "comb.place_cells": _count_placed,
    "receiver.stitched_response": _count_points,
    "scenarios.run_scenario": _count_written,
}
