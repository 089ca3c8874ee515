"""Span tracer that measures kpzlab's layers from outside the package.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
wrapper that records a span (name, start, end, parent span, run id) and the
layer's work counters. kpzlab imports functions by value (``cli.evolve``,
``studies.step``, ``noise.hash_keys_vec``, ``walk.evolve``, ...), so the
wrapper is bound at every module attribute that holds the original object,
not only in the defining module. Methods are wrapped on their class.

Spans live in flat arrays in memory and are written out once, by ``dump``.
Self time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import array
import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _result_size(key: str) -> Callable:
    def count(counts, args, kwargs, result):
        counts[key] += int(np.size(result))
    return count


def _step_counts(counts, args, kwargs, result):
    n = result.values.size
    counts["lattice.step.site_updates"] += n
    # computed, not measured: the (2d+1)-row stencil stack plus the noise row
    counts["lattice.step.bytes_computed"] += (2 * result.geometry.d + 2) * n * 8


def _file_bytes(key: str) -> Callable:
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[0] if args else kwargs["path"])
    return count


# (span name, module, attribute or Class.method, counter or None)
LAYERS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("rng.hash_keys_vec", "kpzlab.rng", "hash_keys_vec",
     _result_size("rng.hash_keys_vec.keys")),
    ("noise.sample_grid", "kpzlab.noise", "NoiseModel.sample_grid",
     _result_size("noise.sample_grid.draws")),
    ("noise.sample_spacetime", "kpzlab.noise", "NoiseModel.sample_spacetime",
     _result_size("noise.sample_spacetime.draws")),
    ("driving.polymer.value_many", "kpzlab.driving", "PolymerDriving.value_many",
     _result_size("driving.polymer.value_many.sites")),
    ("driving.gkpz.value_many", "kpzlab.driving",
     "GeneralizedKpzDriving.value_many",
     _result_size("driving.gkpz.value_many.sites")),
] + [
    ("driving.gradient_many", "kpzlab.driving", f"{cls}.gradient_many", None)
    for cls in ("DrivingFunction", "PolymerDriving", "GeneralizedKpzDriving",
                "EdwardsWilkinsonDriving")
] + [
    ("lattice.step", "kpzlab.lattice", "step", _step_counts),
    ("lattice.evolve", "kpzlab.lattice", "evolve", None),
    ("walk.backward_walk_distribution", "kpzlab.walk",
     "backward_walk_distribution", None),
    ("walk.derivative_fd", "kpzlab.walk", "derivative_fd", None),
    ("rescale.decompose", "kpzlab.rescale", "decompose", None),
    ("rescale.macro_terms", "kpzlab.rescale", "macro_terms", None),
    ("studies.remainder_ratio_study", "kpzlab.studies", "remainder_ratio_study",
     None),
    ("studies.gradient_scaling_study", "kpzlab.studies",
     "gradient_scaling_study", None),
    ("studies.whitenoise_pairing_study", "kpzlab.studies",
     "whitenoise_pairing_study", None),
    ("assumptions.check_assumptions", "kpzlab.assumptions", "check_assumptions",
     None),
    ("config.load_config", "kpzlab.config", "load_config", None),
    ("output.write_csv", "kpzlab.output", "write_csv",
     _file_bytes("output.write_csv.bytes")),
    ("output.write_json", "kpzlab.output", "write_json",
     _file_bytes("output.write_json.bytes")),
    ("cli.main", "kpzlab.cli", "main", None),
]

# Reported per-layer metrics: name -> (unit, better). Each is the median over
# traced workload passes of that pass's value.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "rng.hash_keys_vec.calls": ("count", "lower"),
    "rng.hash_keys_vec.keys": ("count", "lower"),
    "rng.hash_keys_vec.self_s": ("s", "lower"),
    "rng.hash_keys_vec.keys_per_s": ("1/s", "higher"),
    "noise.sample_grid.calls": ("count", "lower"),
    "noise.sample_grid.draws": ("count", "lower"),
    "noise.sample_grid.self_s": ("s", "lower"),
    "noise.sample_spacetime.calls": ("count", "lower"),
    "noise.sample_spacetime.draws": ("count", "lower"),
    "noise.sample_spacetime.self_s": ("s", "lower"),
    "driving.polymer.value_many.calls": ("count", "lower"),
    "driving.polymer.value_many.sites": ("count", "lower"),
    "driving.polymer.value_many.self_s": ("s", "lower"),
    "driving.polymer.value_many.sites_per_s": ("1/s", "higher"),
    "driving.gkpz.value_many.calls": ("count", "lower"),
    "driving.gkpz.value_many.sites": ("count", "lower"),
    "driving.gkpz.value_many.self_s": ("s", "lower"),
    "driving.gkpz.value_many.sites_per_s": ("1/s", "higher"),
    "driving.gradient_many.calls": ("count", "lower"),
    "driving.gradient_many.self_s": ("s", "lower"),
    "lattice.step.calls": ("count", "lower"),
    "lattice.step.site_updates": ("count", "lower"),
    "lattice.step.self_s": ("s", "lower"),
    "lattice.step.us_per_call": ("us", "lower"),
    "lattice.step.bytes_computed": ("B", "lower"),
    "lattice.evolve.calls": ("count", "lower"),
    "lattice.evolve.self_s": ("s", "lower"),
    "walk.backward_walk_distribution.calls": ("count", "lower"),
    "walk.backward_walk_distribution.self_s": ("s", "lower"),
    "walk.derivative_fd.calls": ("count", "lower"),
    "walk.derivative_fd.self_s": ("s", "lower"),
    "rescale.decompose.calls": ("count", "lower"),
    "rescale.decompose.self_s": ("s", "lower"),
    "rescale.macro_terms.calls": ("count", "lower"),
    "rescale.macro_terms.self_s": ("s", "lower"),
    "studies.remainder_ratio_study.self_s": ("s", "lower"),
    "studies.gradient_scaling_study.self_s": ("s", "lower"),
    "studies.whitenoise_pairing_study.self_s": ("s", "lower"),
    "assumptions.check_assumptions.self_s": ("s", "lower"),
    "config.load_config.self_s": ("s", "lower"),
    "output.write_csv.calls": ("count", "lower"),
    "output.write_csv.bytes": ("B", "lower"),
    "output.write_csv.self_s": ("s", "lower"),
    "output.write_json.bytes": ("B", "lower"),
    "output.write_json.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# rate metric -> (work counter, self-time metric)
_RATES = {
    "rng.hash_keys_vec.keys_per_s": ("rng.hash_keys_vec.keys",
                                     "rng.hash_keys_vec.self_s"),
    "driving.polymer.value_many.sites_per_s": (
        "driving.polymer.value_many.sites", "driving.polymer.value_many.self_s"),
    "driving.gkpz.value_many.sites_per_s": (
        "driving.gkpz.value_many.sites", "driving.gkpz.value_many.self_s"),
}


class Tracer:
    """Records spans and counters while installed; one run id per pass."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_run = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]
        self.run_id = -1
        self.counts: Dict[str, int] = defaultdict(int)
        self.run_counts: Dict[int, Dict[str, int]] = {}
        self._undo: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, str] = {}

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id
        self.counts = self.run_counts.setdefault(run_id, defaultdict(int))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        kpz_modules = [m for n, m in list(sys.modules.items())
                       if n == "kpzlab" or n.startswith("kpzlab.")]
        for name, modname, attr, counter in LAYERS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._rebind(cls, meth, self._wrap(cls.__dict__[meth], name,
                                                   counter))
                continue
            orig = getattr(mod, attr)
            self._originals[id(orig)] = name
            wrapper = self._wrap(orig, name, counter)
            for m in kpz_modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, key, wrapper)

    def unbound_sites(self) -> List[str]:
        """Module attributes in kpzlab still holding an unwrapped function."""
        left = []
        for n, m in list(sys.modules.items()):
            if n == "kpzlab" or n.startswith("kpzlab."):
                left += [f"{n}.{key} ({self._originals[id(v)]})"
                         for key, v in vars(m).items()
                         if id(v) in self._originals]
        return left

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.span_name, dtype=np.intc)
        parent = np.frombuffer(self.span_parent, dtype=np.intc)
        run = np.frombuffer(self.span_run, dtype=np.intc)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, run, start, end

    def run_metrics(self) -> Dict[int, Dict[str, float]]:
        """Per-run calls, self time, inclusive time and counters by layer."""
        name, parent, run, start, end = self._columns()
        dur = end - start
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested],
                                minlength=dur.size)
        out = {}
        for r, counts in self.run_counts.items():
            sel = run == r
            k = len(self.names)
            calls = np.bincount(name[sel], minlength=k)
            self_s = np.bincount(name[sel], weights=own[sel], minlength=k)
            incl = np.bincount(name[sel], weights=dur[sel], minlength=k)
            m: Dict[str, float] = {key: 0.0 for key in PER_LAYER}
            for i, layer in enumerate(self.names):
                m[f"{layer}.calls"] = float(calls[i])
                m[f"{layer}.self_s"] = float(self_s[i])
                m[f"{layer}.incl_s"] = float(incl[i])
            m.update({key: float(v) for key, v in counts.items()})
            for rate, (work, busy) in _RATES.items():
                m[rate] = m[work] / m[busy] if m[busy] > 0 else 0.0
            steps = m["lattice.step.calls"]
            m["lattice.step.us_per_call"] = (
                1e6 * m["lattice.step.incl_s"] / steps if steps else 0.0)
            out[r] = m
        return out

    def layer_metrics(self) -> Dict[str, float]:
        """Median over runs of every PER_LAYER metric except the overhead."""
        per_run = list(self.run_metrics().values())
        return {key: statistics.median(m[key] for m in per_run)
                for key in PER_LAYER if key != "trace.overhead_frac"}

    def dump(self, path: str) -> None:
        """Write every span once, as columns of one .npz file."""
        name, parent, run, start, end = self._columns()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, run=run, start=start, end=end)
