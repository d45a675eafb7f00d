"""Span tracing of otfswin's layers from outside the package.

The tracer replaces module attributes that ``otfswin.harness`` looks up at
call time with timing wrappers.  Each wrapper records one span (layer name,
start, end, parent span) on a stack, so a layer's self time is its span's
duration minus the durations of the spans nested directly inside it.  Spans
stay in memory until the run ends; :meth:`Tracer.write` dumps them.

Diagnostic statistics are read from the wrapped calls' arguments and return
values after the span has closed, so they do not count as layer time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


def _kept_taps(args, kwargs, result):
    return {"kept_taps_mean": float(np.count_nonzero(result))}


def _active_bins(args, kwargs, result):
    x = result.x
    return {"active_frac": float(np.count_nonzero(x > 0)) / x.size}


def _solve_order(args, kwargs, result):
    # the Gram matrix H H^H + C is square in the observation length
    y = args[0] if args else kwargs["y"]
    return {"solve_order": float(np.size(y))}


def _spa_iterations(args, kwargs, result):
    limit = kwargs.get("iters", 20)  # 20 is spa_detect's default
    return {
        "iters_mean": float(result.iterations),
        "converged_frac": float(result.iterations < limit),
    }


# (module under otfswin, attribute the harness looks up, layer name, diagnostics).
# channel.py imports isfft/sfft by name and harness.py imports map_symbols by
# name, so those layers are wrapped where they are looked up.
LAYERS = (
    ("harness", "_trial_rng", "harness._trial_rng", None),
    ("channel", "sample_channel", "channel.sample_channel", None),
    ("channel", "tf_channel", "channel.tf_channel", None),
    ("channel", "effective_dd_channel", "channel.effective_dd_channel", None),
    ("channel", "transmit_frame", "channel.transmit_frame", None),
    ("channel", "isfft", "transforms.isfft", None),
    ("channel", "sfft", "transforms.sfft", None),
    ("harness", "map_symbols", "grid.map_symbols", None),
    ("estimation", "embed_pilot", "estimation.embed_pilot", None),
    ("estimation", "estimate_channel", "estimation.estimate_channel", _kept_taps),
    ("estimation", "measured_ce_mse", "estimation.measured_ce_mse", None),
    ("windows", "optimal_tx_window", "windows.optimal_tx_window", _active_bins),
    ("detection", "noise_covariance", "detection.noise_covariance", None),
    ("channel", "circular_operator", "channel.circular_operator", None),
    ("detection", "mmse_detect", "detection.mmse_detect", _solve_order),
    ("channel", "largest_taps", "channel.largest_taps", None),
    ("detection", "spa_detect", "detection.spa_detect", _spa_iterations),
)

DIAGNOSTICS = (
    "estimation.estimate_channel.kept_taps_mean",
    "windows.optimal_tx_window.active_frac",
    "detection.mmse_detect.solve_order",
    "detection.spa_detect.iters_mean",
    "detection.spa_detect.converged_frac",
)


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack: list[int] = []
        self._samples: dict[str, list[float]] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def traced(self, name: str, fn, diagnose=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        name_idx = self._name_index(name)
        spans, stack, samples = self.spans, self._stack, self._samples

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent)
            if diagnose is not None:
                for key, value in diagnose(args, kwargs, result).items():
                    samples[f"{name}.{key}"].append(value)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every layer in :data:`LAYERS` of the imported otfswin package."""
        for module_name, attr, name, diagnose in LAYERS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.traced(name, original, diagnose))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-span name index, duration and self time, in nanoseconds."""
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        names, dur, parents = table[:, 0], table[:, 2] - table[:, 1], table[:, 3]
        child = np.zeros(len(table), dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return names, dur, dur - child

    def layer_metrics(self, root: str) -> dict[str, float]:
        """calls, self_us and busy_frac per layer, the diagnostic means, and
        ``harness.self_frac``.  The run's wall time is the time spent inside
        the ``root`` spans (the harness calls), so the layers' busy fractions
        and the harness self fraction add up to one."""
        names, dur, self_ns = self._self_times()
        is_root = names == self._name_index(root)
        wall_ns = float(dur[is_root].sum())
        out: dict[str, float] = {}
        for _, _, name, _ in LAYERS:
            sel = names == self._name_index(name)
            calls = int(np.count_nonzero(sel))
            total = float(self_ns[sel].sum())
            out[f"{name}.calls"] = calls
            out[f"{name}.self_us"] = total / calls / 1e3 if calls else 0.0
            out[f"{name}.busy_frac"] = total / wall_ns if wall_ns else 0.0
        for key in DIAGNOSTICS:
            values = self._samples.get(key, [])
            out[key] = float(np.mean(values)) if values else 0.0
        out["harness.self_frac"] = float(self_ns[is_root].sum()) / wall_ns if wall_ns else 0.0
        return out

    def write(self, path) -> None:
        """Dump the spans as CSV: name, start_ns, end_ns, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for i, (name_idx, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[name_idx]},{start},{end},{parent}\n")
