"""The benchmark's span tracer against the package it wraps.

perfbench/tracing.py replaces module attributes of otfswin that the harness
looks up at call time.  A rename or an import by name in the package would
leave a layer unwrapped (it records no calls) or break the install; wrapping
must never change a row.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import otfswin
from otfswin.harness import ExperimentConfig, run_ce_mse, run_fer

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

_PILOT = dict(M=8, N=16, paths=2, k_max=2, l_max=2, k_hat=1, pilot_power_dbw=30.0,
              snr_db="10, 30", trials=3, seed=4)
CASES = {
    "ce-mse": (run_ce_mse, dict(_PILOT, tx_window="dc"),
               ("estimation.embed_pilot", "estimation.estimate_channel",
                "estimation.measured_ce_mse")),
    "fer-mmse-pilot": (run_fer, dict(_PILOT, csi="estimated-csir", rx_window="dc"),
                       ("estimation.embed_pilot", "estimation.estimate_channel")),
    "fer-spa-pilot": (run_fer, dict(_PILOT, csi="estimated-csir", constellation="bpsk",
                                    detector="spa", spa_taps=3),
                      ("estimation.embed_pilot", "estimation.estimate_channel",
                       "channel.largest_taps", "detection.spa_detect")),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CASES))
def test_traced_rows_equal_untraced_and_layers_record_calls(name):
    tracing = _load_tracing()
    runner, fields, expected = CASES[name]
    config = ExperimentConfig(**fields)
    originals = [getattr(getattr(otfswin, module), attr) for module, attr, _, _ in tracing.LAYERS]
    untraced = runner(config)
    tracer = tracing.Tracer()
    tracer.install(otfswin)
    try:
        traced = runner(config)
    finally:
        tracer.restore()
    assert traced == untraced
    calls = Counter(tracer.names[span[0]] for span in tracer.spans)
    for layer in expected + ("harness._trial_rng", "channel.sample_channel",
                             "channel.transmit_frame", "grid.map_symbols"):
        assert calls[layer] > 0, (layer, dict(calls))
    restored = [getattr(getattr(otfswin, module), attr) for module, attr, _, _ in tracing.LAYERS]
    assert all(a is b for a, b in zip(restored, originals))
