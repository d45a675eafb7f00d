"""A run's chunks and their memory.  A chunk must give the bytes it gives in
a fresh process whatever ran before it, read no byte of an array before it
writes it, and share nothing with a chunk another thread runs.  The runs
whose chunks pass glibc's 128 KiB mmap threshold keep their freed memory on
the heap (``harness._keep_freed_heap``), so a warm chunk maps no new pages;
a run of 4-frame chunks leaves the allocator as it is.  A run's memory stays
bounded as its trials grow.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from otfswin import harness
from otfswin.harness import ExperimentConfig, rows_to_csv, run_ce_mse, run_fer

_SPA = dict(M=8, N=16, constellation="bpsk", paths=2, k_max=2, l_max=2, k_hat=1,
            detector="spa")
# every stage of a chunk: the transmit chain with and without noise-free
# frames, the estimator, both windows, the optimal TX window, the guard
# downdate and sum-product detection
CASES = {
    "ce-rect": (run_ce_mse, dict(snr_db="20, 50")),
    "ce-dc-tx": (run_ce_mse, dict(tx_window="dc", snr_db="20, 50")),
    "fer-estimated-dc-rx": (run_fer, dict(csi="estimated-csir", rx_window="dc",
                                          snr_db="10, 30")),
    "fer-perfect-dc-tx": (run_fer, dict(tx_window="dc", snr_db="10, 30")),
    "fer-csit": (run_fer, dict(csi="csit-csir", tx_window="optimal", snr_db="10, 30")),
    "fer-estimated-spa": (run_fer, dict(_SPA, csi="estimated-csir", tx_window="dc",
                                        snr_db="15, 40")),
    "fer-perfect-spa": (run_fer, dict(_SPA, snr_db="15, 40")),
}


def _config(fields: dict, trials: int, seed: int = 47) -> ExperimentConfig:
    return ExperimentConfig.from_mapping(
        {k: str(v) for k, v in dict(fields, trials=trials, seed=seed).items()})


def _run(name: str, trials: int, seed: int = 47) -> str:
    runner, fields = CASES[name]
    return rows_to_csv(runner(_config(fields, trials, seed)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_chunk_after_larger_and_smaller_chunks_gives_its_fresh_bytes(name):
    # one chunk and a part of a second, after runs of larger and of smaller
    # chunks: nothing a run leaves behind moves a later run's rows
    runner, fields = CASES[name]
    chunk = harness._run_chunk(_config(fields, 1000))
    trials = (chunk + 3) // 2
    fresh = _run(name, trials)
    for before in (2 * chunk, 1, chunk):
        _run(name, before, seed=5)
        assert _run(name, trials) == fresh


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_empty_array_is_written_before_it_is_read(name, monkeypatch):
    # arrays numpy hands out unfilled, zeroed and then filled with NaN
    # bytes, give the same rows: no stage, the sum-product flood's included,
    # reads a byte of an np.empty array before it writes it (a NaN read
    # moves a row or raises)
    empty = np.empty

    def filled(byte):
        def empty_filled(*args, **kwargs):
            array = empty(*args, **kwargs)
            array.reshape(-1).view(np.uint8)[...] = byte
            return array
        return empty_filled

    runner, fields = CASES[name]
    trials = (harness._run_chunk(_config(fields, 1000)) + 3) // 2
    monkeypatch.setattr(np, "empty", filled(0))
    zeroed = _run(name, trials)
    monkeypatch.setattr(np, "empty", filled(0xFF))
    assert _run(name, trials) == zeroed


def test_threads_run_chunks_alone():
    # more threads than cores run different links at once, each several
    # times, switching often: any state the threads shared would mix them
    names = ("ce-dc-tx", "fer-estimated-dc-rx", "fer-csit", "fer-estimated-spa")
    alone = {name: _run(name, 20) for name in names}
    start = threading.Barrier(len(names))

    def run(name):
        start.wait(timeout=60)
        return [_run(name, 20) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(names)) as pool:
            results = list(pool.map(run, names, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for name, rows in zip(names, results):
        assert rows == [alone[name]] * 3


# the perfbench workloads' shapes: 4-frame MMSE calls and 9b's 15 frames
_MMSE_CALLS = [dict(csi="estimated-csir", rx_window="dc", detector="mmse"),
               dict(csi="csit-csir", tx_window="optimal", detector="mmse")]
_SPA_9B = dict(_SPA, pilot_power_dbw=30.0, tx_window="dc", csi="estimated-csir",
               snr_db="15, 25, 40")


_GATE_RUNS = {
    "fer-mmse-pilot-dc": (run_fer, dict(_MMSE_CALLS[0], snr_db="10, 20"), 2, []),
    "fer-mmse-csit": (run_fer, dict(_MMSE_CALLS[1], snr_db="10, 20"), 2, []),
    "ce-fig6": (run_ce_mse, CASES["ce-rect"][1], 27, [1]),
    "fer-spa-9b": (run_fer, _SPA_9B, 5, [1]),
}


@pytest.mark.parametrize("name", list(_GATE_RUNS))
def test_only_runs_past_the_mmap_threshold_keep_freed_heap(name, monkeypatch):
    # a run of 4-frame 30x20 chunks stays under glibc's 128 KiB threshold
    # and leaves the allocator alone; a 54-frame ce-mse chunk passes it, and
    # a sum-product run's floods may at any chunk size: each of those runs
    # asks once
    runner, fields, trials, want = _GATE_RUNS[name]
    calls = []
    monkeypatch.setattr(harness, "_keep_freed_heap", lambda: calls.append(1))
    runner(_config(fields, trials))
    assert calls == want


def test_the_heap_setting_is_made_once_per_process(monkeypatch):
    # however many runs ask, one 16 MiB array is allocated and freed
    empty = np.empty
    sixteen_mib = []

    def spy(shape, *args, **kwargs):
        if shape == 16 * 1024 * 1024:
            sixteen_mib.append(shape)
        return empty(shape, *args, **kwargs)

    harness._keep_freed_heap.cache_clear()
    monkeypatch.setattr(np, "empty", spy)
    for name in ("ce-fig6", "fer-spa-9b", "ce-fig6"):
        runner, fields, trials, _ = _GATE_RUNS[name]
        runner(_config(fields, trials))
    harness._keep_freed_heap()
    assert sixteen_mib == [16 * 1024 * 1024]
    assert harness._keep_freed_heap.cache_info().misses == 1


def test_calls_outside_a_run_leave_the_allocator_alone(monkeypatch):
    # the public functions, failing or not, and a sum-product stack detected
    # directly, never make the heap setting: only a run's sweep makes it
    from otfswin import FrameGrid, NumericalFailure, tf_lmmse_detect
    from otfswin.grid import Constellation, map_symbols
    from test_batching import spa_report, spa_stacks

    calls = []
    monkeypatch.setattr(harness, "_keep_freed_heap", lambda: calls.append(1))
    grid = FrameGrid(M=30, N=20)
    frames = np.ones((64,) + grid.shape, dtype=complex)
    tf_lmmse_detect(frames, frames, np.ones(grid.shape), 0.1, Constellation.qpsk())
    with pytest.raises(NumericalFailure, match="singular"):
        tf_lmmse_detect(frames, 0 * frames, np.ones(grid.shape), 0.0, Constellation.qpsk())
    with pytest.raises(ValueError, match="labels"):
        map_symbols(np.full((64, grid.size), 4), Constellation.qpsk(), grid)
    spa_report(*spa_stacks()["bpsk-large"])
    assert calls == []


def test_a_run_after_a_failing_chunk_gives_its_fresh_bytes(monkeypatch):
    # a stage that fails mid-chunk: the run raises, and the next run gives
    # its fresh bytes
    from otfswin import NumericalFailure, detection

    fresh = _run("fer-estimated-dc-rx", 5)
    detect = detection.tf_lmmse_detect

    def failing(*args):
        detect(*args)
        raise NumericalFailure("failing on purpose")

    monkeypatch.setattr(detection, "tf_lmmse_detect", failing)
    with pytest.raises(NumericalFailure, match="on purpose"):
        _run("fer-estimated-dc-rx", 5)
    monkeypatch.undo()
    assert _run("fer-estimated-dc-rx", 5) == fresh


# One run per call in a fresh process: the suite's own process has freed
# buffers of a few MB, which raised glibc's mmap threshold long ago, so it
# would not fault without the heap setting either.
_FAULTS = """
import json, resource, sys
from otfswin.harness import ExperimentConfig, run_ce_mse, run_fer
runner = {"run_ce_mse": run_ce_mse, "run_fer": run_fer}[sys.argv[1]]
config = ExperimentConfig.from_mapping(json.loads(sys.argv[2]))
for _ in range(3):
    runner(config)
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    runner(config)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with Linux getrusage")
@pytest.mark.parametrize("name", ["ce-rect", "fer-estimated-dc-rx", "fer-csit",
                                  "fer-estimated-spa"])
def test_a_warm_chunk_takes_no_new_page_faults(name):
    # two full chunks a call (30x20, or 9b's 8x16 grid with a sum-product
    # flood in each chunk): a warm call maps no new memory, where a process
    # that unmaps and trims its freed arrays faults in hundreds of pages a
    # call
    runner, fields = CASES[name]
    config = _config(fields, harness._run_chunk(_config(fields, 1000)))
    mapping = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    source = str(Path(harness.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS, runner.__name__, json.dumps(mapping)],
        env=dict(os.environ, PYTHONPATH=source), capture_output=True, text=True, timeout=300,
        check=True)
    faults = json.loads(done.stdout)
    # a few for the interpreter's own objects; one complex 30x20 chunk
    # array alone is 64 pages
    assert sorted(faults)[2] <= 16, faults


@pytest.mark.parametrize("name, grids", [("ce-rect", 6), ("fer-estimated-dc-rx", 19),
                                         ("fer-estimated-spa", 68)])
def test_a_run_stays_bounded_as_the_trials_grow(name, grids):
    # the Fig-6 config's ce-mse run and an estimated-CSIR DC-RX LMMSE run
    # on 30x20, and acceptance 9b's sum-product run on 8x16: runs of 2 and
    # of 20 full chunks peak alike, within a pinned number of the chunk's
    # complex (B, N, M) grids (numpy reports its arrays to tracemalloc).
    # The sum-product chunk peaks at about 64 grids, with its likelihood
    # built in place from one product; a second copy of it passes 68
    runner, fields = CASES[name]
    chunk = harness._run_chunk(_config(fields, 1000))
    grid_bytes = 16 * chunk * _config(fields, 1).grid().size
    runner(_config(fields, chunk))
    peaks = []
    tracemalloc.start()
    try:
        for chunks in (2, 20):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            runner(_config(fields, chunks * chunk // 2))
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= grids * grid_bytes, (peaks, grid_bytes)
    assert abs(peaks[1] - peaks[0]) <= grid_bytes // 4, (peaks, grid_bytes)
