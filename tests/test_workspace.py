"""The trial path's workspace: a chunk's arrays come from one grow-only
buffer per thread, which ``_sweep`` frees before each chunk, and a
sum-product flood nests in it after the chunk's views.  A chunk must
give the bytes it gives in a fresh workspace whatever ran in the workspace
before it and whatever the workspace holds, a thread must never share one,
and a warm chunk must take its arrays from memory that is already mapped.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from otfswin import harness
from otfswin.harness import ExperimentConfig, rows_to_csv, run_ce_mse, run_fer
from otfswin.workspace import WORKSPACE, Workspace

_SPA = dict(M=8, N=16, constellation="bpsk", paths=2, k_max=2, l_max=2, k_hat=1,
            detector="spa")
# every stage that writes into the workspace: the transmit chain with and
# without noise-free frames, the estimator, both windows, the optimal TX
# window, the guard downdate and sum-product detection
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


def _fresh_workspace() -> None:
    WORKSPACE.memory, WORKSPACE.used, WORKSPACE.peak = np.empty(0, dtype=np.uint8), 0, 0
    WORKSPACE.marks = []


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_chunk_after_larger_and_smaller_chunks_gives_its_fresh_bytes(name):
    # one chunk and a part of a second; before it, runs of larger and of
    # smaller chunks, and then a workspace filled with NaN bytes: the chunk
    # reads no byte it did not write
    runner, fields = CASES[name]
    chunk = harness._run_chunk(_config(fields, 1000))
    trials = (chunk + 3) // 2
    _fresh_workspace()
    fresh = _run(name, trials)
    for before in (2 * chunk, 1, chunk):
        _run(name, before, seed=5)
        assert _run(name, trials) == fresh
    with WORKSPACE:
        memory = WORKSPACE.memory
        memory[:] = 0xFF
    assert _run(name, trials) == fresh
    # no view past the end and no new memory: every chunk ran in the
    # NaN-filled bytes
    assert WORKSPACE.memory is memory and 0 < WORKSPACE.peak <= memory.size


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_view_is_written_before_it_is_read(name, monkeypatch):
    # views handed out zeroed, and then filled with NaN bytes, give the
    # same rows: no stage, the sum-product flood's included, reads a byte
    # of its arrays before it writes it (a NaN read moves a row or raises)
    view = Workspace._view

    def filled(byte):
        def view_filled(self, shape, dtype=float):
            taken = view(self, shape, dtype)
            taken.reshape(-1).view(np.uint8)[...] = byte
            return taken
        return view_filled

    runner, fields = CASES[name]
    trials = (harness._run_chunk(_config(fields, 1000)) + 3) // 2
    monkeypatch.setattr(Workspace, "_view", filled(0))
    zeroed = _run(name, trials)
    monkeypatch.setattr(Workspace, "_view", filled(0xFF))
    assert _run(name, trials) == zeroed


def test_runs_of_chunks_under_128_kib_leave_the_workspace_closed(monkeypatch):
    # 4-frame 30x20 chunks, as the benchmark's MMSE calls run, take plain
    # arrays; a run of 14 frames, one chunk past 128 KiB, opens it once (the
    # chunk's scopes enter it open)
    opened = []
    enter = Workspace.__enter__

    def spy(self):
        if not self.open:
            opened.append(self)
        enter(self)

    monkeypatch.setattr(Workspace, "__enter__", spy)
    run_fer(ExperimentConfig(snr_db=(10.0, 20.0), trials=2))
    assert opened == []
    run_fer(ExperimentConfig(snr_db=(10.0, 20.0), trials=7))
    assert opened == [WORKSPACE] and not WORKSPACE.open


def test_threads_run_chunks_in_their_own_workspaces():
    # more threads than cores run different links at once, each several
    # times, switching often: a shared workspace would mix their arrays
    names = ("ce-dc-tx", "fer-estimated-dc-rx", "fer-csit", "fer-estimated-spa")
    alone = {name: _run(name, 20) for name in names}
    start = threading.Barrier(len(names))
    buffers = {}

    def run(name):
        start.wait(timeout=60)
        rows = [_run(name, 20) for _ in range(3)]
        buffers[name] = WORKSPACE.memory
        return rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(names)) as pool:
            results = list(pool.map(run, names, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for name, rows in zip(names, results):
        assert rows == [alone[name]] * 3
    memories = list(buffers.values()) + [WORKSPACE.memory]
    assert all(not np.shares_memory(a, b)
               for i, a in enumerate(memories) for b in memories[i + 1:] if a.size and b.size)


def test_a_workspace_hands_out_aligned_views_and_plain_arrays_past_its_end():
    space = Workspace()
    # closed: plain arrays, and nothing is recorded
    assert space.take((3,), np.uint8).base is None and space.peak == 0
    with space:
        # open with no memory yet: plain arrays, and the most taken is recorded
        assert space.take((3,), np.uint8).base is None
        space.take((2, 5), complex)
        assert space.peak == 64 + 160 and space.memory.size == 0
    with space:
        assert space.memory.size == space.peak
        a, b = space.take((3,), np.uint8), space.take((2, 5), complex)
        assert np.shares_memory(a, space.memory) and np.shares_memory(b, space.memory)
        assert b.ctypes.data - space.memory.ctypes.data == 64
        # a scope frees what was taken inside it, however it ends
        space.used = 3
        with pytest.raises(ZeroDivisionError), space.scope():
            assert np.shares_memory(space.take((2, 5), complex), b)
            1 / 0
        assert space.used == 3
        assert np.shares_memory(space.take((2, 5), complex), b)
        assert space.take((1,), np.uint8).base is None
    # leaving the block frees every view, and a closed workspace hands out
    # plain arrays
    assert space.used == 0 and space.take((3,), np.uint8).base is None


def test_a_nested_block_frees_what_it_took_and_leaves_the_workspace_open():
    # a block entered in an open workspace takes its views after those in
    # use and frees them when it ends, however it ends; only the outermost
    # block closes the workspace
    space = Workspace()
    with space:
        space.take((256,), np.uint8)
    with space:
        assert space.scope() is space
        first = space.take((5,), complex)
        first[:] = 1 + 2j
        mark = space.used
        with space:
            second = space.take((5,), complex)
            assert np.shares_memory(second, space.memory)
            assert not np.shares_memory(first, second)
            second[:] = np.nan
        assert space.open and space.used == mark and space.marks == []
        with pytest.raises(ZeroDivisionError), space:
            assert np.shares_memory(space.take((5,), complex), second)
            1 / 0
        assert space.open and space.used == mark and space.marks == []
        assert np.all(first == 1 + 2j)
    assert not space.open and space.used == 0 and space.take((3,), np.uint8).base is None


def test_a_flood_in_an_open_workspace_keeps_the_chunks_views(monkeypatch):
    # sum-product detection inside a chunk takes its arrays after the
    # chunk's views: a filled view keeps its bytes and the workspace's use
    # returns to its value, also when the flood raises, and the report is
    # the one a closed workspace gives
    from otfswin import detection
    from test_batching import assert_same_spa_report, spa_report, spa_stacks

    stack = spa_stacks()["bpsk-large"]
    closed = spa_report(*stack)
    flood = detection._flood
    graphs = []

    def failing(graph, iters, damping):
        graphs.append(graph)
        flood(graph, iters, damping)
        raise RuntimeError("flood failed")

    _fresh_workspace()
    for _ in range(2):
        # the first block records the most taken and the second runs in it
        with WORKSPACE:
            view = WORKSPACE.take((4096,), np.uint8)
            view[:] = 0xA5
            used = WORKSPACE.used
            report = spa_report(*stack)
            assert WORKSPACE.open and WORKSPACE.used == used
            monkeypatch.setattr(detection, "_flood", failing)
            with pytest.raises(RuntimeError, match="flood failed"):
                spa_report(*stack)
            monkeypatch.undo()
            assert WORKSPACE.open and WORKSPACE.used == used
            assert np.all(view == 0xA5)
    assert np.shares_memory(view, WORKSPACE.memory)
    assert np.shares_memory(graphs[-1].likelihood, WORKSPACE.memory)
    assert not WORKSPACE.open and WORKSPACE.marks == []
    assert_same_spa_report(report, closed)


def test_calls_outside_a_chunk_leave_the_workspace_alone():
    # the public functions, failing or not, take plain arrays and record
    # nothing when no chunk is open
    from otfswin import FrameGrid, NumericalFailure, tf_lmmse_detect
    from otfswin.grid import Constellation, map_symbols

    _fresh_workspace()
    grid = FrameGrid(M=30, N=20)
    frames = np.ones((64,) + grid.shape, dtype=complex)
    report = tf_lmmse_detect(frames, frames, np.ones(grid.shape), 0.1, Constellation.qpsk())
    assert report.soft.base is None
    with pytest.raises(NumericalFailure, match="singular"):
        tf_lmmse_detect(frames, 0 * frames, np.ones(grid.shape), 0.0, Constellation.qpsk())
    with pytest.raises(ValueError, match="labels"):
        map_symbols(np.full((64, grid.size), 4), Constellation.qpsk(), grid)
    assert (WORKSPACE.used, WORKSPACE.peak, WORKSPACE.memory.size) == (0, 0, 0)


def test_a_chunk_that_raises_closes_the_workspace(monkeypatch):
    # a stage that fails mid-chunk, after its takes: the run raises, the
    # workspace is closed with nothing in use, and the next run gives its
    # fresh bytes
    from otfswin import NumericalFailure, detection

    fresh = _run("fer-estimated-dc-rx", 5)
    detect = detection.tf_lmmse_detect

    def failing(*args):
        detect(*args)
        WORKSPACE.take((1000,))
        raise NumericalFailure("failing on purpose")

    monkeypatch.setattr(detection, "tf_lmmse_detect", failing)
    with pytest.raises(NumericalFailure, match="on purpose"):
        _run("fer-estimated-dc-rx", 5)
    monkeypatch.undo()
    assert not WORKSPACE.open and WORKSPACE.used == 0
    assert _run("fer-estimated-dc-rx", 5) == fresh


# One run per call in a fresh process: one that has freed a buffer of a few
# MB (as the suite has) raises glibc's mmap threshold and stops trimming, so
# it would not fault without the workspace either.
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
    # two full chunks a call (30x20, or 9b's 8x16 grid with each chunk's
    # sum-product flood nested in it): a warm call maps no new memory, where
    # the chain without the workspace faults in hundreds of pages a call
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


@pytest.mark.parametrize("name, grids", [("ce-rect", 6), ("fer-estimated-dc-rx", 19)])
def test_the_workspace_stays_bounded_as_the_trials_grow(name, grids):
    # the Fig-6 config's ce-mse run and an estimated-CSIR DC-RX LMMSE run
    # on 30x20: runs of 2 and of 20 full chunks peak alike, within a pinned
    # number of the chunk's complex (B, N, M) grids, and hold no more
    runner, fields = CASES[name]
    chunk = harness._run_chunk(_config(fields, 1000))
    grid_bytes = 16 * chunk * _config(fields, 1).grid().size
    peaks = []
    for chunks in (2, 20):
        _fresh_workspace()
        runner(_config(fields, chunks * chunk // 2))
        assert WORKSPACE.memory.size == WORKSPACE.peak
        peaks.append(WORKSPACE.peak)
    assert peaks[0] == peaks[1] <= grids * grid_bytes, (peaks, grid_bytes)
