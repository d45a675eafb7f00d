"""Experiment engine: config parsing, determinism, and protocol claims."""

import ast
import dataclasses
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
import otfswin
from otfswin import ConfigurationError, FrameGrid, NumericalFailure, harness, predicted_mse_floor
from otfswin import windows as win_mod
from otfswin.channel import _dd_response
from otfswin.cli import main
from otfswin.estimation import PilotLayout
from otfswin.grid import Constellation
from otfswin.harness import (
    ExperimentConfig,
    _chunk_size,
    _sweep,
    build_windows,
    ce_rows_csv,
    mean_interval,
    noise_power,
    rows_to_csv,
    rows_to_json,
    run_ce_mse,
    run_fer,
    run_selfcheck,
    wilson_interval,
    write_metadata,
)

TINY_CE = dict(M=16, N=16, paths=2, k_max=2, l_max=2, k_hat=1,
               snr_db="30", trials=40, seed=5)


# SHA-256 of rows_to_csv for small seeded configs, recorded before the
# per-trial chain was shared between ce-mse and fer: every refactor of the
# trial path must reproduce these bytes.
GOLDEN_CE = dict(M=16, N=16, paths=2, k_max=2, l_max=2, k_hat=1,
                 snr_db="10, 30", trials=30, seed=7)
GOLDEN_FER = dict(M=8, N=16, paths=2, k_max=2, l_max=2, k_hat=0,
                  snr_db="6, 16", trials=12, seed=11)
GOLDEN_SPA = dict(GOLDEN_FER, constellation="bpsk", detector="spa", spa_taps=4)
GOLDEN_ROWS = {
    "ce-rect": (run_ce_mse, GOLDEN_CE,
                "7a7866f517e24f73838acfbe0937602ca60f7842524726c02b04df61a7dcf78c"),
    "ce-dc-tx": (run_ce_mse, dict(GOLDEN_CE, tx_window="dc"),
                 "5ba41be7ef755590c60b9b3a015cb97c0bac66bdb9c6d7a1c3ac1af904dc7549"),
    "ce-dc-rx": (run_ce_mse, dict(GOLDEN_CE, rx_window="dc", k_hat=0, dc_sl_db=-30),
                 "53cdd1809259d5dab3dc4d9cd00def6d7f7bac68d7bc7e7727133a668a65f895"),
    "fer-perfect-mmse-rect": (run_fer, GOLDEN_FER,
                              "cbe0258222ad4e92fa68119dce8bcbce9db858a9c2eeb59403521782401bba34"),
    "fer-perfect-mmse-dc-rx": (run_fer, dict(GOLDEN_FER, rx_window="dc"),
                               "90b48586670a095f98c909a23103bf4dc752e3ee67e54e5b0cd1dc1a54745c2b"),
    "fer-perfect-spa-dc-tx": (run_fer, dict(GOLDEN_SPA, tx_window="dc"),
                              "27942c3b573893dc956dad6a8093e7d1f97a8ef931819431b786cef7772bd75d"),
    "fer-estimated-mmse-dc-tx": (run_fer, dict(GOLDEN_FER, csi="estimated-csir",
                                               tx_window="dc", k_hat=1),
                                 "0a94bcd7e86ea8f9c46144dc332fdd8a7e710df2fe6280adb7548e2698acd8f7"),
    "fer-estimated-mmse-dc-rx": (run_fer, dict(GOLDEN_FER, csi="estimated-csir",
                                               rx_window="dc"),
                                 "6a1b9cae6cdee639d6f650340b22fe0d3d3ad69662fef9ddb5c83b7c1c26c4d0"),
    "fer-estimated-spa-rect": (run_fer, dict(GOLDEN_SPA, csi="estimated-csir",
                                             pilot_power_dbw=20),
                               "ab8ebdc9f1b215ffca3c9019939c883f1d21b88636d48751891211e0e1041bbc"),
    "fer-csit-mmse-optimal": (run_fer, dict(GOLDEN_FER, csi="csit-csir", tx_window="optimal"),
                              "765bbd2fd78c03dbfe530bebce47b49b69908e095eac27c3d1f198da1739d387"),
    "fer-csit-mmse-dc-rx": (run_fer, dict(GOLDEN_FER, csi="csit-csir", rx_window="dc"),
                            "7b89c988e711e85d3df0e801796e2bb43b6a61744330774444f6fd9c656b0568"),
    "fer-csit-spa-optimal": (run_fer, dict(GOLDEN_SPA, csi="csit-csir", tx_window="optimal"),
                             "4cd483ac34d36ede2c8e357851a8d662824e0c402c59e411014036936d4c6c9b"),
}


class TestGoldenRows:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ROWS))
    def test_seeded_rows_are_byte_identical(self, name):
        runner, fields, digest = GOLDEN_ROWS[name]
        cfg = ExperimentConfig.from_mapping({k: str(v) for k, v in fields.items()})
        csv = rows_to_csv(runner(cfg))
        assert hashlib.sha256(csv.encode()).hexdigest() == digest, csv


# SHA-256 over the raw bytes of every SNR point's per-trial values of the
# GOLDEN_ROWS configs: ce-mse squared errors as float64, fer bit error counts
# as int64, recorded before the detectors' record types were removed.  Rows
# print 12 significant digits and cannot see a last-bit change in a trial;
# these digests can.  The perfect-CSIR MMSE configs share one digest with the
# CSIT rect-TX one: the RX window changes nothing under known CSI.
GOLDEN_TRIALS = {
    "ce-dc-rx":
        "a33200364a481eee7acba11fe9c5edbf650574c5fce2f4f24ae2fec5fb380b36",
    "ce-dc-tx":
        "a0278312216ac89ae3ec490941c8df27d4b71f09301f74880387be0cd8ccda56",
    "ce-rect":
        "a86b5bc1af0b8edcba8264cf61b9975c05b735db0033cdfb0ef88c19c703cd09",
    "fer-csit-mmse-dc-rx":
        "51200c5b90230e1390e7d6565f09fa3f7229fab0e3592dd1229ece3c85ef5cc0",
    "fer-csit-mmse-optimal":
        "7e4167d0764dcf53dcd039d464fe938c1c376a34d2db5e9a69fc4c390f326d1e",
    "fer-csit-spa-optimal":
        "6c2ca61de379028987c5aadb7f19f9092a40b9d6a6bd1b657a67e87500589d0c",
    "fer-estimated-mmse-dc-rx":
        "2c058aa0483fb0b0b811d09710f7b890f3d76d5f4ba5dcad96b5975e44f4ec3a",
    "fer-estimated-mmse-dc-tx":
        "b5e8e3f50b5a8cc05d38c078b8c7c20e688b0370b9c43256e55d5270f05ab8ae",
    "fer-estimated-spa-rect":
        "c08d886cf09ba8b3ee4050e9e0126cb786e7b1645be19f66d5b13ac5d15c984a",
    "fer-perfect-mmse-dc-rx":
        "51200c5b90230e1390e7d6565f09fa3f7229fab0e3592dd1229ece3c85ef5cc0",
    "fer-perfect-mmse-rect":
        "51200c5b90230e1390e7d6565f09fa3f7229fab0e3592dd1229ece3c85ef5cc0",
    "fer-perfect-spa-dc-tx":
        "448091220ecaa52cf89a16d8588d1db559cc3b60933c149e600086e47ef9932b",
}


class TestGoldenTrials:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ROWS))
    def test_per_trial_values_are_bitwise_identical(self, name, monkeypatch):
        from otfswin import harness

        runner, fields, _ = GOLDEN_ROWS[name]
        dtype = np.float64 if runner is run_ce_mse else np.int64
        sweep, digest = harness._sweep, hashlib.sha256()

        def spy_sweep(config, chunk):
            # piece by piece, the digest of all the run's values in order
            for snr_index, values in sweep(config, chunk):
                assert values.dtype == dtype
                digest.update(values.tobytes())
                yield snr_index, values

        monkeypatch.setattr(harness, "_sweep", spy_sweep)
        runner(ExperimentConfig.from_mapping({k: str(v) for k, v in fields.items()}))
        assert digest.hexdigest() == GOLDEN_TRIALS[name]


# the golden links whose receiver knows the TF gains and runs LMMSE
KNOWN_CSI_MMSE = ("fer-perfect-mmse-rect", "fer-perfect-mmse-dc-rx", "fer-csit-mmse-optimal",
                  "fer-csit-mmse-dc-rx")


class TestKnownCsiTfDetection:
    """A known-CSI LMMSE link detects on the RX-windowed TF grid the channel
    produced; the dense LMMSE on the DD frame it no longer forms gives the
    same decisions.  The soft values move only at the rounding level, which
    differs between numpy's SIMD levels, so this runs at both."""

    @pytest.mark.parametrize("name", KNOWN_CSI_MMSE)
    def test_decisions_equal_the_dense_dd_detector(self, name, monkeypatch):
        # the harness looks the detector up on its module at call time
        from otfswin import detection

        _, fields, _ = GOLDEN_ROWS[name]
        detect, calls = detection.tf_lmmse_detect, []

        def spy(*args):
            report = detect(*args)
            calls.append((args, report))
            return report

        monkeypatch.setattr(detection, "tf_lmmse_detect", spy)
        run_fer(ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(fields, snr_db="0, 10, 20, 30, 40").items()}))
        monkeypatch.undo()
        assert calls
        for (received, gains, rx, n0, constellation, layout), tf in calls:
            assert layout is None
            frames = zip(otfswin.sfft(received), gains, np.broadcast_to(rx, received.shape),
                         np.broadcast_to(n0, len(received)), tf.soft, tf.hard_indices)
            for y, g, v, p, soft, hard in frames:
                dense = otfswin.mmse_detect(
                    y, otfswin.circular_operator(_dd_response(g)),
                    otfswin.noise_covariance(v, p), constellation)
                assert np.array_equal(hard, dense.hard_indices)
                assert np.linalg.norm(soft - dense.soft) <= 1e-8 * np.linalg.norm(dense.soft)

    @pytest.mark.parametrize("fields", [{}, dict(csi="csit-csir", tx_window="optimal")],
                             ids=["perfect-csir", "csit-csir"])
    def test_a_chunk_makes_one_transform_each_way(self, fields, monkeypatch):
        # looked up on their modules: the channel modulates, the detector
        # returns its estimate to the DD domain, and nothing else transforms
        from otfswin import channel, detection

        assert not hasattr(detection, "isfft")
        calls = []
        # the LMMSE detector demodulates with its own module's sfft
        for module, name in ((channel, "isfft"), (channel, "sfft"), (detection, "sfft")):
            def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        # 2 points of 2 trials: one chunk
        run_fer(ExperimentConfig(**fields, snr_db=(10.0, 20.0), trials=2))
        assert sorted(calls) == ["isfft", "sfft"]


# the golden links whose receiver estimates the channel from the pilot and
# runs LMMSE
ESTIMATED_CSI_MMSE = ("fer-estimated-mmse-dc-tx", "fer-estimated-mmse-dc-rx")


class TestEstimatedCsiTfDetection:
    """An estimated-CSIR LMMSE link reads the pilot window of the TF grid,
    cancels the pilot per TF bin and detects there; the DD chain it replaced
    (the DD frame, the pilot cancelled in the DD domain, the guard solved on
    the dense operator) gives the same decisions.  The soft values move only
    at the rounding level, which differs between numpy's SIMD levels, so
    this runs at both."""

    @pytest.mark.parametrize("name", ESTIMATED_CSI_MMSE)
    def test_decisions_equal_the_dd_chain(self, name, monkeypatch):
        from otfswin import detection, estimation

        _, fields, _ = GOLDEN_ROWS[name]
        estimate, detect = estimation.estimate_channel, detection.tf_lmmse_detect
        received, calls = [], []

        def spy_estimate(r, layout, n0):
            received.append(r)
            return estimate(r, layout, n0)

        def spy_detect(*args):
            report = detect(*args)
            calls.append((args, report))
            return report

        monkeypatch.setattr(estimation, "estimate_channel", spy_estimate)
        monkeypatch.setattr(detection, "tf_lmmse_detect", spy_detect)
        run_fer(ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(fields, snr_db="0, 10, 20, 30, 40").items()}))
        monkeypatch.undo()
        assert calls and len(received) == len(calls)
        for r, ((_, _, rx, n0, constellation, layout), tf) in zip(received, calls):
            soft = oracles.dd_pilot_lmmse(otfswin.sfft(r), rx, n0, layout)
            hard = constellation.nearest_indices(soft).reshape(soft.shape)
            assert np.array_equal(tf.hard_indices, hard)
            error = np.linalg.norm(tf.soft - soft, axis=-1)
            assert np.all(error <= 1e-12 * np.linalg.norm(soft, axis=-1))

    @pytest.mark.parametrize("fields", [
        dict(M=8, N=16, constellation="bpsk", paths=2, k_max=2, l_max=2, k_hat=1,
             tx_window="dc"),
        dict(M=8, N=16, constellation="qpsk", paths=2, k_max=2, l_max=2, k_hat=1,
             spa_taps=4, pilot_power_dbw=20),
    ], ids=["9b", "qpsk-rect"])
    def test_spa_decisions_equal_the_dd_cancellation(self, fields, monkeypatch):
        # two chunks, of 64 and 11 frames: SPA demodulates the grids the
        # pilot was cancelled from per TF bin, which differ from the DD
        # frames y - x_p roll(taps) it took before by rounding alone and
        # give the same decisions
        from otfswin import detection, estimation

        estimate, detect = estimation.estimate_channel, detection.spa_detect
        estimates, calls = [], []

        def spy_estimate(r, layout, n0):
            estimates.append((r, layout, estimate(r, layout, n0)))
            return estimates[-1][2]

        def spy_detect(y, channel, *args, **kwargs):
            # the estimate reaches SPA as estimate_channel returned it
            assert channel.taps is estimates[-1][2]
            report = detect(y, channel, *args, **kwargs)
            calls.append(((y, channel, *args), kwargs, report))
            return report

        monkeypatch.setattr(estimation, "estimate_channel", spy_estimate)
        monkeypatch.setattr(detection, "spa_detect", spy_detect)
        run_fer(ExperimentConfig(**fields, detector="spa", csi="estimated-csir",
                                 snr_db=(0.0, 10.0, 20.0, 30.0, 40.0), trials=15, seed=23))
        monkeypatch.undo()
        assert calls and len(estimates) == len(calls)
        for (r, layout, _), ((y, channel, *args), kwargs, report) in zip(estimates, calls):
            want = oracles.dd_cancel_pilot(otfswin.sfft(r), channel.taps, layout)
            error = np.linalg.norm(y - want, axis=(-2, -1))
            assert np.all(error <= 1e-12 * np.linalg.norm(want, axis=(-2, -1)))
            oracle = detect(want, channel, *args, **kwargs)
            assert np.array_equal(report.hard_indices, oracle.hard_indices)

    def test_a_chunk_makes_one_transform_each_way_and_ten_ffts(self, monkeypatch):
        # the channel modulates (2 FFT calls), the estimator reads the pilot
        # window (2), the estimate's gains take 2, the guard downdate one
        # delay IFFT and one delay FFT, and the detector's sfft 2; the DD
        # chain made three isfft and three sfft calls, and 20 FFT calls
        from otfswin import channel, detection, estimation

        config = ExperimentConfig(csi="estimated-csir", rx_window="dc", snr_db=(10.0, 20.0),
                                  trials=2)
        # the layout, whose pilot_tf is one isfft, is built with the link
        harness._link(config, pilot=True)
        transforms, ffts = [], []
        for module, name in ((channel, "isfft"), (channel, "sfft"), (detection, "sfft"),
                             (estimation, "isfft")):
            def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
                transforms.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        for name in ("fft", "ifft"):
            def spy_fft(*args, _original=getattr(np.fft, name), **kwargs):
                ffts.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy_fft)
        # 2 points of 2 trials: one chunk
        run_fer(config)
        assert sorted(transforms) == ["isfft", "sfft"]
        assert len(ffts) == 10


_CHUNK_GRID = dict(M=30, N=20, paths=5, k_max=3, l_max=4, k_hat=1, pilot_power_dbw=30.0)
_CHUNK_SPA = dict(constellation="bpsk", detector="spa", spa_taps=3)
CHUNK_CASES = {
    "ce-rect": (run_ce_mse, oracles.per_trial_ce_mse, dict(snr_db="15, 40")),
    "ce-dc-tx": (run_ce_mse, oracles.per_trial_ce_mse, dict(snr_db="15, 40", tx_window="dc")),
    "ce-dc-rx": (run_ce_mse, oracles.per_trial_ce_mse, dict(snr_db="15, 40", rx_window="dc")),
    "fer-perfect-mmse": (run_fer, oracles.per_trial_fer, dict(snr_db="8", rx_window="dc")),
    "fer-perfect-spa": (run_fer, oracles.per_trial_fer,
                        dict(_CHUNK_SPA, snr_db="8", tx_window="dc")),
    "fer-estimated-mmse": (run_fer, oracles.per_trial_fer,
                           dict(snr_db="12", csi="estimated-csir", tx_window="dc")),
    "fer-estimated-spa": (run_fer, oracles.per_trial_fer,
                          dict(_CHUNK_SPA, snr_db="12", csi="estimated-csir")),
    "fer-csit-mmse": (run_fer, oracles.per_trial_fer,
                      dict(snr_db="8", csi="csit-csir", tx_window="optimal")),
    "fer-csit-spa": (run_fer, oracles.per_trial_fer,
                     dict(_CHUNK_SPA, snr_db="8", csi="csit-csir", tx_window="optimal")),
}


class TestChunkBoundaries:
    """Trial counts around one and two chunks give the rows of the
    frame-by-frame chain, byte for byte."""

    CHUNK = _chunk_size(FrameGrid(M=30, N=20))

    def test_chunk_size_on_the_fig6_grid(self):
        assert self.CHUNK == 54

    def test_sum_product_runs_keep_the_smaller_chunk(self):
        # 128 KiB of 30x20 frames: its flood sweeps a chunk's frames together
        assert self.run_chunk(CHUNK_CASES["fer-perfect-spa"][2]) == 13
        assert self.run_chunk(CHUNK_CASES["fer-perfect-mmse"][2]) == self.CHUNK

    @pytest.mark.parametrize("paths, chunk", [(1308, CHUNK), (1309, CHUNK // 2),
                                              (2638, CHUNK // 2), (2639, 13), (5502, 13)])
    def test_paths_past_a_chunks_budget_halve_the_chunk(self, paths, chunk):
        # 1308 paths' draws fit a full 30x20 chunk's path budget and 2638 a
        # half chunk's; up to the config ceiling of 5502 a run takes 128 KiB
        assert self.run_chunk(dict(CHUNK_CASES["ce-rect"][2], paths=paths)) == chunk

    @staticmethod
    def run_chunk(fields: dict) -> int:
        """The chunk a long run of a case's link takes."""
        return harness._run_chunk(ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(_CHUNK_GRID, **fields, trials=1000).items()}))

    @pytest.mark.parametrize("chunks, offset", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["B-1", "B", "B+1", "2B+1"])
    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_rows_equal_the_per_trial_chain(self, name, chunks, offset):
        runner, oracle, fields = CHUNK_CASES[name]
        trials = chunks * self.run_chunk(fields) + offset
        cfg = ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(_CHUNK_GRID, **fields, trials=trials, seed=31).items()})
        assert rows_to_csv(runner(cfg)) == rows_to_csv(oracle(cfg))

    @pytest.mark.parametrize("offset, snr_db", [(-1, "10, 20, 35"), (1, "10, 20, 35"),
                                                (1, "30, 30, 10")],
                             ids=["-1", "1", "repeated-point"])
    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_chunks_straddling_snr_points_give_the_per_trial_rows(self, name, offset, snr_db):
        # three points of B - 1 or B + 1 trials: every chunk boundary but
        # the last falls inside a point, and chunks mix two noise powers.
        # A point listed twice is two points, each with its own trials
        runner, oracle, fields = CHUNK_CASES[name]
        trials = self.run_chunk(fields) + offset
        cfg = ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(_CHUNK_GRID, **dict(fields, snr_db=snr_db),
                                         trials=trials, seed=37).items()})
        assert rows_to_csv(runner(cfg)) == rows_to_csv(oracle(cfg))

    @pytest.mark.parametrize("name", ["ce-rect", "fer-estimated-mmse", "fer-estimated-spa"])
    def test_transmit_hands_the_receiver_the_tf_grid(self, name):
        # every receiver takes the RX-windowed TF grids r of a chunk: their
        # sfft is bit for bit the DD frame of each trial of the per-trial
        # chain, on a chunk that spans two SNR points
        _, _, fields = CHUNK_CASES[name]
        cfg = ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(_CHUNK_GRID, **dict(fields, snr_db="10, 35"),
                                         trials=self.CHUNK - 1, seed=41).items()})
        link = harness._link(cfg, pilot=True)
        cells = [(i, t) for i in range(2) for t in range(cfg.trials)][:self.CHUNK]
        n0 = np.array([noise_power(cfg.snr_db[i]) for i, _ in cells])
        labels, r, _, _ = harness._transmit(link, cells, n0)
        assert r.shape == (self.CHUNK,) + link.grid.shape
        assert labels.shape == (self.CHUNK, int(link.layout.data_mask.sum()))
        for frame_labels, y, (i, t), p in zip(labels, otfswin.sfft(r), cells, n0):
            want_labels, want_y, _, _ = oracles.per_trial_transmit(link, i, t, p)
            assert np.array_equal(frame_labels, want_labels)
            assert np.array_equal(y, want_y)

    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_the_receiver_gets_the_windowed_gains_only_where_it_reads_them(
            self, name, monkeypatch):
        # an estimated-CSIR fer run never forms joint * H_tf; every other
        # case hands its receiver (ce-mse: its truth) the windowed gains of
        # each trial, bit for bit, and a fer receiver gets each trial's RX
        # window
        from otfswin import channel

        runner, _, fields = CHUNK_CASES[name]
        cfg = ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(_CHUNK_GRID, **dict(fields, snr_db="10, 35"),
                                         trials=self.CHUNK - 1, seed=43).items()})
        chunks, handed, formed = [], [], []
        transmit, windowed = harness._transmit, win_mod.WindowPair.windowed

        def spy_transmit(link, cells, n0):
            chunks.append((link, cells, n0))
            return transmit(link, cells, n0)

        def spy_windowed(windows, tf_gains):
            formed.append(tf_gains.shape)
            return windowed(windows, tf_gains)

        if runner is run_fer:
            detect_frames = harness._detect_frames

            def spy_receiver(link, r, rx_window, n0, gains):
                handed.append((np.broadcast_to(rx_window, r.shape), gains))
                return detect_frames(link, r, rx_window, n0, gains)

            monkeypatch.setattr(harness, "_detect_frames", spy_receiver)
        else:
            dd_response = channel._dd_response

            def spy_receiver(gains, delays=None):
                handed.append((None, gains))
                return dd_response(gains, delays)

            monkeypatch.setattr(channel, "_dd_response", spy_receiver)
        monkeypatch.setattr(harness, "_transmit", spy_transmit)
        monkeypatch.setattr(win_mod.WindowPair, "windowed", spy_windowed)
        runner(cfg)
        monkeypatch.undo()
        estimated_fer = runner is run_fer and cfg.csi == "estimated-csir"
        assert len(chunks) == len(handed) == -(-2 * cfg.trials // harness._run_chunk(cfg))
        assert len(formed) == (0 if estimated_fer else len(chunks))
        for (link, cells, n0), (rx, gains) in zip(chunks, handed):
            if estimated_fer:
                assert gains is None
            else:
                assert gains.shape == (len(cells),) + link.grid.shape
            for b, ((i, t), p) in enumerate(zip(cells, n0)):
                _, _, windows, tf_gains = oracles.per_trial_transmit(link, i, t, p)
                if not estimated_fer:
                    want = oracles.windowed_gains(windows, tf_gains)
                    assert gains[b].tobytes() == want.tobytes()
                if rx is not None:
                    assert rx[b].tobytes() == windows.rx.tobytes()

    def test_chunks_take_cells_across_snr_points(self):
        cfg = ExperimentConfig(snr_db=(10.0, 20.0, 30.0), trials=self.CHUNK - 1)
        calls = []

        def chunk(cells, n0):
            calls.append((cells, n0.tolist()))
            return np.array([100 * snr_index + t for snr_index, t in cells])

        pieces = [(i, values.tolist()) for i, values in _sweep(cfg, chunk)]
        chunk = self.CHUNK
        # one piece per run of a point's cells in a chunk, and each point's
        # pieces joined give its values in trial order
        assert [(i, len(values)) for i, values in pieces] == [
            (0, chunk - 1), (1, 1), (1, chunk - 2), (2, 2), (2, chunk - 3)]
        for i in range(len(cfg.snr_db)):
            joined = [v for j, values in pieces if j == i for v in values]
            assert joined == [100 * i + t for t in range(cfg.trials)]
        assert [len(cells) for cells, _ in calls] == [chunk, chunk, chunk - 3]
        assert calls[0][0][-1] == (1, 0)
        assert calls[1][0][-3:] == [(1, chunk - 2), (2, 0), (2, 1)]
        for cells, n0 in calls:
            assert n0 == [noise_power(cfg.snr_db[snr_index]) for snr_index, _ in cells]

    def test_the_transmit_side_runs_once_per_chunk(self, monkeypatch):
        # looked up on their modules, where a tracer wraps them
        from otfswin import channel, windows

        calls = []
        for module, name in ((channel, "sample_channel"), (windows, "optimal_tx_window")):
            def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        # 2 points of B - 1 trials: two chunks
        run_fer(ExperimentConfig(csi="csit-csir", tx_window="optimal", snr_db=(10.0, 20.0),
                                 trials=self.CHUNK - 1))
        assert calls == ["sample_channel", "optimal_tx_window"] * 2

    def test_the_benchmark_mmse_calls_run_one_chunk(self):
        # 2 points of 2 trials: one chunk of 4 frames, not one chunk per point
        cfg = ExperimentConfig(snr_db=(10.0, 20.0), trials=2)
        chunks = []

        def chunk(cells, n0):
            chunks.append(cells)
            return np.zeros(len(cells))

        list(_sweep(cfg, chunk))
        assert chunks == [[(0, 0), (0, 1), (1, 0), (1, 1)]]

    @pytest.mark.parametrize("name", ["ce-rect", "fer-estimated-mmse"])
    def test_a_multi_word_seed_gives_the_per_trial_rows(self, name):
        # 2**32 + 7 is two seed words; the per-trial chain seeds each trial
        # with numpy's own list coercion, not the harness's _trial_rng
        runner, oracle, fields = CHUNK_CASES[name]
        cfg = ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(_CHUNK_GRID, **dict(fields, snr_db="10, 35"),
                                         trials=self.CHUNK + 1, seed=2**32 + 7).items()})
        assert rows_to_csv(runner(cfg)) == rows_to_csv(oracle(cfg))


class TestTrialStreams:
    """Each trial's stream is the one numpy seeds from the list
    ``[seed, snr_index, trial]``, for seeds and indices of any word count."""

    # one chunk mixes SNR indices and trials of one and two words; with the
    # seeds below a cell has 3 to 8 words, past the 4-word entropy pool
    CELLS = [(snr_index, trial) for trial in (0, 1, 12, 2**32 - 1, 2**32, 2**32 + 3)
             for snr_index in (0, 2, 2**32)]

    # seeds of 1, 1, 1, 2, 3 and 4 words
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30])
    def test_trial_rng_is_the_list_seeded_stream(self, seed):
        config = ExperimentConfig(seed=seed, trials=1, snr_db="10")
        generators = harness._trial_rng(config, self.CELLS)
        assert len(generators) == len(self.CELLS)
        for got, (snr_index, trial) in zip(generators, self.CELLS):
            want = np.random.default_rng([seed, snr_index, trial])
            assert got.bit_generator.state == want.bit_generator.state
            assert np.array_equal(got.random(3), want.random(3))
            assert np.array_equal(got.integers(0, 2**62, 3), want.integers(0, 2**62, 3))
            assert np.array_equal(got.standard_normal(3), want.standard_normal(3))
            assert np.array_equal(got.integers(0, 7, 3), want.integers(0, 7, 3))
            assert got.bit_generator.state == want.bit_generator.state

    def test_a_cell_alone_gets_its_chunk_stream(self):
        config = ExperimentConfig(seed=2**32 + 7, trials=1, snr_db="10")
        chunk = harness._trial_rng(config, self.CELLS)
        for cell, in_chunk in zip(self.CELLS, chunk):
            (alone,) = harness._trial_rng(config, [cell])
            assert alone.bit_generator.state == in_chunk.bit_generator.state

    # entropy widths 3, 4, 5 and 6 words: one-, two- and three-word seeds,
    # and past the pool a two-word trial index
    WIDTHS = [(5, 0, 3), (2**32 + 7, 0, 4), (2**70 + 3, 0, 5), (2**70 + 3, 2**32, 6)]

    @pytest.mark.parametrize("count", [4, 15, 16, 54])
    @pytest.mark.parametrize("seed, first_trial, width", WIDTHS)
    def test_mixed_pools_are_the_seed_sequence_pools(self, seed, first_trial, width, count):
        cells = list(itertools.product(range(3), range(first_trial, first_trial + 18)))[:count]
        entropy = np.array([harness._seed_words(seed) + harness._seed_words(snr_index)
                            + harness._seed_words(trial) for snr_index, trial in cells],
                           dtype=np.uint32)
        assert entropy.shape == (count, width)
        want = np.array([np.random.SeedSequence(row).pool for row in entropy])
        got = harness._mixed_pools(np.ascontiguousarray(entropy.T))
        assert got.dtype == np.uint32 and np.array_equal(got.T, want)

    @pytest.mark.parametrize("count", [4, 15, 16, 54])
    @pytest.mark.parametrize("seed", [5, 2**32 + 7, 2**70 + 3])
    def test_chunks_on_both_sides_of_the_pool_hash_gate(self, seed, count, monkeypatch):
        mixed, pools = [], harness._mixed_pools

        def spy(entropy):
            mixed.append(entropy.shape)
            return pools(entropy)

        monkeypatch.setattr(harness, "_mixed_pools", spy)
        config = ExperimentConfig(seed=seed, trials=1, snr_db="10")
        cells = list(itertools.product(range(3), range(18)))[:count]
        generators = harness._trial_rng(config, cells)
        assert bool(mixed) == (count >= harness._POOL_HASH_CELLS)
        for got, (snr_index, trial) in zip(generators, cells, strict=True):
            want = np.random.default_rng([seed, snr_index, trial])
            assert got.bit_generator.state == want.bit_generator.state

    # past the gate, indices of one and two words, and of three (past int64)
    @pytest.mark.parametrize("first_trial", [2**32 - 8, 2**64])
    def test_a_chunk_of_longer_indices_mixes_cell_by_cell(self, first_trial):
        config = ExperimentConfig(seed=5, trials=1, snr_db="10")
        cells = [(1, first_trial + t) for t in range(harness._POOL_HASH_CELLS)]
        for got, (snr_index, trial) in zip(harness._trial_rng(config, cells), cells, strict=True):
            want = np.random.default_rng([5, snr_index, trial])
            assert got.bit_generator.state == want.bit_generator.state

    def test_a_chunk_passes_one_flag_array_from_its_bin_draw_to_its_bit_draw(
            self, monkeypatch):
        # a bin draw that falls back on numpy's call may leave a half
        # buffered; the bit draw after it must see the flags it set
        flags, draws = [], harness.ch_mod.bounded_draws

        def spy(generators, spans, *, buffered=None):
            flags.append(buffered)
            return draws(generators, spans, buffered=buffered)

        monkeypatch.setattr(harness.ch_mod, "bounded_draws", spy)
        config = ExperimentConfig(**{**TINY_CE, "trials": 20})
        harness.run_ce_mse(config)
        assert len(flags) >= 2 and not any(flag is None for flag in flags)
        # one array per chunk, first the bins' and then the bits' draw
        assert all(flags[i] is flags[i + 1] for i in range(0, len(flags), 2))

    def test_seed_words_are_little_endian_32_bit(self):
        assert harness._seed_words(0) == [0]
        assert harness._seed_words(2**32 - 1) == [2**32 - 1]
        assert harness._seed_words(2**32) == [0, 1]
        assert harness._seed_words(2**64 + 5) == [5, 0, 1]
        with pytest.raises(ValueError, match="nonnegative"):
            harness._seed_words(-1)


class TestConfig:
    def test_defaults_round_trip_through_mapping(self):
        cfg = ExperimentConfig()
        mapping = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        assert ExperimentConfig.from_mapping(mapping) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys: bogus"):
            ExperimentConfig.from_mapping({"bogus": 1})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="trials"):
            ExperimentConfig.from_mapping({"trials": "many"})

    def test_equal_configs_hash_alike(self):
        # an int given for a float field, an integral float or a numpy
        # integer for an int field: each is stored as its field's type
        default = ExperimentConfig()
        for kwargs in ({"dc_sl_db": -40}, {"M": 30.0}, {"seed": np.int64(0)},
                       {"delta_f": 5000}):
            cfg = ExperimentConfig(**kwargs)
            assert cfg == default and cfg.config_hash() == default.config_hash()
            name, = kwargs
            assert type(getattr(cfg, name)) is type(getattr(default, name))
        assert ExperimentConfig.from_mapping({"M": "30", "dc_sl_db": "-40"}) == default

    @pytest.mark.parametrize("kwargs, match", [
        ({"M": 30.5}, "M must be an integer, got 30.5"),
        ({"trials": math.inf}, "bad value for 'trials': inf"),
        ({"dc_sl_db": "x"}, "bad value for 'dc_sl_db'"),
        ({"seed": 1j}, "bad value for 'seed'"),
    ])
    def test_numeric_fields_refuse_other_values(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig(**kwargs)

    def test_semantic_validation(self):
        with pytest.raises(ConfigurationError, match="^constellation must be one of .*'64qam'$"):
            ExperimentConfig(constellation="64qam")
        with pytest.raises(ConfigurationError, match="^detector must be one of .*'zf'$"):
            ExperimentConfig(detector="zf")
        with pytest.raises(ConfigurationError, match="optimal TX window needs csi = csit-csir"):
            ExperimentConfig(tx_window="optimal", csi="perfect-csir")
        with pytest.raises(ConfigurationError, match="^snr_db must list at least one SNR point"):
            ExperimentConfig(snr_db=())
        with pytest.raises(ConfigurationError, match="one side"):
            ExperimentConfig(tx_window="dc", rx_window="dc")
        with pytest.raises(ConfigurationError, match="k_max"):
            ExperimentConfig(N=8, k_max=4)
        with pytest.raises(ConfigurationError, match="l_max"):
            ExperimentConfig(M=4, l_max=4)
        with pytest.raises(ConfigurationError, match="^M must be at least 2, got 1$"):
            ExperimentConfig(M=1)

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\nM = 16\nN = 16\nsnr_db = 10, 20\ntrials = 7\n", encoding="utf-8"
        )
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.M == 16 and cfg.snr_db == (10.0, 20.0) and cfg.trials == 7

    def test_file_rejects_duplicates_and_garbage(self, tmp_path):
        p1 = tmp_path / "dup.cfg"
        p1.write_text("M = 16\nM = 20\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="duplicate"):
            ExperimentConfig.from_file(str(p1))
        p2 = tmp_path / "garbage.cfg"
        p2.write_text("this is not a config\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="key = value"):
            ExperimentConfig.from_file(str(p2))

    def test_file_that_is_not_utf8_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"\xff\xfe = 3\n")
        with pytest.raises(ConfigurationError, match="latin.cfg: not UTF-8"):
            ExperimentConfig.from_file(str(path))

    def test_hash_is_stable_and_sensitive(self):
        a = ExperimentConfig(**{**TINY_CE})
        b = ExperimentConfig(**{**TINY_CE})
        c = ExperimentConfig(**{**TINY_CE, "trials": 41})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_constellation_name_is_stored_lowercase(self):
        upper = ExperimentConfig(constellation="QPSK")
        assert upper.constellation == "qpsk"
        assert upper == ExperimentConfig()
        assert upper.config_hash() == ExperimentConfig().config_hash()
        assert ExperimentConfig.from_mapping({"constellation": "Bpsk"}) == \
            ExperimentConfig(constellation="bpsk")

    def test_metadata_echoes_every_field(self):
        cfg = ExperimentConfig(**TINY_CE)
        meta = cfg.metadata()
        for f in dataclasses.fields(cfg):
            assert f.name in meta
        assert meta["config_hash"] == cfg.config_hash()
        assert meta["implied_max_speed_kmh"] > 0

    def test_paths_past_the_chunk_byte_ceiling_are_refused(self):
        # 13 frames of 30x20: 13 x (120 + 16 x (20 + 30)) bytes per path under
        # 64 MiB, less twice the chunk's 124800 bytes of frames, 1 MiB of slack
        # and the 2400-byte delay-phase table of the default l_max + 1 = 5 bins
        fields = dict(M=30, N=20, snr_db="10", trials=13)
        with pytest.raises(ConfigurationError, match="paths = 100000000: ") as info:
            ExperimentConfig(paths=100_000_000, **fields)
        assert "\n" not in str(info.value)
        limit = int(re.search(r"at most (\d+) paths", str(info.value)).group(1))
        assert limit == 5502
        ExperimentConfig(paths=limit, **fields)
        with pytest.raises(ConfigurationError, match=f"paths = {limit + 1}: "):
            ExperimentConfig(paths=limit + 1, **fields)

    @pytest.mark.parametrize("M, N", [(30, 20), (8, 16), (2, 2), (2, 3000), (3000, 2),
                                      (256, 256)])
    def test_one_chunk_at_the_path_ceiling_peaks_within_it(self, M, N):
        # numpy reports its array allocations to tracemalloc; a run at the
        # ceiling takes chunks whose draws fit
        grid = FrameGrid(M=M, N=N)
        k_max, l_max = (N - 1) // 2, min(M - 1, 4)
        fields = dict(M=M, N=N, k_max=k_max, l_max=l_max, trials=harness._chunk_size(grid),
                      snr_db="10")
        with pytest.raises(ConfigurationError, match="paths = 100000000: ") as info:
            ExperimentConfig(paths=100_000_000, **fields)
        limit = int(re.search(r"at most (\d+) paths", str(info.value)).group(1))
        chunk = harness._run_chunk(ExperimentConfig(paths=limit, **fields))
        generators = [np.random.default_rng([3, i]) for i in range(chunk)]
        tracemalloc.start()
        try:
            taps = otfswin.tf_channel(otfswin.sample_channel(grid, limit, k_max, l_max,
                                                             generators))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert taps.shape == (chunk, N, M)
        assert harness._PATH_BYTES / 2 < peak <= harness._PATH_BYTES

    def test_grids_past_the_frame_byte_ceiling_are_refused(self):
        # constructed only: no run is started at these sizes
        fields = dict(paths=1, k_max=0, l_max=0, trials=1, snr_db="10")
        ExperimentConfig(M=1024, N=1024, **fields)  # a 16 MiB frame
        for m, n in [(1025, 1024), (1024, 1025), (100_000, 100_000)]:
            with pytest.raises(ConfigurationError, match=f"^M = {m}, N = {n}: ") as info:
                ExperimentConfig(M=m, N=n, **fields)
            assert "\n" not in str(info.value)

    def test_spa_tap_default_follows_path_count(self):
        assert ExperimentConfig(paths=2).spa_tap_count() == 5
        assert ExperimentConfig(paths=2, spa_taps=3).spa_tap_count() == 3


@dataclasses.dataclass(frozen=True)
class _GuardedConfig(ExperimentConfig):
    """A config with one key added after the hash format was fixed."""

    pilot_guard: str = harness._field("reduced", harness._choice("reduced", "full"))


class TestAddedField:
    def test_the_original_fields_are_hashed_in_their_order(self):
        text = ExperimentConfig().canonical_text()
        assert [line.split("=")[0] for line in text.splitlines()] == list(harness._HASHED_ALWAYS)
        assert ExperimentConfig().config_hash() == "8fa01f73c2c5"

    @pytest.mark.parametrize("fields", [{}, TINY_CE, GOLDEN_SPA])
    def test_a_field_at_its_default_keeps_the_text_and_hash(self, fields):
        base, added = ExperimentConfig(**fields), _GuardedConfig(**fields)
        assert added.canonical_text() == base.canonical_text()
        assert added.config_hash() == base.config_hash()

    def test_a_field_away_from_its_default_changes_the_text_and_hash(self):
        base = ExperimentConfig(**TINY_CE)
        added = _GuardedConfig.from_mapping({**TINY_CE, "pilot_guard": " full "})
        assert added.pilot_guard == "full"
        assert added.canonical_text() == base.canonical_text() + "\npilot_guard=full"
        assert added.config_hash() != base.config_hash()

    def test_a_bad_value_is_refused_on_one_line_naming_the_field(self):
        with pytest.raises(ConfigurationError, match="^pilot_guard must be one of ") as info:
            _GuardedConfig(**TINY_CE, pilot_guard="half")
        assert "\n" not in str(info.value) and str(info.value).endswith("got 'half'")

    def test_the_link_cache_key_holds_the_field(self):
        harness._link_parts.cache_clear()
        try:
            reduced = _GuardedConfig(**_LINK_BASE)
            full = dataclasses.replace(reduced, pilot_guard="full")
            for config in (reduced, full, dataclasses.replace(full, seed=1, trials=2,
                                                              snr_db=(5.0,))):
                assert harness._link(config, pilot=True).config is config
            info = harness._link_parts.cache_info()
            assert (info.misses, info.hits) == (2, 1)
        finally:
            harness._link_parts.cache_clear()


class TestIntervals:
    def test_wilson_against_hand_value(self):
        # closed form for k=5, n=10, z=1.96
        lo, hi = wilson_interval(5, 10)
        z2 = 1.96**2
        center = (0.5 + z2 / 20) / (1 + z2 / 10)
        spread = 1.96 * np.sqrt(0.25 / 10 + z2 / 400) / (1 + z2 / 10)
        assert lo == pytest.approx(center - spread, abs=1e-12)
        assert hi == pytest.approx(center + spread, abs=1e-12)

    def test_wilson_boundaries(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.9

    def test_mean_interval_shrinks_with_samples(self):
        rng = np.random.default_rng(0)
        small = mean_interval(rng.standard_normal(10))
        large = mean_interval(rng.standard_normal(10_000))
        assert (large[2] - large[1]) < (small[2] - small[1])


class TestCeExperiment:
    def test_rows_and_determinism(self):
        cfg = ExperimentConfig(**TINY_CE)
        rows1 = run_ce_mse(cfg)
        rows2 = run_ce_mse(cfg)
        assert rows_to_csv(rows1) == rows_to_csv(rows2)
        metrics = {r.metric for r in rows1}
        assert metrics == {"ce_mse", "ce_mse_db", "ce_mse_predicted", "ce_mse_predicted_db"}
        assert all(r.config_hash == cfg.config_hash() for r in rows1)

    @pytest.mark.parametrize("shaping", [{}, {"tx_window": "dc"}, {"rx_window": "dc"}])
    def test_predicted_value_matches_floor_formula(self, capsys, shaping):
        cfg = ExperimentConfig(**TINY_CE, **shaping)
        # rect at 1/N; a Dolph-Chebyshev window on either side at its design level
        sl_w = 10.0 ** (cfg.dc_sl_db / 20.0) if shaping else 1 / cfg.N
        predicted = next(r.value for r in run_ce_mse(cfg) if r.metric == "ce_mse_predicted")
        assert predicted == predicted_mse_floor(cfg.N, cfg.k_max, cfg.l_max, cfg.k_hat, sl_w)
        # the floor command prints the same value
        assert main(["floor", "--N", str(cfg.N), "--kmax", str(cfg.k_max),
                     "--lmax", str(cfg.l_max), "--khat", str(cfg.k_hat),
                     "--sl-db", repr(20 * math.log10(sl_w))]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[5] == f"{predicted:.12g}"

    def test_ce_rows_summary_format(self):
        cfg = ExperimentConfig(**TINY_CE)
        text = ce_rows_csv(run_ce_mse(cfg), cfg)
        lines = text.strip().splitlines()
        assert lines[0] == "snr_db,pilot_dbw,window,khat,mse_measured,mse_predicted"
        assert len(lines) == 1 + len(cfg.snr_db)
        fields = lines[1].split(",")
        assert float(fields[0]) == 30.0 and fields[2] == "rect" and fields[3] == "1"

    def test_ce_rows_summary_keeps_every_point_in_config_order(self):
        # a repeated SNR point is measured twice and reported twice, in place
        cfg = ExperimentConfig(**{**TINY_CE, "trials": 3, "seed": 1, "snr_db": "30, 10, 30"})
        rows = run_ce_mse(cfg)
        lines = ce_rows_csv(rows, cfg).strip().splitlines()[1:]
        measured = [r for r in rows if r.metric == "ce_mse"]
        assert [line.split(",")[0] for line in lines] == ["30", "10", "30"]
        assert [line.split(",")[4] for line in lines] == [f"{r.value:.12g}" for r in measured]
        assert lines[0].split(",")[4] == "0.142385274839"


class TestFerExperiment:
    def test_a_frame_without_data_cells_is_a_configuration_error(self):
        # the guard spans all 5 Doppler rows and all 3 delay columns
        cfg = ExperimentConfig(M=3, N=5, paths=1, k_max=0, l_max=1, k_hat=1,
                               csi="estimated-csir", snr_db=(10.0,), trials=1)
        with pytest.raises(ConfigurationError, match="no data cells"):
            run_fer(cfg)

    def test_perfect_csir_mmse_runs_and_is_deterministic(self):
        cfg = ExperimentConfig(M=8, N=8, paths=2, k_max=2, l_max=2,
                               csi="perfect-csir", detector="mmse",
                               snr_db=(12.0,), trials=60, seed=9)
        rows1, rows2 = run_fer(cfg), run_fer(cfg)
        assert rows_to_csv(rows1) == rows_to_csv(rows2)
        fer = next(r for r in rows1 if r.metric == "fer")
        assert 0.0 <= fer.ci_lo <= fer.value <= fer.ci_hi <= 1.0

    def test_rows_equal_count_errors_over_the_concatenated_frames(self, monkeypatch):
        from otfswin import harness

        sent, detected = [], []
        map_symbols, detect_frames = harness.map_symbols, harness._detect_frames

        def spy_map(labels, *args, **kwargs):
            sent.append(labels)
            return map_symbols(labels, *args, **kwargs)

        def spy_detect(*args, **kwargs):
            detected.append(detect_frames(*args, **kwargs))
            return detected[-1]

        monkeypatch.setattr(harness, "map_symbols", spy_map)
        monkeypatch.setattr(harness, "_detect_frames", spy_detect)
        cfg = ExperimentConfig(M=8, N=16, paths=2, k_max=1, l_max=1, k_hat=0,
                               csi="estimated-csir", detector="mmse",
                               snr_db=(4.0, 14.0), trials=25, seed=12)
        rows = run_fer(cfg)
        # map_symbols maps and _detect_frames detects a chunk of frames per
        # call, one label row per frame; a QPSK label's two bits are its
        # binary digits
        sent = [frame_labels for chunk in sent for frame_labels in chunk]
        detected = [frame_labels for chunk in detected for frame_labels in chunk]
        labels_per_frame = sent[0].size
        for i, snr in enumerate(cfg.snr_db):
            frames = slice(i * cfg.trials, (i + 1) * cfg.trials)
            flips = np.concatenate(detected[frames]) ^ np.concatenate(sent[frames])
            flips = flips.reshape(-1, labels_per_frame)
            bit_errors = sum(bin(f).count("1") for f in flips.reshape(-1).tolist())
            fer = int((flips != 0).any(axis=1).sum()) / flips.shape[0]
            assert 0 < bit_errors
            got = {r.metric: r for r in rows if r.snr_db == snr}
            assert got["fer"].value == fer and got["ber"].value == bit_errors / (2 * flips.size)
            assert got["fer"].trials == flips.shape[0] == cfg.trials

    def test_estimated_csir_pipeline_runs(self):
        cfg = ExperimentConfig(M=8, N=16, constellation="bpsk", paths=2,
                               k_max=2, l_max=2, k_hat=1, detector="spa",
                               csi="estimated-csir", snr_db=(25.0,),
                               trials=30, seed=3)
        rows = run_fer(cfg)
        assert {r.metric for r in rows} == {"fer", "ber"}

    def test_all_zero_threshold_estimate_counts_as_a_detected_frame(self):
        # trial 50 of this acceptance-9b config estimates an all-zero channel;
        # SPA then keeps the prior decisions instead of raising
        def rows(trials):
            cfg = ExperimentConfig(M=8, N=16, constellation="bpsk", paths=2,
                                   k_max=2, l_max=2, k_hat=1, pilot_power_dbw=30.0,
                                   tx_window="dc", detector="spa", csi="estimated-csir",
                                   snr_db=(15.0,), trials=trials, seed=564906722)
            return {r.metric: r for r in run_fer(cfg)}

        before, with_zero = rows(50), rows(51)
        assert with_zero["fer"].value * 51 == pytest.approx(before["fer"].value * 50 + 1)
        assert with_zero["ber"].value > before["ber"].value

    def test_optimal_tx_window_failure_is_numerical(self):
        cfg = ExperimentConfig(M=8, N=8, paths=2, k_max=2, l_max=2, csi="csit-csir",
                               tx_window="optimal", snr_db=(-3075.0,), trials=2)
        with pytest.raises(NumericalFailure, match="optimal TX window"):
            run_fer(cfg)

    def test_rect_and_shaped_rx_windows_detect_identically_with_csir(self):
        # with perfect receiver CSI, a receive window changes nothing
        base = dict(M=8, N=8, paths=2, k_max=2, l_max=2, csi="perfect-csir",
                    detector="mmse", snr_db=(10.0,), trials=150, seed=21)
        fer_rect = next(r for r in run_fer(ExperimentConfig(**base)) if r.metric == "fer")
        fer_dcrx = next(
            r for r in run_fer(ExperimentConfig(**base, rx_window="dc")) if r.metric == "fer"
        )
        assert fer_rect.ci_lo <= fer_dcrx.ci_hi and fer_dcrx.ci_lo <= fer_rect.ci_hi

    def test_optimal_tx_window_gives_lowest_fer(self):
        base = dict(M=8, N=8, paths=2, k_max=2, l_max=2, detector="mmse",
                    snr_db=(6.0, 12.0), trials=200, seed=33)
        variants = {
            "rect": ExperimentConfig(**base, csi="perfect-csir"),
            "dc_tx": ExperimentConfig(**base, csi="perfect-csir", tx_window="dc"),
            "optimal": ExperimentConfig(**base, csi="csit-csir", tx_window="optimal"),
        }
        fer = {
            name: [r.value for r in run_fer(cfg) if r.metric == "fer"]
            for name, cfg in variants.items()
        }
        for i in range(2):
            assert fer["optimal"][i] <= fer["rect"][i]
            assert fer["optimal"][i] <= fer["dc_tx"][i]


# Link fields of the cache tests: an 8x16 pilot frame with a DC TX window.
_LINK_BASE = dict(M=8, N=16, paths=2, k_max=2, l_max=2, k_hat=1, pilot_power_dbw=30.0,
                  tx_window="dc", dc_sl_db=-40.0, csi="estimated-csir", snr_db="10, 30",
                  trials=3, seed=9)
# field -> (fields of the warm-up config beside _LINK_BASE, the field's new value);
# no new value is the field's default
_LINK_FIELD_CHANGES = {
    "M": ({}, 10),
    "N": ({}, 24),
    "delta_f": ({}, 1e4),
    "fc": ({}, 6e9),
    "constellation": ({}, "bpsk"),
    "tx_window": ({"tx_window": "rect"}, "dc"),
    "rx_window": ({"tx_window": "rect"}, "dc"),
    "dc_sl_db": ({}, -30.0),
    "k_max": ({}, 1),
    "l_max": ({}, 1),
    "k_hat": ({}, 0),
    "pilot_power_dbw": ({}, 20.0),
}


def _link_arrays(constellation, windows, layout) -> list:
    """The arrays a link shares with every call of its link fields."""
    return [constellation.points, windows.tx, windows.rx, layout.guard_mask, layout.data_mask]


class TestLinkCache:
    @pytest.fixture(autouse=True)
    def cleared_cache(self):
        harness._link_parts.cache_clear()
        yield
        harness._link_parts.cache_clear()

    def test_a_second_call_with_the_same_link_fields_builds_nothing(self, monkeypatch):
        calls = []

        def spy(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(win_mod, "dc_window", spy("dc_window", win_mod.dc_window))
        for cls, name in ((PilotLayout, "centered"), (Constellation, "by_name")):
            monkeypatch.setattr(cls, name, staticmethod(spy(name, getattr(cls, name))))
        first = ExperimentConfig(**_LINK_BASE)
        second = dataclasses.replace(first, seed=10, trials=4, snr_db=(20.0,))
        run_fer(first)
        rows = run_fer(second)
        assert calls == ["by_name", "dc_window", "centered"]
        assert {r.trials for r in rows} == {4} and {r.snr_db for r in rows} == {20.0}
        # each call's link carries its own config; the pilot flag is in the key
        assert harness._link(second, pilot=True).config is second
        assert harness._link(second, pilot=False).layout is None

    @pytest.mark.parametrize("field", sorted(_LINK_FIELD_CHANGES))
    def test_every_link_field_is_in_the_key(self, field):
        warm_fields, value = _LINK_FIELD_CHANGES[field]
        warm = ExperimentConfig(**dict(_LINK_BASE, **warm_fields))
        changed = dataclasses.replace(warm, **{field: value})
        run_fer(warm)
        cached_rows, cached = run_fer(changed), harness._link(changed, pilot=True)
        harness._link_parts.cache_clear()
        assert cached_rows == run_fer(changed)
        # and the cached parts are those the changed config builds itself
        grid = changed.grid()
        layout = PilotLayout.centered(grid, changed.k_max, changed.l_max, changed.k_hat,
                                      changed.pilot_power_dbw)
        constellation = Constellation.by_name(changed.constellation)
        assert cached.grid == grid and cached.layout == layout
        assert cached.constellation.name == constellation.name
        built = _link_arrays(constellation, build_windows(changed, grid), layout)
        for a, b in zip(_link_arrays(cached.constellation, cached.windows, cached.layout), built):
            assert np.array_equal(a, b)

    def test_shared_arrays_refuse_writes(self):
        def shared(config):
            link = harness._link(config, pilot=True)
            return _link_arrays(link.constellation, link.windows, link.layout)

        config = ExperimentConfig(**_LINK_BASE)
        arrays = shared(config)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]
        # the next call gets the same unwritten arrays
        assert all(a is b for a, b in zip(arrays, shared(dataclasses.replace(config, seed=1))))

    def test_an_infeasible_design_raises_on_every_call(self):
        cfg = ExperimentConfig(**dict(_LINK_BASE, dc_sl_db=-1e6))
        messages = []
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="infeasible") as info:
                run_fer(cfg)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert harness._link_parts.cache_info().currsize == 0

    def test_the_cache_is_bounded(self):
        size = harness._LINK_CACHE_SIZE
        assert harness._link_parts.cache_info().maxsize == size
        for power in range(size + 3):
            harness._link(ExperimentConfig(**dict(_LINK_BASE, pilot_power_dbw=power)),
                          pilot=True)
        assert harness._link_parts.cache_info().currsize == size


class TestWriters:
    def test_csv_header_and_shape(self):
        cfg = ExperimentConfig(**TINY_CE)
        rows = run_ce_mse(cfg)
        lines = rows_to_csv(rows).splitlines()
        assert lines[0] == "experiment,config_hash,snr_db,metric,value,ci_lo,ci_hi,trials"
        assert len(lines) == 1 + len(rows)

    def test_json_mirrors_rows(self):
        cfg = ExperimentConfig(**TINY_CE)
        rows = run_ce_mse(cfg)
        data = json.loads(rows_to_json(rows))
        assert isinstance(data, list) and len(data) == len(rows)
        assert data[0]["experiment"] == "ce-mse"

    def test_metadata_file(self, tmp_path):
        cfg = ExperimentConfig(**TINY_CE)
        path = tmp_path / "meta.json"
        write_metadata(cfg, str(path))
        meta = json.loads(path.read_text())
        assert meta["config_hash"] == cfg.config_hash()


class TestSelfCheck:
    def test_all_checks_pass(self):
        results = run_selfcheck(seed=0)
        assert len(results) >= 6
        for r in results:
            assert r.passed, f"{r.name}: {r.detail}"

    def test_new_entries_come_last(self):
        # each entry draws from one generator: an entry put before another
        # would change the numbers every later entry draws
        assert [r.name for r in run_selfcheck(seed=0)] == [
            "transforms.kron_equivalence",
            "channel.chain_vs_dense",
            "channel.rect_closed_form",
            "channel.integer_power_conservation",
            "detection.rx_window_invariance",
            "detection.tf_lmmse_vs_dense",
            "detection.tf_lmmse_pilot_vs_dense",
            "detection.spa_factor_update_vs_enumeration",
            "windows.two_channel_allocation",
            "windows.water_level_kkt",
            "detection.spa_stack_vs_frames",
            "detection.tf_lmmse_guard_band_vs_dense",
            "windows.water_level_stack_vs_frames",
            "detection.tf_lmmse_guard_band_layouts_vs_dense",
            "detection.spa_masked_mixed_stack_vs_frames",
        ]

    def test_trial_modules_do_not_import_the_oracles(self):
        # the trial path runs only the fast forms; the dense model and the
        # suite that compares them live apart from it
        src = Path(otfswin.__file__).parent
        apart = {"oracles", "selfcheck"}
        for name in ("grid", "transforms", "channel", "windows", "estimation", "detection"):
            found = {ref for ref in _imports(src / f"{name}.py") if ref.split(".")[0] in apart}
            assert not found, (name, found)
        found = {ref for ref in _imports(src / "harness.py") if ref.split(".")[0] in apart}
        assert found == {"selfcheck", "selfcheck.run_selfcheck"}

    def test_the_harness_calls_detection_by_public_names(self):
        # the detectors the harness runs are the ones the API offers, under
        # the names a tracer wraps
        tree = ast.parse((Path(otfswin.__file__).parent / "harness.py").read_text(encoding="utf-8"))
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "det_mod"}
        assert used == {"tf_lmmse_detect", "spa_detect"}


def _imports(path: Path) -> set[str]:
    """What a source file imports, with package prefixes dropped: ``module``
    for every module and ``module.name`` for every name taken from one
    (``from . import oracles`` gives ``oracles``)."""
    refs: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            refs.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module.rsplit(".", 1)[-1]
            refs.add(module)
            refs.update(f"{module}.{alias.name}" for alias in node.names)
    return refs
