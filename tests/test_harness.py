"""Experiment engine: config parsing, determinism, and protocol claims."""

import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
import otfswin
from otfswin import ConfigurationError, FrameGrid, NumericalFailure
from otfswin.harness import (
    ExperimentConfig,
    _chunk_size,
    _sweep,
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
            for snr, values in sweep(config, chunk):
                values_array = np.asarray(values)
                assert values_array.dtype == dtype
                digest.update(values_array.tobytes())
                yield snr, values

        monkeypatch.setattr(harness, "_sweep", spy_sweep)
        runner(ExperimentConfig.from_mapping({k: str(v) for k, v in fields.items()}))
        assert digest.hexdigest() == GOLDEN_TRIALS[name]


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
        assert self.CHUNK == 13

    @pytest.mark.parametrize("offset", [-1, 0, 1, CHUNK + 1])
    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_rows_equal_the_per_trial_chain(self, name, offset):
        runner, oracle, fields = CHUNK_CASES[name]
        cfg = ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(_CHUNK_GRID, **fields, trials=self.CHUNK + offset,
                                         seed=31).items()})
        assert rows_to_csv(runner(cfg)) == rows_to_csv(oracle(cfg))

    @pytest.mark.parametrize("offset", [-1, 1])
    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_chunks_straddling_snr_points_give_the_per_trial_rows(self, name, offset):
        # three points of B - 1 or B + 1 trials: every chunk boundary but
        # the last falls inside a point, and chunks mix two noise powers
        runner, oracle, fields = CHUNK_CASES[name]
        cfg = ExperimentConfig.from_mapping(
            {k: str(v) for k, v in dict(_CHUNK_GRID, **dict(fields, snr_db="10, 20, 35"),
                                         trials=self.CHUNK + offset, seed=37).items()})
        assert rows_to_csv(runner(cfg)) == rows_to_csv(oracle(cfg))

    def test_chunks_take_cells_across_snr_points(self):
        cfg = ExperimentConfig(snr_db=(10.0, 20.0, 30.0), trials=self.CHUNK - 1)
        calls = []

        def chunk(cells, n0):
            calls.append((cells, n0.tolist()))
            return [100 * snr_index + t for snr_index, t in cells]

        swept = list(_sweep(cfg, chunk))
        assert swept == [(snr, [100 * i + t for t in range(cfg.trials)])
                         for i, snr in enumerate(cfg.snr_db)]
        assert [len(cells) for cells, _ in calls] == [13, 13, 10]
        assert calls[0][0][-1] == (1, 0) and calls[1][0][-3:] == [(1, 11), (2, 0), (2, 1)]
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
            return [0] * len(cells)

        list(_sweep(cfg, chunk))
        assert chunks == [[(0, 0), (0, 1), (1, 0), (1, 1)]]


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

    def test_semantic_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(constellation="64qam")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(detector="zf")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(tx_window="optimal", csi="perfect-csir")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(snr_db=())
        with pytest.raises(ConfigurationError, match="one side"):
            ExperimentConfig(tx_window="dc", rx_window="dc")
        with pytest.raises(ConfigurationError, match="k_max"):
            ExperimentConfig(N=8, k_max=4)
        with pytest.raises(ConfigurationError, match="l_max"):
            ExperimentConfig(M=4, l_max=4)
        with pytest.raises(ConfigurationError):
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

    def test_metadata_echoes_every_field(self):
        cfg = ExperimentConfig(**TINY_CE)
        meta = cfg.metadata()
        for f in dataclasses.fields(cfg):
            assert f.name in meta
        assert meta["config_hash"] == cfg.config_hash()
        assert meta["implied_max_speed_kmh"] > 0

    def test_spa_tap_default_follows_path_count(self):
        assert ExperimentConfig(paths=2).spa_tap_count() == 5
        assert ExperimentConfig(paths=2, spa_taps=3).spa_tap_count() == 3


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

    def test_predicted_value_matches_floor_formula(self):
        from otfswin.estimation import predicted_mse_floor_params

        cfg = ExperimentConfig(**TINY_CE)
        rows = run_ce_mse(cfg)
        predicted = next(r.value for r in rows if r.metric == "ce_mse_predicted")
        assert predicted == pytest.approx(
            predicted_mse_floor_params(cfg.N, cfg.k_max, cfg.l_max, cfg.k_hat, 1 / cfg.N)
        )

    def test_ce_rows_summary_format(self):
        cfg = ExperimentConfig(**TINY_CE)
        text = ce_rows_csv(run_ce_mse(cfg), cfg)
        lines = text.strip().splitlines()
        assert lines[0] == "snr_db,pilot_dbw,window,khat,mse_measured,mse_predicted"
        assert len(lines) == 1 + len(cfg.snr_db)
        fields = lines[1].split(",")
        assert float(fields[0]) == 30.0 and fields[2] == "rect" and fields[3] == "1"


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

        def spy_map(bits, *args, **kwargs):
            sent.append(np.array(bits))
            return map_symbols(bits, *args, **kwargs)

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
        # call, one bit row per frame
        sent = [frame_bits for chunk in sent for frame_bits in chunk]
        detected = [frame_bits for chunk in detected for frame_bits in chunk]
        bits_per_frame = sent[0].size
        for i, snr in enumerate(cfg.snr_db):
            frames = slice(i * cfg.trials, (i + 1) * cfg.trials)
            diffs = np.concatenate(detected[frames]) != np.concatenate(sent[frames])
            diffs = diffs.reshape(-1, bits_per_frame)
            bit_errors = int(diffs.sum())
            fer = int(diffs.any(axis=1).sum()) / diffs.shape[0]
            assert 0 < bit_errors
            got = {r.metric: r for r in rows if r.snr_db == snr}
            assert got["fer"].value == fer and got["ber"].value == bit_errors / diffs.size
            assert got["fer"].trials == diffs.shape[0] == cfg.trials

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
            "detection.tf_lmmse_guard_real_vs_complex",
            "windows.water_level_stack_vs_frames",
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
