"""Pilot layout, threshold estimation, and the analytic leakage floor."""

import numpy as np
import pytest

from otfswin import (
    ChannelRealization,
    ConfigurationError,
    Constellation,
    FrameGrid,
    PathSpec,
    PilotLayout,
    WindowPair,
    effective_dd_channel,
    embed_pilot,
    estimate_channel,
    exact_interference_power,
    isfft,
    map_symbols,
    measured_ce_mse,
    predicted_mse_floor,
    sample_channel,
    tf_channel,
    transmit_frame,
)

FIG6_GRID = FrameGrid(M=30, N=20)


def fig6_layout(k_hat=1):
    return PilotLayout.centered(FIG6_GRID, k_max=3, l_max=4, k_hat=k_hat, pilot_power_dbw=30.0)


class TestLayout:
    def test_overhead_product(self):
        layout = fig6_layout(k_hat=1)
        assert int(layout.guard_mask.sum()) == 9 * 17 == 153
        assert int(layout.data_mask.sum()) == FIG6_GRID.size - 153

    def test_pilot_only_layout(self):
        grid = FrameGrid(M=8, N=8)
        layout = PilotLayout.centered(grid, k_max=0, l_max=0, k_hat=0)
        assert int(layout.guard_mask.sum()) == 1

    def test_full_guard_occupies_all_doppler_rows(self):
        # 4*k_max + 4*k_hat + 1 = N wipes out the interference entirely
        grid = FrameGrid(M=16, N=21)
        layout = PilotLayout.centered(grid, k_max=2, l_max=3, k_hat=3)
        assert 4 * layout.k_max + 4 * layout.k_hat + 1 == grid.N
        assert int(layout.guard_mask.sum()) == (2 * layout.l_max + 1) * grid.N
        assert np.all(layout.guard_mask.any(axis=1))
        assert predicted_mse_floor(grid.N, 2, 3, 3, 1.0 / grid.N) == 0.0

    def test_excessive_extra_guard_rejected(self):
        # N = 20, k_max = 3 leaves room for k_hat <= 1 only
        with pytest.raises(ConfigurationError, match="k_hat"):
            PilotLayout(grid=FIG6_GRID, pilot_doppler=10, pilot_delay=15,
                        pilot_value=1.0, k_max=3, l_max=4, k_hat=2)

    def test_delay_wraparound_guarded(self):
        grid = FrameGrid(M=8, N=20)
        with pytest.raises(ConfigurationError, match="wrap"):
            PilotLayout(grid=grid, pilot_doppler=10, pilot_delay=0, pilot_value=1.0,
                        k_max=3, l_max=2, k_hat=0)

    def test_index_sets_are_read_only(self):
        layout = fig6_layout()
        for array in (layout.guard_mask, layout.data_mask,
                      *layout.read_cells, *layout.tap_cells):
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_centered_pilot_power(self):
        layout = fig6_layout()
        assert abs(layout.pilot_value) ** 2 == pytest.approx(1000.0, rel=1e-12)


class TestEmbedPilot:
    def test_cell_identities(self):
        rng = np.random.default_rng(0)
        layout = fig6_layout()
        qpsk = Constellation.qpsk()
        mask = layout.data_mask
        labels = qpsk.bits_to_indices(rng.integers(0, 2, int(mask.sum()) * 2))
        frame = embed_pilot(map_symbols(labels, qpsk, FIG6_GRID, mask=mask), layout)
        assert frame[layout.pilot_doppler, layout.pilot_delay] == layout.pilot_value
        guard = layout.guard_mask.copy()
        guard[layout.pilot_doppler, layout.pilot_delay] = False
        assert np.all(frame[guard] == 0)
        assert np.count_nonzero(frame) == int(mask.sum()) + 1

    def test_frame_shape_checked(self):
        with pytest.raises(ValueError):
            embed_pilot(np.zeros((4, 4)), fig6_layout())


class TestEstimator:
    def test_noiseless_integer_single_path_exact_recovery(self):
        grid = FrameGrid(M=16, N=16)
        layout = PilotLayout.centered(grid, k_max=2, l_max=3, k_hat=1, pilot_power_dbw=20.0)
        windows = WindowPair.rectangular(grid)
        ch = ChannelRealization((PathSpec(0.8 - 0.5j, 2, -1),), grid)
        truth = effective_dd_channel(ch, windows).taps
        frame = embed_pilot(np.zeros(grid.shape, dtype=complex), layout)
        received = transmit_frame(frame, tf_channel(ch), windows, demodulate=False)
        est = estimate_channel(received, layout, n0=1e-8)
        assert est[(-1) % grid.N, 2] == pytest.approx(truth[(-1) % grid.N, 2], abs=1e-10)
        mismatch = np.abs(est - truth)
        mismatch[(-1) % grid.N, 2] = 0.0
        assert np.max(mismatch) < 1e-10

    def test_everything_below_threshold_gives_zero_estimate(self):
        grid = FrameGrid(M=8, N=8)
        layout = PilotLayout.centered(grid, k_max=1, l_max=1, k_hat=0)
        weak = isfft(np.full(grid.shape, 1e-3, dtype=complex))
        est = estimate_channel(weak, layout, n0=1.0)
        assert np.all(est == 0)

    def test_fractional_full_guard_noiseless_matches_truth_on_window(self):
        # a full Doppler guard removes all data leakage, so the noiseless
        # estimate equals the effective channel on the read window
        grid = FrameGrid(M=16, N=13)
        layout = PilotLayout.centered(grid, k_max=1, l_max=3, k_hat=2)
        assert 4 * layout.k_max + 4 * layout.k_hat + 1 == grid.N
        rng = np.random.default_rng(1)
        windows = WindowPair.rectangular(grid)
        ch = sample_channel(grid, 3, 1, 3, rng)
        truth = effective_dd_channel(ch, windows).taps
        qpsk = Constellation.qpsk()
        mask = layout.data_mask
        frame = map_symbols(qpsk.bits_to_indices(rng.integers(0, 2, int(mask.sum()) * 2)),
                            qpsk, grid, mask=mask)
        frame = embed_pilot(frame, layout)
        received = transmit_frame(frame, tf_channel(ch), windows, demodulate=False)
        est = estimate_channel(received, layout, n0=0.0)
        sel = layout.tap_cells
        assert np.max(np.abs(est[sel] - truth[sel])) < 1e-12


class TestPredictors:
    @pytest.mark.parametrize("args, floor", [
        # the Fig-6 spread: N = 20, k_max = 3, l_max = 4
        ((20, 3, 4, 1, 1 / 20), 0.3375),
        ((20, 3, 4, 0, 1 / 20), 0.6125),
        ((20, 3, 4, 1, 1e-2), 0.0135),  # 25 times (about 14 dB) below rect
        # one delay column: 9 read cells of 0.0075 and 3e-4 leakage each
        ((20, 3, 0, 1, 1 / 20), 9 * 0.0075),
        ((20, 3, 0, 1, 1e-2), 9 * 3e-4),
        # 4 k_max + 4 k_hat + 1 = N: the guard leaves no data row exposed
        ((21, 2, 3, 3, 1 / 21), 0.0),
    ])
    def test_floor_values(self, args, floor):
        assert predicted_mse_floor(*args) == pytest.approx(floor, rel=1e-12, abs=0.0)


class TestMeasuredError:
    def test_zero_error_measures_zero(self):
        layout = fig6_layout()
        taps = np.random.default_rng(2).standard_normal(FIG6_GRID.shape) + 0j
        assert measured_ce_mse(taps, taps, layout) == 0.0

    def test_single_tap_error_with_unit_pilot(self):
        grid = FrameGrid(M=8, N=8)
        layout = PilotLayout(grid=grid, pilot_doppler=4, pilot_delay=3, pilot_value=1.0,
                             k_max=1, l_max=1, k_hat=0)
        truth = np.zeros(grid.shape, dtype=complex)
        est = truth.copy()
        est[1, 1] = 0.3 - 0.4j  # inside the read window
        assert measured_ce_mse(truth, est, layout) == pytest.approx(0.25)

    def test_pilot_scale_factor_applied(self):
        grid = FrameGrid(M=8, N=8)
        layout = PilotLayout(grid=grid, pilot_doppler=4, pilot_delay=3, pilot_value=10.0,
                             k_max=1, l_max=1, k_hat=0)
        truth = np.zeros(grid.shape, dtype=complex)
        est = truth.copy()
        est[0, 0] = 1.0
        assert measured_ce_mse(truth, est, layout) == pytest.approx(100.0)

    def test_full_guard_error_vanishes_at_high_snr(self):
        grid = FrameGrid(M=16, N=13)
        layout = PilotLayout.centered(grid, k_max=1, l_max=3, k_hat=2, pilot_power_dbw=30.0)
        rng = np.random.default_rng(3)
        windows = WindowPair.rectangular(grid)
        qpsk = Constellation.qpsk()
        mask = layout.data_mask
        errors = []
        for snr_db in (40.0, 80.0):
            n0 = 10 ** (-snr_db / 10)
            sse = 0.0
            for t in range(50):
                trial_rng = np.random.default_rng([4, int(snr_db), t])
                ch = sample_channel(grid, 3, 1, 3, trial_rng)
                truth = effective_dd_channel(ch, windows).taps
                bits = trial_rng.integers(0, 2, int(mask.sum()) * 2)
                frame = map_symbols(qpsk.bits_to_indices(bits), qpsk, grid, mask=mask)
                frame = embed_pilot(frame, layout)
                received = transmit_frame(frame, tf_channel(ch), windows, n0, trial_rng,
                                          demodulate=False)
                est = estimate_channel(received, layout, n0)
                sse += measured_ce_mse(truth, est, layout)
            errors.append(sse / 50)
        assert errors[1] < 1e-3 * errors[0]  # no floor: error keeps falling


class TestInterferenceIdentity:
    def test_window_decomposes_into_pilot_plus_leakage(self):
        # noiseless: received = pilot response + data leakage, both computed
        # independently of the transform chain
        rng = np.random.default_rng(5)
        grid = FrameGrid(M=8, N=8)
        layout = PilotLayout.centered(grid, k_max=1, l_max=1, k_hat=0, pilot_power_dbw=10.0)
        windows = WindowPair.rectangular(grid)
        ch = sample_channel(grid, 2, 1, 1, rng)
        taps = effective_dd_channel(ch, windows).taps
        qpsk = Constellation.qpsk()
        mask = layout.data_mask
        frame = map_symbols(qpsk.bits_to_indices(rng.integers(0, 2, int(mask.sum()) * 2)),
                            qpsk, grid, mask=mask)
        frame = embed_pilot(frame, layout)
        received = transmit_frame(frame, tf_channel(ch), windows)
        # direct leakage sum over data cells only
        for dk in range(-1, 2):
            for dl in range(0, 2):
                k = (layout.pilot_doppler + dk) % grid.N
                l = (layout.pilot_delay + dl) % grid.M
                leak = 0.0 + 0.0j
                for kp in range(grid.N):
                    for lp in range(grid.M):
                        if mask[kp, lp]:
                            leak += frame[kp, lp] * taps[(k - kp) % grid.N, (l - lp) % grid.M]
                pilot_term = layout.pilot_value * taps[dk % grid.N, dl % grid.M]
                assert received[k, l] == pytest.approx(pilot_term + leak, abs=1e-9)

    def test_measured_leakage_matches_exact_conditional_power(self):
        # mean measured |leakage|^2 against the per-realization closed value
        rng_seed = 6
        grid = FIG6_GRID
        layout = fig6_layout()
        windows = WindowPair.rectangular(grid)
        qpsk = Constellation.qpsk()
        mask = layout.data_mask
        nbits = int(mask.sum()) * 2
        trials = 10_000
        measured = np.empty(trials)
        exact = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng([rng_seed, t])
            ch = sample_channel(grid, 5, 3, 4, rng)
            taps = effective_dd_channel(ch, windows).taps
            frame = map_symbols(qpsk.bits_to_indices(rng.integers(0, 2, nbits)), qpsk, grid,
                                mask=mask)
            frame = embed_pilot(frame, layout)
            received = transmit_frame(frame, tf_channel(ch), windows)
            pilot = layout.pilot_value * np.roll(taps, (layout.pilot_doppler, layout.pilot_delay), axis=(0, 1))
            leak = (received - pilot)[layout.read_cells]
            measured[t] = float(np.sum(np.abs(leak) ** 2))
            exact[t] = exact_interference_power(taps, layout)
        assert measured.mean() == pytest.approx(exact.mean(), rel=0.05)

    def test_more_guard_lowers_the_measured_floor(self):
        grid = FIG6_GRID
        windows = WindowPair.rectangular(grid)
        qpsk = Constellation.qpsk()
        n0 = 1e-5
        floors = []
        for k_hat in (0, 1):
            layout = fig6_layout(k_hat=k_hat)
            mask = layout.data_mask
            nbits = int(mask.sum()) * 2
            sse = 0.0
            trials = 300
            for t in range(trials):
                rng = np.random.default_rng([7, k_hat, t])
                ch = sample_channel(grid, 5, 3, 4, rng)
                truth = effective_dd_channel(ch, windows).taps
                frame = map_symbols(qpsk.bits_to_indices(rng.integers(0, 2, nbits)), qpsk,
                                    grid, mask=mask)
                frame = embed_pilot(frame, layout)
                received = transmit_frame(frame, tf_channel(ch), windows, n0, rng,
                                          demodulate=False)
                est = estimate_channel(received, layout, n0)
                sse += measured_ce_mse(truth, est, layout)
            floors.append(sse / trials)
        assert floors[1] < floors[0]
