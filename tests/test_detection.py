"""MMSE/SPA detectors and the noise covariance."""

import itertools

import numpy as np
import pytest

from otfswin import (
    ChannelRealization,
    ConfigurationError,
    Constellation,
    FrameGrid,
    NumericalFailure,
    PathSpec,
    PilotLayout,
    WindowPair,
    analytic_detection_mse,
    circular_operator,
    dc_window,
    effective_dd_channel,
    largest_taps,
    mmse_detect,
    noise_covariance,
    sample_channel,
    sfft,
    spa_detect,
    tf_channel,
    tf_gains_from_taps,
    tf_lmmse_detect,
    transmit_frame,
    vectorize,
)
from otfswin.channel import EffectiveDDChannel, _dd_response
from otfswin.detection import _guard_weights
from otfswin.oracles import build_kron_operators, dd_channel_matrix
from otfswin.selfcheck import _guard_real_vs_complex, run_selfcheck

from oracles import brute_force_map, enumeration_spa_detect, mmse_error_covariance, mmse_trace_mse


class TestNoiseCovariance:
    def test_flat_rx_window_is_white(self):
        assert np.array_equal(noise_covariance(np.ones((4, 4)), 0.3), 0.3 * np.eye(16))

    def test_phase_only_window_is_white(self):
        rng = np.random.default_rng(0)
        v = np.exp(2j * np.pi * rng.random((4, 4)))
        assert np.array_equal(noise_covariance(v, 0.5), 0.5 * np.eye(16))

    def test_shaped_window_spectrum(self):
        # conjugation by a unitary keeps the eigenvalues n0 * |V|^2
        grid = FrameGrid(M=4, N=4)
        design = dc_window(grid.N, -30.0)
        v = np.outer(design.coeffs, np.ones(grid.M))
        n0 = 0.7
        cov = noise_covariance(v, n0)
        eig = np.sort(np.linalg.eigvalsh(cov))
        expect = np.sort(n0 * np.abs(v.reshape(-1)) ** 2)
        assert np.allclose(eig, expect, atol=1e-9)
        assert np.allclose(cov, cov.conj().T, atol=1e-12)

    @pytest.mark.parametrize("deviation", [5e-6, 1e-9])
    def test_nearly_unit_window_is_not_taken_for_white(self, deviation):
        # the white shortcut allows 1e-12 absolute and no relative slack, so
        # |v| up to 1 + 5e-6 keeps its covariance, about 1e-6 away from n0 * I
        grid = FrameGrid(M=4, N=3)
        rng = np.random.default_rng(9)
        v = (1.0 + deviation * rng.random(grid.shape)) * np.exp(2j * np.pi * rng.random(grid.shape))
        n0 = 0.3
        demod = build_kron_operators(grid.M, grid.N).demodulator
        explicit = n0 * demod @ np.diag(np.abs(v.reshape(-1)) ** 2) @ demod.conj().T
        assert np.max(np.abs(noise_covariance(v, n0) - explicit)) < 1e-14


class TestMMSE:
    def test_trivial_channel_passes_observation_through(self):
        rng = np.random.default_rng(1)
        qpsk = Constellation.qpsk()
        y = qpsk.points[rng.integers(0, 4, 16)]
        report = mmse_detect(y, np.eye(16), 1e-12 * np.eye(16), qpsk)
        assert np.allclose(report.soft, y, atol=1e-6)
        assert np.array_equal(qpsk.points[report.hard_indices], y)

    def test_zero_noise_with_singular_channel_refused(self):
        with pytest.raises(NumericalFailure):
            mmse_detect(np.ones(4), np.zeros((4, 4)), np.zeros((4, 4)), Constellation.bpsk())

    def test_empirical_mse_matches_error_covariance_trace(self):
        rng = np.random.default_rng(2)
        grid = FrameGrid(M=4, N=4)
        ch = sample_channel(grid, 2, 1, 3, rng)
        windows = WindowPair.rectangular(grid)
        h = dd_channel_matrix(ch, windows)
        n0 = 0.2
        qpsk = Constellation.qpsk()
        analytic = mmse_trace_mse(h, n0 * np.eye(16))

        gram = h @ h.conj().T + n0 * np.eye(16)
        w = h.conj().T @ np.linalg.inv(gram)
        draws = 10_000
        x = qpsk.points[rng.integers(0, 4, (draws, 16))]
        z = np.sqrt(n0 / 2) * (rng.standard_normal((draws, 16)) + 1j * rng.standard_normal((draws, 16)))
        soft = (x @ h.T + z) @ w.T
        empirical = float(np.mean(np.abs(soft - x) ** 2))
        assert empirical == pytest.approx(analytic, rel=0.02)

    def test_any_invertible_rx_window_leaves_mse_unchanged(self):
        rng = np.random.default_rng(3)
        grid = FrameGrid(M=4, N=4)
        ch = sample_channel(grid, 2, 1, 3, rng)
        qpsk = Constellation.qpsk()
        n0 = 0.05
        x = qpsk.points[rng.integers(0, 4, grid.size)]
        noise_tf = np.sqrt(n0 / 2) * (
            rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        )
        results = []
        shaped_rx = np.outer(dc_window(grid.N, -30.0).coeffs, np.ones(grid.M))
        for rx in (np.ones(grid.shape), shaped_rx):
            windows = WindowPair(tx=np.ones(grid.shape), rx=rx)
            h = dd_channel_matrix(ch, windows)
            y = h @ x + vectorize(sfft(windows.rx * noise_tf))
            report = mmse_detect(y, h, noise_covariance(rx, n0), qpsk, truth=x)
            trace = mmse_trace_mse(h, noise_covariance(rx, n0))
            results.append((report.mse_emp, trace))
        assert results[0][0] == pytest.approx(results[1][0], abs=1e-9)
        assert results[0][1] == pytest.approx(results[1][1], abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mmse_detect(np.ones(4), np.eye(5), 0.1 * np.eye(4), Constellation.bpsk())


class TestTFLMMSE:
    """Per-bin LMMSE against the dense covariance-form oracle."""

    # (M, N) -> pilot layouts (k_max, l_max, k_hat) that fit the grid; the
    # 30x20 pair is the Fig-6 layout and the same layout without k_hat
    LAYOUTS = {
        (4, 4): [(0, 1, 0)],
        (8, 4): [(0, 2, 0)],
        (6, 10): [(1, 2, 1)],
        (30, 20): [(3, 4, 1), (3, 4, 0)],
    }

    def draw(self, rng, grid):
        ch = sample_channel(grid, 3, (grid.N - 1) // 2, min(grid.M - 1, 4), rng)
        windows = WindowPair(
            tx=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
            rx=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
        )
        return ch, windows

    def compare(self, rng, grid, layout, estimated):
        qpsk = Constellation.qpsk()
        data = np.ones(grid.shape, dtype=bool) if layout is None else layout.data_mask
        for snr in (0.0, 20.0, 40.0, 60.0):
            n0 = 10.0 ** (-snr / 10.0)
            ch, windows = self.draw(rng, grid)
            x = np.zeros(grid.shape, dtype=complex)
            x[data] = qpsk.points[rng.integers(0, 4, int(data.sum()))]
            y = transmit_frame(x, tf_channel(ch), windows, n0, rng)
            taps = effective_dd_channel(ch, windows).taps
            # estimated CSI reaches the detector as taps, known CSI as TF gains
            gains = tf_gains_from_taps(taps) if estimated else windows.joint * tf_channel(ch)
            dense = mmse_detect(vectorize(y), circular_operator(taps)[:, vectorize(data)],
                                noise_covariance(windows.rx, n0), qpsk)
            fast = tf_lmmse_detect(y, gains, windows.rx, n0, qpsk, layout)
            rel = np.linalg.norm(fast.soft - dense.soft) / np.linalg.norm(dense.soft)
            assert rel < 1e-8, (grid, snr)
            assert np.array_equal(fast.hard_indices, dense.hard_indices)

    @pytest.mark.parametrize("m, n", sorted(LAYOUTS))
    def test_full_data_frames_match_dense(self, m, n):
        self.compare(np.random.default_rng(m * n), FrameGrid(M=m, N=n), None, False)

    @pytest.mark.parametrize("m, n, k_max, l_max, k_hat", [
        (m, n, *layout) for (m, n), layouts in sorted(LAYOUTS.items()) for layout in layouts
    ])
    def test_pilot_frames_match_dense(self, m, n, k_max, l_max, k_hat):
        grid = FrameGrid(M=m, N=n)
        layout = PilotLayout.centered(grid, k_max, l_max, k_hat)
        self.compare(np.random.default_rng(m * n + k_hat), grid, layout, True)

    def test_pilot_frames_with_a_wrapped_doppler_guard_match_dense(self):
        grid = FrameGrid(M=30, N=20)
        layout = PilotLayout(grid=grid, pilot_doppler=2, pilot_delay=10, pilot_value=1.0,
                             k_max=3, l_max=4, k_hat=1)
        assert layout.guard_mask[0].any() and layout.guard_mask[-1].any()
        self.compare(np.random.default_rng(2), grid, layout, True)

    def test_zero_noise_with_a_zero_gain_refused(self):
        grid = FrameGrid(M=4, N=4)
        gains = np.ones(grid.shape, dtype=complex)
        gains[1, 2] = 0.0
        for layout in (None, PilotLayout.centered(grid, 0, 1, 0)):
            with pytest.raises(NumericalFailure):
                tf_lmmse_detect(np.ones(grid.shape), gains, np.ones(grid.shape), 0.0,
                                Constellation.qpsk(), layout)

    def test_zero_noise_with_known_cells_refused(self):
        # the masked Gram H_D H_D^H has rank |D| < NM without noise
        grid = FrameGrid(M=4, N=4)
        layout = PilotLayout.centered(grid, 0, 1, 0)
        with pytest.raises(NumericalFailure):
            tf_lmmse_detect(np.ones(grid.shape), np.ones(grid.shape), np.ones(grid.shape),
                            0.0, Constellation.qpsk(), layout)


class TestRealGuardDowndate:
    """The guard block solved in real arithmetic against the complex block
    and solve (the selfcheck's oracle)."""

    GRID = FrameGrid(M=30, N=20)
    LAYOUTS = {
        "fig6": PilotLayout.centered(GRID, 3, 4, 1),
        "wrapped": PilotLayout(grid=GRID, pilot_doppler=2, pilot_delay=10, pilot_value=1.0,
                               k_max=3, l_max=4, k_hat=1),
    }

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_matches_the_complex_guard_block_and_solve(self, name):
        layout = self.LAYOUTS[name]
        block_err, weight_err = _guard_real_vs_complex(
            layout, layout.guard_mirror, np.random.default_rng(3))
        assert block_err <= 1e-12 and weight_err <= 1e-10

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_an_identity_mirror_fails_both(self, name):
        layout = self.LAYOUTS[name]
        identity = np.arange(layout.guard_mirror.size)
        block_err, weight_err = _guard_real_vs_complex(layout, identity, np.random.default_rng(3))
        assert block_err > 1e-12 and weight_err > 1e-10

    def test_is_a_passing_selfcheck_entry(self):
        results = {r.name: r for r in run_selfcheck()}
        assert results["detection.tf_lmmse_guard_real_vs_complex"].passed

    def test_stack_solves_each_frame_alone(self):
        layout = self.LAYOUTS["wrapped"]
        rng = np.random.default_rng(4)
        e = _dd_response(rng.uniform(0.01, 1.0, (3,) + self.GRID.shape))
        rhs = rng.standard_normal((3, 153)) + 1j * rng.standard_normal((3, 153))
        args = (layout.guard_view_pairs, layout.guard_mirror)
        stacked = _guard_weights(e, rhs, *args)
        for frame, side, weights in zip(e, rhs, stacked):
            assert np.array_equal(weights, _guard_weights(frame, side, *args))


class TestAnalyticMSE:
    def test_no_information_gives_unit_error(self):
        assert analytic_detection_mse(np.zeros((2, 2)), np.ones((2, 2))) == 1.0

    def test_two_channel_value(self):
        lam = np.array([4.0, 1.0])
        x = np.array([5.0 / 6.0, 7.0 / 6.0])
        assert analytic_detection_mse(lam, x) == pytest.approx(9.0 / 26.0, abs=1e-12)

    def test_matches_dense_trace_for_diagonal_tf_channel(self):
        # matrix-inversion-lemma route: the dense error covariance of the
        # windowed vectorized model equals the per-bin closed form
        rng = np.random.default_rng(4)
        grid = FrameGrid(M=4, N=4)
        n0 = 0.3
        tf_gains = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        tx = np.abs(rng.standard_normal(grid.shape)) + 0.1
        ops = build_kron_operators(grid.M, grid.N)
        h = ops.demodulator @ np.diag(vectorize(tf_gains * tx)) @ ops.modulator
        dense = mmse_trace_mse(h, n0 * np.eye(grid.size))
        closed = analytic_detection_mse(np.abs(tf_gains) ** 2 / n0, tx**2)
        assert dense == pytest.approx(closed, abs=1e-9)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            analytic_detection_mse(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            analytic_detection_mse(np.array([1.0]), np.array([-1.0]))

    def test_error_covariance_is_hermitian_psd(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        e = mmse_error_covariance(h, 0.5 * np.eye(8))
        assert np.allclose(e, e.conj().T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(e)) > 0


class TestSPA:
    def tiny_integer_channel(self, rng, grid):
        while True:
            k = rng.integers(-1, 2, size=2)
            l = rng.integers(0, grid.M, size=2)
            if (k[0], l[0]) != (k[1], l[1]):
                break
        g = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2.0
        return ChannelRealization(
            (PathSpec(complex(g[0]), int(l[0]), int(k[0])),
             PathSpec(complex(g[1]), int(l[1]), int(k[1]))),
            grid,
        )

    def test_single_tap_reduces_to_matched_filter(self):
        rng = np.random.default_rng(6)
        grid = FrameGrid(M=4, N=4)
        bpsk = Constellation.bpsk()
        gain = 0.8 - 0.6j
        taps = np.zeros(grid.shape, dtype=complex)
        taps[1, 2] = gain
        eff = EffectiveDDChannel(taps=taps, truncation=largest_taps(taps, 1))
        bits = rng.integers(0, 2, grid.size)
        x = bpsk.points[bits].reshape(grid.shape)
        y = (circular_operator(taps) @ vectorize(x)).reshape(grid.shape)
        y = y + 0.05 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        report = spa_detect(y, eff, 0.005, bpsk)
        matched = (np.real(vectorize(np.roll(y, (-1, -2), axis=(0, 1))) * np.conj(gain)) < 0).astype(int)
        assert np.array_equal(report.hard_indices, matched)

    def test_agrees_with_exhaustive_map_on_noiseless_frames(self):
        rng = np.random.default_rng(7)
        grid = FrameGrid(M=4, N=4)
        bpsk = Constellation.bpsk()
        windows = WindowPair.rectangular(grid)
        agree = 0
        frames = 100
        for _ in range(frames):
            ch = self.tiny_integer_channel(rng, grid)
            eff = effective_dd_channel(ch, windows, truncate_to=5)
            bits = rng.integers(0, 2, grid.size)
            x = bpsk.points[bits].reshape(grid.shape)
            y = transmit_frame(x, tf_channel(ch), windows)
            report = spa_detect(y, eff, 1e-3, bpsk, iters=30)
            best = brute_force_map(vectorize(y), circular_operator(eff.taps), bpsk.points)
            agree += int(np.array_equal(report.hard_indices, best))
        assert agree >= 99

    def test_marginals_are_normalized(self):
        rng = np.random.default_rng(8)
        grid = FrameGrid(M=4, N=4)
        bpsk = Constellation.bpsk()
        windows = WindowPair.rectangular(grid)
        ch = sample_channel(grid, 2, 1, 3, rng)
        eff = effective_dd_channel(ch, windows, truncate_to=5)
        x = bpsk.points[rng.integers(0, 2, grid.size)].reshape(grid.shape)
        y = transmit_frame(x, tf_channel(ch), windows, 0.01, rng)
        for iters in (1, 3, 20):
            report = spa_detect(y, eff, 0.01, bpsk, iters=iters)
            assert np.allclose(report.marginals.sum(axis=1), 1.0, atol=1e-9)

    def test_known_cells_are_removed_from_the_graph(self):
        # zeroed known cells must not disturb detection of the data cells
        rng = np.random.default_rng(9)
        grid = FrameGrid(M=4, N=4)
        bpsk = Constellation.bpsk()
        windows = WindowPair.rectangular(grid)
        ch = self.tiny_integer_channel(rng, grid)
        eff = effective_dd_channel(ch, windows, truncate_to=5)
        mask = np.ones(grid.shape, dtype=bool)
        mask[0, :] = False  # known-zero row
        bits = rng.integers(0, 2, int(mask.sum()))
        x = np.zeros(grid.shape, dtype=complex)
        x[mask] = bpsk.points[bits]
        y = transmit_frame(x, tf_channel(ch), windows, 1e-4, rng)
        report = spa_detect(y, eff, 1e-4, bpsk, data_mask=mask)
        detected = report.hard_indices.reshape(grid.shape)[mask]
        assert np.array_equal(detected, bits)

    def test_requires_truncation(self):
        grid = FrameGrid(M=4, N=4)
        eff = EffectiveDDChannel(taps=np.ones(grid.shape, dtype=complex))
        with pytest.raises(ValueError, match="trunc"):
            spa_detect(np.zeros(grid.shape), eff, 0.1, Constellation.bpsk())

    def test_empty_truncation_gives_prior_decisions(self):
        # an all-zero channel estimate keeps no taps: no factors, no iterations
        grid = FrameGrid(M=4, N=4)
        bpsk = Constellation.bpsk()
        taps = np.zeros(grid.shape, dtype=complex)
        eff = EffectiveDDChannel(taps=taps, truncation=largest_taps(taps, 3))
        y = np.random.default_rng(11).standard_normal(grid.shape).astype(complex)
        report = spa_detect(y, eff, 0.1, bpsk)
        assert report.iterations == 0
        assert np.all(report.marginals == 0.5)
        lmmse = tf_lmmse_detect(y, taps, np.ones(grid.shape), 0.1, bpsk)
        assert np.array_equal(report.hard_indices, lmmse.hard_indices)

    def test_configuration_budget_enforced(self):
        grid = FrameGrid(M=4, N=4)
        taps = np.arange(1, 17, dtype=complex).reshape(grid.shape)
        eff = EffectiveDDChannel(taps=taps, truncation=largest_taps(taps, 8))
        with pytest.raises(ConfigurationError, match="budget"):
            spa_detect(np.zeros(grid.shape), eff, 0.1, Constellation.qpsk())

    def test_reports_iteration_count(self):
        rng = np.random.default_rng(10)
        grid = FrameGrid(M=4, N=4)
        bpsk = Constellation.bpsk()
        windows = WindowPair.rectangular(grid)
        ch = self.tiny_integer_channel(rng, grid)
        eff = effective_dd_channel(ch, windows, truncate_to=3)
        x = bpsk.points[rng.integers(0, 2, grid.size)].reshape(grid.shape)
        y = transmit_frame(x, tf_channel(ch), windows)
        report = spa_detect(y, eff, 1e-3, bpsk, iters=25)
        assert 1 <= report.iterations <= 25


class TestSPAContraction:
    """The contracted factor update against the enumeration SPA oracle."""

    # (M, N) -> pilot layout (k_max, l_max, k_hat) for the masked frames
    LAYOUTS = {(4, 4): (0, 1, 0), (8, 16): (2, 2, 1), (6, 10): (1, 2, 1)}
    CASES = [
        (index, name, m, n, masked, damping)
        for index, (name, (m, n), masked, damping, _) in enumerate(itertools.product(
            ("bpsk", "qpsk"), sorted(LAYOUTS), (False, True), (0.3, 0.5, 1.0), range(2)))
    ]

    @pytest.mark.parametrize("index, name, m, n, masked, damping", CASES)
    def test_matches_enumeration(self, index, name, m, n, masked, damping):
        rng = np.random.default_rng(1000 + index)
        grid = FrameGrid(M=m, N=n)
        constellation = getattr(Constellation, name)()
        taps = 1 + index % 5                      # Q^L <= 4^5 = 1024
        snr = rng.uniform(0.0, 40.0)
        n0 = 10.0 ** (-snr / 10.0)
        windows = WindowPair.rectangular(grid)
        if index % 2:
            windows = WindowPair.separable(grid, tx_doppler=dc_window(grid.N, -30.0).coeffs)
        ch = sample_channel(grid, 3, min((n - 1) // 2, 2), min(m - 1, 2), rng)
        eff = effective_dd_channel(ch, windows, truncate_to=taps)
        mask = PilotLayout.centered(grid, *self.LAYOUTS[m, n]).data_mask if masked else None
        data = np.ones(grid.shape, dtype=bool) if mask is None else mask
        x = np.zeros(grid.shape, dtype=complex)
        x[data] = constellation.points[rng.integers(0, constellation.points.size, int(data.sum()))]
        y = transmit_frame(x, tf_channel(ch), windows, n0, rng)
        fast = spa_detect(y, eff, n0, constellation, damping=damping, data_mask=mask)
        slow = enumeration_spa_detect(y, eff, n0, constellation, damping=damping, data_mask=mask)
        assert fast.iterations == slow.iterations
        assert np.array_equal(fast.hard_indices, slow.hard_indices)
        assert np.max(np.abs(fast.marginals - slow.marginals)) <= 1e-12


    @pytest.mark.parametrize("name", ["bpsk", "qpsk"])
    def test_zero_total_fallback_matches_enumeration(self, name):
        # a noiseless likelihood with an observation no symbol word explains
        # drives messages to exact zeros; with damping 1 some symbol-side
        # products vanish for every value and fall back to uniform
        grid = FrameGrid(M=4, N=4)
        taps = np.zeros(grid.shape, dtype=complex)
        taps[0, 0], taps[1, 2], taps[3, 1] = 1.0, 0.9j, -0.8
        eff = EffectiveDDChannel(taps=taps, truncation=largest_taps(taps, 3))
        rng = np.random.default_rng(3)
        y = 3.0 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        constellation = getattr(Constellation, name)()
        fast = spa_detect(y, eff, 0.0, constellation, iters=5, damping=1.0)
        slow = enumeration_spa_detect(y, eff, 0.0, constellation, iters=5, damping=1.0)
        assert fast.iterations == slow.iterations
        assert np.array_equal(fast.hard_indices, slow.hard_indices)
        assert np.max(np.abs(fast.marginals - slow.marginals)) <= 1e-12
