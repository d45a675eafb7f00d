"""MMSE/SPA detectors and the noise covariance."""

import itertools
import re

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
    isfft,
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
from otfswin.detection import _guard_plan, _guard_weights
from otfswin.oracles import build_kron_operators, dd_channel_matrix
from otfswin.selfcheck import run_selfcheck

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
    # 30x20 pair is the Fig-6 layout and the same layout without k_hat, the
    # 8x13 guard takes every Doppler row, and the 16x32 one 5 of 32 rows
    LAYOUTS = {
        (4, 4): [(0, 1, 0)],
        (8, 4): [(0, 2, 0)],
        (6, 10): [(1, 2, 1)],
        (8, 13): [(3, 1, 0)],
        (16, 32): [(1, 2, 0)],
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
            # the detector reads the RX-windowed TF grid, the oracle its DD frame
            r = transmit_frame(x, tf_channel(ch), windows, n0, rng, demodulate=False)
            taps = effective_dd_channel(ch, windows).taps
            # estimated CSI reaches the detector as taps, known CSI as TF gains
            gains = tf_gains_from_taps(taps) if estimated else windows.joint * tf_channel(ch)
            dense = mmse_detect(vectorize(sfft(r)), circular_operator(taps)[:, vectorize(data)],
                                noise_covariance(windows.rx, n0), qpsk)
            fast = tf_lmmse_detect(r, gains, windows.rx, n0, qpsk, layout)
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

    @pytest.mark.parametrize("n0", [np.full(3, 0.1), np.full((2, 1), 0.1)],
                             ids=["three-values", "column"])
    def test_noise_power_of_another_shape_refused(self, n0):
        # a 2-frame stack takes one noise power or one per frame
        grid = FrameGrid(M=4, N=4)
        stack = np.ones((2,) + grid.shape)
        for layout in (None, PilotLayout.centered(grid, 0, 1, 0)):
            with pytest.raises(ValueError, match=rf"{re.escape(str(n0.shape))} is neither.*\(2,\)"):
                tf_lmmse_detect(stack, stack, stack, n0, Constellation.qpsk(), layout)

    @pytest.mark.parametrize("shared_window", [True, False], ids=["shared-v", "per-frame-v"])
    @pytest.mark.parametrize("one_power", [True, False], ids=["scalar-n0", "per-frame-n0"])
    def test_noise_grid_broadcasts_and_each_frame_decides_alone(self, one_power, shared_window):
        # n0 |v|^2 broadcasts to the stack: one noise power or one per frame,
        # with one RX window for all frames or one per frame
        grid = FrameGrid(M=4, N=4)
        rng = np.random.default_rng(17)

        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        r, g = draw((3,) + grid.shape), draw((3,) + grid.shape)
        v = draw(grid.shape if shared_window else (3,) + grid.shape)
        n0 = 0.1 if one_power else np.array([0.05, 0.1, 0.2])
        qpsk = Constellation.qpsk()
        for layout in (None, PilotLayout.centered(grid, 0, 1, 0)):
            stacked = tf_lmmse_detect(r, g, v, n0, qpsk, layout)
            for i in range(3):
                alone = tf_lmmse_detect(r[i], g[i], v if shared_window else v[i],
                                        np.broadcast_to(n0, 3)[i], qpsk, layout)
                assert np.array_equal(stacked.soft[i], alone.soft)
                assert np.array_equal(stacked.hard_indices[i], alone.hard_indices)

    @pytest.mark.parametrize("frames, window", [(3, (2, 4, 4)), (None, (3, 4, 4)),
                                                (3, (4, 3))], ids=str)
    def test_window_that_does_not_broadcast_refused(self, frames, window):
        shape = (4, 4) if frames is None else (frames, 4, 4)
        ones = np.ones(shape)
        for layout in (None, PilotLayout.centered(FrameGrid(M=4, N=4), 0, 1, 0)):
            with pytest.raises(ValueError, match="must share one shape"):
                tf_lmmse_detect(ones, ones, np.ones(window), 0.1, Constellation.qpsk(), layout)


class TestGuardBandSolve:
    """The guard downdate solved through the inverse band blocks against
    the dense guard block: on a guard over most Doppler rows, over every row
    and over fewer rows than the rest."""

    GRID = FrameGrid(M=30, N=20)
    LAYOUTS = {
        "fig6": PilotLayout.centered(GRID, 3, 4, 1),
        "wrapped": PilotLayout(grid=GRID, pilot_doppler=2, pilot_delay=10, pilot_value=1.0,
                               k_max=3, l_max=4, k_hat=1),
        "every_row": PilotLayout.centered(FrameGrid(M=8, N=13), 3, 1, 0),
        "few_rows": PilotLayout.centered(FrameGrid(M=16, N=32), 1, 2, 0),
    }

    @pytest.mark.parametrize("name, largest", [
        ("fig6", 27), ("wrapped", 27), ("every_row", 3),
    ])
    def test_largest_lapack_system(self, name, largest, monkeypatch):
        # the Fig-6 guard has 153 cells: 20 blocks of 9 and 3 rows of 9
        # outside the guard; the 8x13 guard, on every row, only inverts its
        # 3 x 3 blocks
        sizes = []
        for attr in ("solve", "inv"):
            def record(a, *args, _call=getattr(np.linalg, attr)):
                sizes.append(a.shape[-1])
                return _call(a, *args)
            monkeypatch.setattr(np.linalg, attr, record)
        layout = self.LAYOUTS[name]
        rng = np.random.default_rng(6)
        residual = rng.uniform(0.01, 1.0, (2,) + layout.grid.shape)
        _guard_weights(np.ones(residual.shape, dtype=complex), residual, layout)
        assert max(sizes) == largest

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_stack_solves_each_frame_alone(self, name):
        layout = self.LAYOUTS[name]
        shape = (3,) + layout.grid.shape
        rng = np.random.default_rng(4)
        residual = rng.uniform(0.01, 1.0, shape)
        weighted = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stacked = _guard_weights(weighted, residual, layout)
        for frame, grid, weights in zip(residual, weighted, stacked):
            assert np.array_equal(weights, _guard_weights(grid, frame, layout))

    def test_plan_is_built_once_per_layout(self):
        # the band indices and DFT rows every chunk of a run shares
        layout = self.LAYOUTS["fig6"]
        plan = _guard_plan(layout)
        assert _guard_plan(PilotLayout.centered(self.GRID, 3, 4, 1)) is plan
        assert not any(array.flags.writeable for array in vars(plan).values())

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_matches_the_dense_guard_solve_at_high_snr(self, name):
        # the weights of the guard cells of x0 = sfft(weighted); they are
        # zero off the guard
        layout = self.LAYOUTS[name]
        grid = layout.grid
        rng = np.random.default_rng(5)
        ch = sample_channel(grid, 5, layout.k_max, layout.l_max, rng)
        rx = WindowPair.separable(grid, rx_doppler=dc_window(grid.N, -40.0).coeffs).rx
        noise_tf = 1e-12 * np.abs(rx) ** 2
        residual = noise_tf / (np.abs(rx * tf_channel(ch)) ** 2 + noise_tf)
        guard = layout.guard_mask
        x0 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        dense = circular_operator(_dd_response(residual))[guard.reshape(-1)][:, guard.reshape(-1)]
        exact = np.linalg.solve(dense, x0[guard])
        weights = sfft(_guard_weights(isfft(x0), residual, layout))
        assert np.linalg.norm(weights[guard] - exact) <= 1e-8 * np.linalg.norm(exact)
        assert np.linalg.norm(weights[~guard]) <= 1e-8 * np.linalg.norm(exact)

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_zero_noise_with_known_cells_refused(self, name):
        grid = self.LAYOUTS[name].grid
        with pytest.raises(NumericalFailure):
            tf_lmmse_detect(np.ones(grid.shape), np.ones(grid.shape), np.ones(grid.shape),
                            0.0, Constellation.qpsk(), self.LAYOUTS[name])

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_rx_window_zero_where_the_gains_are_not_refused(self, name):
        # a time slot with fewer than b = 2 l_max + 1 nonzero RX-window bins
        # (and nonzero gains) makes its band block singular; b bins solve
        layout = self.LAYOUTS[name]
        grid, b = layout.grid, 2 * layout.l_max + 1
        rng = np.random.default_rng(7)
        gains = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        for kept in (1, b - 1, b):
            rx = np.ones(grid.shape)
            rx[1, kept:] = 0.0
            detect = lambda: tf_lmmse_detect(np.ones(grid.shape), gains, rx, 0.1,
                                             Constellation.qpsk(), layout)
            if kept < b:
                with pytest.raises(NumericalFailure):
                    detect()
            else:
                assert np.all(np.isfinite(detect().soft))

    def test_are_passing_selfcheck_entries(self):
        results = {r.name: r for r in run_selfcheck()}
        for name in ("detection.tf_lmmse_guard_band_vs_dense",
                     "detection.tf_lmmse_guard_band_layouts_vs_dense"):
            assert results[name].passed, results[name].detail


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
        assert np.array_equal(report.hard_indices, bits)

    def test_masked_stack_decides_the_data_cells_as_lmmse_does(self):
        # both detectors return the layout's data cells in row-major order;
        # on noise-free frames over known taps both decide the sent symbols
        rng = np.random.default_rng(12)
        grid = FrameGrid(M=8, N=16)
        layout = PilotLayout.centered(grid, k_max=2, l_max=2, k_hat=1)
        mask, frames = layout.data_mask, 3
        bpsk = Constellation.bpsk()
        windows = WindowPair.rectangular(grid)
        # |1 + 0.4j e^(i phi)| >= 0.6 on every TF bin
        ch = ChannelRealization((PathSpec(1.0, 1, -1), PathSpec(0.4j, 2, 2)), grid)
        gains = np.broadcast_to(windows.joint * tf_channel(ch), (frames,) + grid.shape)
        taps = effective_dd_channel(ch, windows).taps
        taps = np.broadcast_to(taps, gains.shape)
        sent = rng.integers(0, 2, (frames, int(mask.sum())))
        x = np.zeros(gains.shape, dtype=complex)
        x[:, mask] = bpsk.points[sent]
        # LMMSE reads the TF grids, SPA their DD frames
        r = transmit_frame(x, gains, windows, demodulate=False)
        rx = np.broadcast_to(windows.rx, r.shape)
        lmmse = tf_lmmse_detect(r, gains, rx, 1e-6, bpsk, layout)
        eff = EffectiveDDChannel(taps=taps, truncation=largest_taps(taps, 2))
        spa = spa_detect(sfft(r), eff, 1e-6, bpsk, data_mask=mask)
        assert lmmse.hard_indices.shape == spa.hard_indices.shape == (frames, 63)
        assert np.array_equal(lmmse.hard_indices, sent)
        assert np.array_equal(spa.hard_indices, sent)
        assert spa.marginals.shape == (frames, 63, 2)

    @pytest.mark.parametrize("shape", [(8, 16), (128,), (1, 16, 8)])
    def test_observation_of_another_shape_refused(self, shape):
        taps = np.zeros((16, 8), dtype=complex)
        taps[0, 0] = 1.0
        eff = EffectiveDDChannel(taps=taps, truncation=largest_taps(taps, 1))
        with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*\(16, 8\)"):
            spa_detect(np.zeros(shape), eff, 0.1, Constellation.bpsk())

    @pytest.mark.parametrize("shape", [(8, 16), (4, 4), (128,)])
    def test_mask_of_another_shape_refused(self, shape):
        # a transposed mask has the right size but names other cells
        taps = np.zeros((2, 16, 8), dtype=complex)
        taps[:, 0, 0] = 1.0
        eff = EffectiveDDChannel(taps=taps, truncation=largest_taps(taps, 1))
        with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*\(16, 8\)"):
            spa_detect(np.zeros(taps.shape), eff, 0.1, Constellation.bpsk(),
                       data_mask=np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("n0", [np.full(3, 0.1), np.full((2, 1), 0.1)],
                             ids=["three-values", "column"])
    def test_noise_power_of_another_shape_refused(self, n0):
        # a 2-frame stack takes one noise power or one per frame
        taps = np.zeros((2, 16, 8), dtype=complex)
        taps[:, 0, 0] = 1.0
        eff = EffectiveDDChannel(taps=taps, truncation=largest_taps(taps, 1))
        with pytest.raises(ValueError, match=rf"{re.escape(str(n0.shape))} is neither.*\(2,\)"):
            spa_detect(np.zeros(taps.shape), eff, n0, Constellation.bpsk())

    def test_requires_truncation(self):
        grid = FrameGrid(M=4, N=4)
        eff = EffectiveDDChannel(taps=np.ones(grid.shape, dtype=complex))
        with pytest.raises(ValueError, match="trunc"):
            spa_detect(np.zeros(grid.shape), eff, 0.1, Constellation.bpsk())

    def test_requires_one_truncation_row_per_frame(self):
        # 15 kept indices over a 3-frame stack are not 3 rows of 5
        taps = np.ones((3, 4, 4), dtype=complex)
        for truncation in (largest_taps(taps, 5).reshape(-1), largest_taps(taps[:1], 15)):
            eff = EffectiveDDChannel(taps=taps, truncation=truncation)
            with pytest.raises(ValueError, match="one row per frame"):
                spa_detect(np.zeros(taps.shape), eff, 0.1, Constellation.bpsk())

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
        lmmse = tf_lmmse_detect(isfft(y), taps, np.ones(grid.shape), 0.1, bpsk)
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
