"""Channel generation, effective DD channel, and operator equivalences."""

import itertools
import re

import numpy as np
import pytest

from otfswin import (
    ChannelRealization,
    EffectiveDDChannel,
    FrameGrid,
    PathSpec,
    WindowPair,
    channel_to_text,
    circular_operator,
    delay_power_profile,
    effective_dd_channel,
    largest_taps,
    sample_channel,
    tf_channel,
    transmit_frame,
    vectorize,
)
from otfswin.channel import _dd_response, bounded_draws
from otfswin.oracles import dd_channel_matrix, dd_filter, rect_doppler_response, time_channel

from oracles import (
    assert_same_streams,
    live_stream_state,
    naive_effective_channel,
    python_sum_residual_power,
)


def random_windows(rng, grid):
    return WindowPair(
        tx=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
        rx=rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
    )


class TestPathSampling:
    def test_profile_for_distinct_delays(self):
        got = delay_power_profile(np.arange(5))
        raw = np.exp(-0.1 * np.arange(5))
        assert np.allclose(got, raw / raw.sum(), atol=1e-15)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_path_has_unit_variance(self):
        assert delay_power_profile(np.array([3]))[0] == pytest.approx(1.0)
        rng = np.random.default_rng(0)
        grid = FrameGrid(M=8, N=8)
        power = [sample_channel(grid, 1, 2, 3, rng).total_gain_power() for _ in range(20000)]
        assert np.mean(power) == pytest.approx(1.0, abs=0.02)

    def test_total_power_unbiased_monte_carlo(self):
        # the stated variances imply E[sum |h_i|^2] = 1 for every draw
        rng = np.random.default_rng(1)
        grid = FrameGrid(M=16, N=12)
        total = 0.0
        draws = 100_000
        for _ in range(draws):
            total += sample_channel(grid, 5, 3, 4, rng).total_gain_power()
        assert total / draws == pytest.approx(1.0, abs=0.01)

    def test_bounds_are_enforced(self):
        rng = np.random.default_rng(2)
        grid = FrameGrid(M=8, N=8)
        with pytest.raises(ValueError):
            sample_channel(grid, 0, 2, 3, rng)
        with pytest.raises(ValueError):
            sample_channel(grid, 2, 4, 3, rng)  # k_max above (N-1)/2
        with pytest.raises(ValueError):
            sample_channel(grid, 2, 2, 8, rng)  # l_max above M-1

    def test_fraction_range_and_replacement(self):
        rng = np.random.default_rng(3)
        grid = FrameGrid(M=4, N=8)
        seen_equal_delay = False
        for _ in range(200):
            ch = sample_channel(grid, 4, 3, 1, rng)
            for p in ch.paths:
                assert -0.5 < p.doppler_frac < 0.5
            delays = [p.delay_bin for p in ch.paths]
            seen_equal_delay |= len(set(delays)) < len(delays)
        assert seen_equal_delay  # delays are drawn with replacement

    def test_path_spec_validation(self):
        with pytest.raises(ValueError):
            PathSpec(1.0, -1, 0)
        with pytest.raises(ValueError):
            PathSpec(1.0, 0, 0, doppler_frac=0.5)


class TestBoundedDraws:
    """``bounded_draws`` gives each generator's ``integers(0, spans)``
    values and leaves each stream where that call leaves it; the values,
    the live stream state and the next 32-bit and 64-bit draws must match
    numpy's own call exactly."""

    @staticmethod
    def streams(seed, count=3):
        return [np.random.default_rng([seed, i]) for i in range(count)]

    @staticmethod
    def numpy_draws(generators, spans):
        return np.array([gen.integers(0, spans) for gen in generators]).reshape(
            len(generators), len(spans))

    def assert_matches_numpy(self, got_streams, want_streams, spans, buffered=None):
        got = bounded_draws(got_streams, spans, buffered=buffered)
        # 32-bit products would give half the columns, and wrong values
        assert got.dtype == np.int64 and got.shape == (len(got_streams), len(spans))
        assert np.array_equal(got, self.numpy_draws(want_streams, spans))
        assert_same_streams(got_streams, want_streams)

    # 2**31 + 1 rejects about half of all halves, 2**32 - 1 almost none
    @pytest.mark.parametrize("span", [1, 2, 5, 7, 2**31 + 1, 2**32 - 1])
    @pytest.mark.parametrize("count", [1, 2, 7, 10, 64])
    def test_uniform_spans(self, span, count):
        spans = np.full(count, span)
        seed = [span, count]
        self.assert_matches_numpy(self.streams(seed), self.streams(seed), spans)

    @pytest.mark.parametrize("spans", [
        [5, 5, 7, 7],                     # sample_channel's delays, then Dopplers
        [1, 5, 1, 2**32 - 1, 7, 2],       # spans of 1 draw nothing, and send
        [1, 5, 1, 2**32 - 1, 7, 2, 3],    # the call to numpy's own
        [2**31 + 1, 3, 2**31 + 1, 3] * 4,
    ])
    def test_mixed_spans(self, spans):
        self.assert_matches_numpy(self.streams(len(spans), 5), self.streams(len(spans), 5),
                                  np.array(spans))

    # a power of two 2**k is half >> (32 - k), one shift that never redraws;
    # fresh streams flagged clear read no stream state
    @pytest.mark.parametrize("flags", [False, True], ids=["state-read", "flagged-clear"])
    @pytest.mark.parametrize("span", [4, 8, 2**16, 2**31])
    @pytest.mark.parametrize("count", [1, 2, 7, 10, 64])
    def test_uniform_power_of_two_spans(self, span, count, flags):
        spans = np.full(count, span)
        seed = [span, count]
        buffered = np.zeros(3, dtype=bool) if flags else None
        self.assert_matches_numpy(self.streams(seed), self.streams(seed), spans, buffered)

    @pytest.mark.parametrize("flags", [False, True], ids=["state-read", "flagged-clear"])
    @pytest.mark.parametrize("spans", [
        [4, 8, 2**16, 2**31],
        [2**31, 4, 8, 2**16, 2**31],         # 5 draws
        [1, 4, 8, 1, 2**16, 2**31, 2],       # spans of 1: numpy's own call
        [4, 5, 2**16, 7, 2**31, 2**31 + 1],
        [8, 3, 2**16],
    ])
    def test_mixed_power_of_two_spans(self, spans, flags):
        buffered = np.zeros(5, dtype=bool) if flags else None
        self.assert_matches_numpy(self.streams(len(spans), 5), self.streams(len(spans), 5),
                                  np.array(spans), buffered)

    # 2**31 + 1 rejects about half of all halves: rows redraw through
    # numpy's call, which leaves a half buffered after an odd number of
    # them.  An odd number of draws goes to numpy's call for every row and
    # leaves a half buffered in each
    @pytest.mark.parametrize("bins", [np.full(10, 2**31 + 1), np.full(5, 7)],
                             ids=["redraws", "odd-count"])
    def test_flags_pass_a_buffered_half_on(self, bins):
        # the flags the bin draw sets keep the bit draw after it on numpy's
        # values
        bits = np.full(8, 2)
        got, want = self.streams(31, 6), self.streams(31, 6)
        flags = np.zeros(6, dtype=bool)
        assert np.array_equal(bounded_draws(got, bins, buffered=flags),
                              self.numpy_draws(want, bins))
        held = np.array([gen.bit_generator.state["has_uint32"] for gen in got], dtype=bool)
        assert held.any() and flags[held].all()
        # flags left clear would skip the buffered halves
        stale, fresh = self.streams(31, 6), self.streams(31, 6)
        bounded_draws(stale, bins)
        self.numpy_draws(fresh, bins)
        assert not np.array_equal(bounded_draws(stale, bits, buffered=np.zeros(6, dtype=bool)),
                                  self.numpy_draws(fresh, bits))
        self.assert_matches_numpy(got, want, bits, flags)

    def test_flags_of_another_count_are_refused(self):
        with pytest.raises(ValueError, match="buffered"):
            bounded_draws(self.streams(15), np.full(4, 5), buffered=np.zeros(2, dtype=bool))

    def test_a_redraw_rewinds_the_row(self):
        # 2**31 + 1 rejects about half of all halves, so some row redraws
        # and its stream ends past the 8 words of its 16 halves
        spans = np.full(16, 2**31 + 1)
        self.assert_matches_numpy(self.streams(11, 4), self.streams(11, 4), spans)
        streams = self.streams(11, 4)
        bounded_draws(streams, spans)
        unredrawn = [np.random.PCG64(np.random.SeedSequence([11, i])).advance(8)
                     for i in range(4)]
        assert any(live_stream_state(gen.bit_generator) != live_stream_state(plain)
                   for gen, plain in zip(streams, unredrawn))

    @pytest.mark.parametrize("count", [2, 7])
    def test_a_buffered_half_is_drawn_first(self, count):
        got, want = self.streams(12), self.streams(12)
        for gen in (got[1], want[1]):
            gen.integers(0, 2, 1)   # leaves the high half of a word buffered
        assert got[1].bit_generator.state["has_uint32"] == 1
        self.assert_matches_numpy(got, want, np.full(count, 5))

    @pytest.mark.parametrize("spans", [[5, 7, 3, 2**32 - 1], [2**31 + 1, 3]])
    def test_a_generator_listed_twice_draws_in_turn(self, spans):
        # under the second spans about half the rows redraw; for some of
        # these seeds one row of the twice-listed generator redraws and its
        # other row does not, and the redraw must not undo the other's words
        for seed in range(16, 24):
            got, want = self.streams(seed), self.streams(seed)
            self.assert_matches_numpy([got[0], got[1], got[0], got[2]],
                                      [want[0], want[1], want[0], want[2]], np.array(spans))

    def test_no_draws(self):
        got, want = self.streams(14), self.streams(14)
        for spans in (np.ones(4, dtype=np.int64), np.zeros(0, dtype=np.int64)):
            assert bounded_draws(got, spans).shape == (3, spans.size)
            assert not bounded_draws(got, spans).any()
        assert_same_streams(got, want)
        none = bounded_draws([], np.full(4, 5))
        assert none.shape == (0, 4) and none.dtype == np.int64

    @pytest.mark.parametrize("spans", [[0, 2], [2, 2**32], [-3], [[2, 2]], [2.0, 2.0]])
    def test_bad_spans_are_refused(self, spans):
        with pytest.raises(ValueError, match="spans"):
            bounded_draws(self.streams(15), np.array(spans))


class TestTFChannel:
    def test_flat_for_trivial_path(self):
        grid = FrameGrid(M=4, N=4)
        ch = ChannelRealization((PathSpec(1.0, 0, 0),), grid)
        assert np.allclose(tf_channel(ch), np.ones((4, 4)), atol=1e-14)

    def test_pure_delay_gives_subcarrier_phase_ramp(self):
        grid = FrameGrid(M=4, N=2)
        ch = ChannelRealization((PathSpec(1.0, 1, 0),), grid)
        m = np.arange(4)
        expect = np.exp(-1j * np.pi * m / 2)[None, :] * np.ones((2, 1))
        assert np.allclose(tf_channel(ch), expect, atol=1e-14)

    @staticmethod
    def _with_delay_bins(bins):
        grid = FrameGrid(M=8, N=4)
        bins = np.asarray(bins)
        return ChannelRealization.from_arrays(
            grid, np.ones(bins.shape, dtype=complex), bins,
            np.zeros(bins.shape, dtype=np.int64), np.zeros(bins.shape))

    def test_negative_delay_bins_are_refused_by_name(self):
        # a negative bin would index the delay-phase table from its end
        for bins, named in (([0, -1, 2, -3, -1], "[-3, -1]"), ([[1, 2], [-4, 0]], "[-4]")):
            with pytest.raises(ValueError, match=re.escape(
                    f"delay bins must be nonnegative, got {named}")) as info:
                tf_channel(self._with_delay_bins(np.array(bins, dtype=np.int64)))
            assert "\n" not in str(info.value)

    def test_delay_bins_of_another_dtype_are_refused_by_name(self):
        for bins, named in (([0.0, 1.5, 2.0], "float64 bins [0.0, 1.5, 2.0]"),
                            ([True, False], "bool bins [False, True]")):
            with pytest.raises(ValueError, match=re.escape(
                    f"delay bins must be integers, got {named}")) as info:
                tf_channel(self._with_delay_bins(bins))
            assert "\n" not in str(info.value)

    def test_delay_bins_at_or_past_m_are_valid(self):
        # bin l and bin l + M give the same phases up to rounding
        ch = self._with_delay_bins([[3, 8, 17]])
        low = self._with_delay_bins([[3, 0, 1]])
        assert np.allclose(tf_channel(ch), tf_channel(low), atol=1e-12)


class TestTimeChannel:
    def test_identity_gains_give_identity(self):
        assert np.allclose(time_channel(np.ones((3, 4))), np.eye(12), atol=1e-12)

    def test_two_point_hand_oracle(self):
        # single slot, two subcarriers with gains (1, -1): a swap matrix
        h_t = time_channel(np.array([[1.0, -1.0]]))
        assert np.allclose(h_t, np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_unitary_iff_unimodular_gains(self):
        rng = np.random.default_rng(5)
        phases = np.exp(2j * np.pi * rng.random((3, 3)))
        h_t = time_channel(phases)
        assert np.allclose(h_t @ h_t.conj().T, np.eye(9), atol=1e-12)
        h_t = time_channel(phases * 0.5)
        assert not np.allclose(h_t @ h_t.conj().T, np.eye(9), atol=1e-6)

    def test_scale_bound(self):
        with pytest.raises(ValueError):
            time_channel(np.ones((65, 64)))


class TestDDFilter:
    def test_rectangular_at_origin_is_one(self):
        grid = FrameGrid(M=8, N=8)
        w = WindowPair.rectangular(grid)
        assert dd_filter(w, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_rectangular_integer_offsets_vanish(self):
        grid = FrameGrid(M=8, N=16)
        w = WindowPair.rectangular(grid)
        for dk in (1, 5, 15, -3):
            assert abs(dd_filter(w, dk, 0.0)) < 1e-12

    def test_rectangular_half_bin_magnitude(self):
        grid = FrameGrid(M=8, N=16)
        w = WindowPair.rectangular(grid)
        expect = 1.0 / (16 * np.sin(np.pi / 32))
        assert abs(dd_filter(w, 0.5, 0.0)) == pytest.approx(expect, rel=1e-10)
        assert expect == pytest.approx(0.6376, abs=5e-4)

    def test_closed_forms_match_direct_summation(self):
        rng = np.random.default_rng(6)
        grid = FrameGrid(M=8, N=16)
        w = WindowPair.rectangular(grid)
        for _ in range(1000):
            dk = rng.uniform(-2 * grid.N, 2 * grid.N)
            dl = rng.uniform(-2 * grid.M, 2 * grid.M)
            # the delay exponent has the opposite sign: the conjugate response
            closed = complex(
                rect_doppler_response(dk, grid.N) * np.conj(rect_doppler_response(dl, grid.M))
            )
            assert abs(closed - dd_filter(w, dk, dl)) < 1e-10


class TestNoiseFilter:
    # the RX window filters the TF noise by its own DD response
    def test_flat_window_gives_delta(self):
        v = np.ones((4, 8))
        out = _dd_response(v)
        assert out[0, 0] == pytest.approx(1.0)
        out[0, 0] = 0
        assert np.max(np.abs(out)) < 1e-12

    def test_slot_phase_ramp_shifts_the_delta(self):
        n, m = 8, 4
        v = np.exp(2j * np.pi * np.arange(n) / n)[:, None] * np.ones((1, m))
        out = _dd_response(v)
        assert out[1, 0] == pytest.approx(1.0)
        out[1, 0] = 0
        assert np.max(np.abs(out)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = _dd_response(v)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(
            np.sum(np.abs(v) ** 2) / 16, rel=1e-12
        )


class TestEffectiveChannel:
    def test_integer_doppler_keeps_exact_sparsity(self):
        grid = FrameGrid(M=8, N=8)
        paths = (
            PathSpec(0.7 - 0.2j, 2, 3),
            PathSpec(-0.4 + 0.5j, 5, -2),
        )
        ch = ChannelRealization(paths, grid)
        eff = effective_dd_channel(ch, WindowPair.rectangular(grid))
        nonzero = np.abs(eff.taps) > 1e-12
        assert np.count_nonzero(nonzero) == 2
        for p in paths:
            k = p.doppler_bin % grid.N
            expect = p.gain * np.exp(
                -2j * np.pi * p.doppler_bin * p.delay_bin / (grid.N * grid.M)
            )
            assert eff.taps[k, p.delay_bin] == pytest.approx(expect, abs=1e-12)

    def test_trivial_path_gives_delta(self):
        grid = FrameGrid(M=4, N=4)
        ch = ChannelRealization((PathSpec(1.0, 0, 0),), grid)
        eff = effective_dd_channel(ch, WindowPair.rectangular(grid))
        assert eff.taps[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(eff.taps)) == pytest.approx(1.0, abs=1e-10)

    def test_fractional_path_matches_dense_matrix_first_column(self):
        # the dense DD matrix applied to a DD impulse is the tap vector
        rng = np.random.default_rng(9)
        grid = FrameGrid(M=8, N=8)
        ch = ChannelRealization((PathSpec(0.9 + 0.1j, 2, 1, 0.37),), grid)
        windows = WindowPair.rectangular(grid)
        eff = effective_dd_channel(ch, windows)
        h_dd = dd_channel_matrix(ch, windows)
        assert np.allclose(vectorize(eff.taps), h_dd[:, 0], atol=1e-10)

    def test_matches_naive_offset_evaluation(self):
        rng = np.random.default_rng(10)
        grid = FrameGrid(M=4, N=4)
        ch = sample_channel(grid, 2, 1, 2, rng)
        windows = random_windows(rng, grid)
        naive = naive_effective_channel(ch, windows)
        eff = effective_dd_channel(ch, windows)
        assert np.allclose(eff.taps, naive, atol=1e-10)

    def test_filter_is_periodic_over_the_grid(self):
        # shifting an offset by a full period leaves the DD filter unchanged,
        # so the modular tap storage loses nothing
        rng = np.random.default_rng(11)
        grid = FrameGrid(M=4, N=6)
        w = random_windows(rng, grid)
        for _ in range(10):
            dk, dl = rng.uniform(-3, 3, 2)
            assert dd_filter(w, dk + grid.N, dl) == pytest.approx(
                dd_filter(w, dk, dl), abs=1e-12
            )
            assert dd_filter(w, dk, dl + grid.M) == pytest.approx(
                dd_filter(w, dk, dl), abs=1e-12
            )

    def test_truncation_orders_by_magnitude_with_lexicographic_ties(self):
        taps = np.zeros((2, 3), dtype=complex)
        taps[0, 1] = 0.5
        taps[1, 0] = 0.5
        taps[0, 2] = 1.0
        doppler, delay = np.divmod(largest_taps(taps, 2), taps.shape[1])
        assert (doppler[0], delay[0]) == (0, 2)
        assert (doppler[1], delay[1]) == (0, 1)  # tie broken by (k, l)
        assert largest_taps(taps, 2).dtype == np.int64
        # zeros never picked
        assert np.array_equal(largest_taps(taps, 10), largest_taps(taps, 3))
        with pytest.raises(ValueError):
            largest_taps(taps, 0)

    def test_residual_power_accounting(self):
        rng = np.random.default_rng(12)
        grid = FrameGrid(M=4, N=4)
        ch = sample_channel(grid, 2, 1, 2, rng)
        eff = effective_dd_channel(ch, WindowPair.rectangular(grid), truncate_to=3)
        kept = np.sum(np.abs(eff.taps.reshape(-1)[eff.truncation]) ** 2)
        assert eff.residual_power() == pytest.approx(eff.total_power() - kept, abs=1e-12)

    def test_stacked_largest_taps_pads_each_frame_with_minus_one(self):
        rng = np.random.default_rng(31)
        taps = rng.standard_normal((6, 4, 5)) + 1j * rng.standard_normal((6, 4, 5))
        taps[rng.random(taps.shape) < 0.6] = 0.0
        taps[1] = 0.0                                      # an all-zero frame
        taps[2] = 0.0                                      # three tied magnitudes
        taps[2, 3, 4], taps[2, 1, 0], taps[2, 0, 1] = 0.5, -0.5, 0.5j
        assert np.count_nonzero(taps[3]) < 7 <= taps[3].size
        for count in (1, 3, 7, 20):                        # 7 and 20 above most frames' nonzeros
            rows = largest_taps(taps, count)
            assert rows.shape == (6, count) and rows.dtype == np.int64
            for frame, row in zip(taps, rows):
                alone = largest_taps(frame, count)
                assert np.array_equal(row, np.concatenate([alone, np.full(count - alone.size, -1)]))
        rows = largest_taps(taps, 7)
        assert np.array_equal(rows[1], np.full(7, -1))
        assert np.array_equal(rows[2], [1, 5, 19, -1, -1, -1, -1])  # ties in (k, l) order

    def test_stacked_residual_power_is_bitwise_each_frames(self):
        # magnitudes over eight decades, sparse frames, an all-zero frame and
        # rows with fewer kept taps than the width: every frame's value is
        # bit for bit its value alone and the Python-sum formula, which
        # squares each kept tap by multiplication
        rng = np.random.default_rng(32)
        shape = (400, 16, 8)
        taps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        taps *= 10.0 ** rng.uniform(-6.0, 2.0, (shape[0], 1, 1))
        taps[rng.random(shape) < 0.8] = 0.0
        taps[7] = 0.0
        # a kept tap whose square by pow is one ulp from its correctly
        # rounded square, beside a small tap outside the truncation
        taps[0] = 0.0
        taps[0, 0, 0], taps[0, 1, 1] = 0.6065823382127262, 1e-3j
        assert 0.6065823382127262 ** 2 != 0.6065823382127262 * 0.6065823382127262
        rows = largest_taps(taps, 12)                      # sums of more than 8 terms
        rows[::3, 3:] = -1
        rows[0] = -1
        rows[0, 0] = 0
        stacked = EffectiveDDChannel(taps=taps, truncation=rows).residual_power()
        assert stacked.shape == (shape[0],)
        for frame, row, value in zip(taps, rows, stacked.tolist()):
            kept = row[row >= 0]
            alone = EffectiveDDChannel(taps=frame, truncation=kept).residual_power()
            assert type(alone) is float
            assert value == alone == python_sum_residual_power(frame, kept)


class TestVectorizedOperators:
    def test_trivial_channel_gives_identity_matrix(self):
        grid = FrameGrid(M=4, N=4)
        ch = ChannelRealization((PathSpec(1.0, 0, 0),), grid)
        h_dd = dd_channel_matrix(ch, WindowPair.rectangular(grid))
        assert np.allclose(h_dd, np.eye(16), atol=1e-12)

    def test_dense_matrix_equals_circular_convolution(self):
        rng = np.random.default_rng(13)
        grid = FrameGrid(M=4, N=4)
        ch = ChannelRealization(
            (PathSpec(0.8, 1, 1), PathSpec(0.3 - 0.6j, 2, -1)), grid
        )
        windows = WindowPair.rectangular(grid)
        h_dd = dd_channel_matrix(ch, windows)
        eff = effective_dd_channel(ch, windows)
        x = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        via_matrix = (h_dd @ vectorize(x)).reshape(grid.shape)
        via_conv = (circular_operator(eff.taps) @ vectorize(x)).reshape(grid.shape)
        assert np.allclose(via_matrix, via_conv, atol=1e-10)

    def test_unimodular_rx_window_leaves_fisher_term_invariant(self):
        rng = np.random.default_rng(14)
        grid = FrameGrid(M=4, N=4)
        ch = sample_channel(grid, 2, 1, 3, rng)
        plain = WindowPair.rectangular(grid)
        phases = np.exp(2j * np.pi * rng.random(grid.shape))
        shaped = WindowPair(tx=np.ones(grid.shape), rx=phases)
        n0 = 0.1
        h0 = dd_channel_matrix(ch, plain)
        h1 = dd_channel_matrix(ch, shaped)
        # identity-scaled covariance for both (unimodular rx keeps noise white)
        fisher0 = h0.conj().T @ h0 / n0
        fisher1 = h1.conj().T @ h1 / n0
        assert np.allclose(fisher0, fisher1, atol=1e-9)

    def test_fast_chain_equals_dense_model_with_random_windows(self):
        rng = np.random.default_rng(15)
        for m, n in itertools.product((4, 8), repeat=2):
            grid = FrameGrid(M=m, N=n)
            ch = sample_channel(grid, 3, (n - 1) // 2, m - 1, rng)
            windows = random_windows(rng, grid)
            x = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            fast = transmit_frame(x, tf_channel(ch), windows)
            dense = (dd_channel_matrix(ch, windows) @ vectorize(x)).reshape(grid.shape)
            assert np.allclose(fast, dense, atol=1e-9)


class TestEffectiveChannelPower:
    # with the rectangular pair the DD filter is a unitary image of the
    # window, so distinct paths add no inter-path power
    def test_integer_doppler_rectangular_conserves_power(self):
        grid = FrameGrid(M=8, N=8)
        ch = ChannelRealization(
            (PathSpec(0.7, 1, 2), PathSpec(0.2 + 0.4j, 3, -1)), grid
        )
        total = effective_dd_channel(ch, WindowPair.rectangular(grid)).total_power()
        assert total == pytest.approx(ch.total_gain_power(), abs=1e-10)

    def test_single_path_has_no_cross_term(self):
        grid = FrameGrid(M=8, N=8)
        ch = ChannelRealization((PathSpec(0.9, 1, 1, 0.3),), grid)
        total = effective_dd_channel(ch, WindowPair.rectangular(grid)).total_power()
        assert total == pytest.approx(ch.total_gain_power(), abs=1e-10)

    def test_mean_total_power_preserved_for_same_delay_paths(self):
        # two equal-delay paths with different fractional Doppler: the
        # inter-spread vanishes only on average over independent gains
        rng = np.random.default_rng(16)
        grid = FrameGrid(M=8, N=8)
        windows = WindowPair.rectangular(grid)
        base = ChannelRealization(
            (PathSpec(1.0, 2, 1, 0.31), PathSpec(1.0, 2, -1, -0.17)), grid
        )
        # per-path filter vectors are fixed; only the gains are redrawn
        shapes = []
        for p in base.paths:
            solo = ChannelRealization((PathSpec(1.0, p.delay_bin, p.doppler_bin, p.doppler_frac),), grid)
            shapes.append(vectorize(effective_dd_channel(solo, windows).taps))
        shapes = np.stack(shapes)
        draws = 100_000
        gains = (rng.standard_normal((draws, 2)) + 1j * rng.standard_normal((draws, 2))) / 2.0
        totals = np.sum(np.abs(gains @ shapes) ** 2, axis=1)
        gain_power = np.sum(np.abs(gains) ** 2, axis=1)
        assert np.mean(totals) == pytest.approx(np.mean(gain_power), rel=0.01)
        # while individual snapshots do move
        assert np.std(totals - gain_power) > 0.01


class TestSerialization:
    def test_one_exact_line_per_path(self):
        rng = np.random.default_rng(17)
        grid = FrameGrid(M=16, N=12)
        ch = sample_channel(grid, 5, 3, 4, rng)
        lines = channel_to_text(ch).splitlines()
        assert len(lines) == 5
        for line, path in zip(lines, ch.paths):
            re, im, l, k, frac = line.split()
            assert complex(float(re), float(im)) == path.gain
            assert (int(l), int(k), float(frac)) == (
                path.delay_bin, path.doppler_bin, path.doppler_frac)

    @pytest.mark.parametrize("gain", [
        complex("nan+0j"), complex(0, float("nan")), complex("inf+0j"), complex(0, float("-inf")),
    ])
    def test_non_finite_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="finite"):
            PathSpec(gain=gain, delay_bin=1, doppler_bin=0, doppler_frac=0.1)
