"""Frame geometry, constellation mapping, and vectorization order."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from otfswin import Constellation, FrameGrid, map_symbols, vectorize
from otfswin.harness import ExperimentConfig


class TestFrameGrid:
    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            FrameGrid(M=1, N=8)
        with pytest.raises(ValueError):
            FrameGrid(M=8, N=1)
        with pytest.raises(ValueError):
            FrameGrid(M=8, N=8, delta_f=0.0)

    def test_microwave_example_resolutions(self):
        # 3 GHz carrier, 15 MHz bandwidth over 1024 subcarriers, 16 slots:
        # a speed resolution near 91.5 m/s
        grid = FrameGrid(M=1024, N=16, delta_f=15e6 / 1024, fc=3e9)
        assert grid.speed_resolution == pytest.approx(91.55, rel=1e-3)

    def test_doppler_resolution_is_spacing_over_slots(self):
        grid = FrameGrid(M=20, N=20, delta_f=5e3)
        assert grid.doppler_resolution == pytest.approx(250.0)

    def test_max_resolvable_speed_matches_hand_value(self):
        # oracle: k_max * delta_f/N * c/fc, evaluated independently
        c = 299792458.0
        k_max, delta_f, n, fc = 3, 5e3, 20, 3e9
        oracle_ms = k_max * delta_f / n * c / fc
        grid = FrameGrid(M=30, N=n, delta_f=delta_f, fc=fc)
        speed = k_max * grid.speed_resolution
        assert speed == pytest.approx(oracle_ms, rel=1e-12)
        assert speed * 3.6 == pytest.approx(270.0, rel=1e-3)  # km/h

    def test_implied_speed_keeps_its_bytes(self):
        # the run sidecar records this value; it must not move in the last bit
        assert repr(ExperimentConfig().implied_max_speed_kmh()) == "269.8132122"


class TestConstellations:
    @pytest.mark.parametrize("name", ["bpsk", "qpsk"])
    def test_unit_average_energy(self, name):
        c = Constellation.by_name(name)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_bpsk_sign_convention(self):
        c = Constellation.bpsk()
        assert c.points[c.bits_to_indices(np.array([0]))][0] == 1.0
        assert c.points[c.bits_to_indices(np.array([1]))][0] == -1.0

    def test_qpsk_gray_map_first_point(self):
        c = Constellation.qpsk()
        assert c.points[c.bits_to_indices(np.array([0, 0]))][0] == \
            pytest.approx((1 + 1j) / np.sqrt(2))

    def test_qpsk_gray_neighbors_differ_in_one_bit(self):
        c = Constellation.qpsk()
        for i, j in itertools.combinations(range(4), 2):
            hamming = bin(i ^ j).count("1")
            dist = abs(c.points[i] - c.points[j])
            if hamming == 1:
                assert dist == pytest.approx(np.sqrt(2), rel=1e-12)
            else:
                assert dist == pytest.approx(2.0, rel=1e-12)

    def test_qpsk_round_trip(self):
        grid = FrameGrid(M=8, N=4)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 2 * grid.size)
        c = Constellation.qpsk()
        frame = map_symbols(c.bits_to_indices(bits), c, grid)
        assert np.array_equal(c.nearest_indices(frame), c.bits_to_indices(bits))

    @pytest.mark.parametrize("c, labels, match", [
        (Constellation.bpsk(), np.zeros(15, dtype=int), "16 labels"),
        (Constellation.qpsk(), np.zeros((2, 17), dtype=int), "16 labels"),
        (Constellation.qpsk(), np.zeros(0, dtype=int), "16 labels"),
        (Constellation.bpsk(), np.r_[np.zeros(15, dtype=int), -1], r"\[0, 2\)"),
        (Constellation.bpsk(), np.r_[np.zeros(15, dtype=int), 2], r"\[0, 2\)"),
        (Constellation.qpsk(), np.r_[np.zeros(15, dtype=int), -1], r"\[0, 4\)"),
        (Constellation.qpsk(), np.r_[np.zeros(15, dtype=int), 4], r"\[0, 4\)"),
        (Constellation.qpsk(), np.zeros(16), "integers"),
    ])
    def test_map_symbols_refuses_a_wrong_label_count_or_label(self, c, labels, match):
        grid = FrameGrid(M=4, N=4)
        with pytest.raises(ValueError, match=match) as info:
            map_symbols(labels, c, grid)
        assert "\n" not in str(info.value)

    def test_masked_mapping_fills_only_data_cells(self):
        grid = FrameGrid(M=4, N=4)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[1, :] = True
        labels = np.array([0, 1, 0, 1])
        frame = map_symbols(labels, Constellation.bpsk(), grid, mask=mask)
        assert np.array_equal(frame[1, :], [1, -1, 1, -1])
        assert np.count_nonzero(frame) == 4
        assert np.array_equal(Constellation.bpsk().nearest_indices(frame[mask]), labels)
        with pytest.raises(ValueError, match="4 labels"):
            map_symbols(labels[:3], Constellation.bpsk(), grid, mask=mask)
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            map_symbols(labels + 1, Constellation.bpsk(), grid, mask=mask)

    @pytest.mark.parametrize("c", [Constellation.bpsk(), Constellation.qpsk()],
                             ids=lambda c: c.name)
    def test_popcount_at_xor_counts_the_differing_bits_of_every_label_pair(self, c):
        # the oracle's bits of each label invert bits_to_indices, and the
        # table counts the bits in which two labels differ
        labels = range(c.points.size)
        for a in labels:
            assert c.bits_to_indices(oracles.label_bits(c, [a])).tolist() == [a]
        for a, b in itertools.product(labels, repeat=2):
            differing = np.count_nonzero(oracles.label_bits(c, [a]) != oracles.label_bits(c, [b]))
            assert c.popcount[a ^ b] == differing
        with pytest.raises(ValueError, match="read-only"):
            c.popcount[0] = 1

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Constellation.by_name("16qam")


def _around(x: float) -> list[float]:
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


# 1e-6 and 1e3, the edges of the band where the float distance argmin
# agrees with the exact nearest point, and their neighbours; exact point
# coordinates, signed zeros, huge, subnormal and non-finite values
EDGES = sorted({v for x in (1e-6, 1e3, 1.0, 1.0 / np.sqrt(2.0)) for v in _around(x)}
               | {0.0, 1e20, 1e-300, 5e-324, 2.2250738585072014e-308, 1e-310, np.inf})
COORDS = [sign * v for v in EDGES for sign in (1.0, -1.0)] + [np.nan]
FINITE = [v for v in COORDS if np.isfinite(v)]
finite_coordinate = st.one_of(st.sampled_from(FINITE),
                              st.floats(min_value=-1e300, max_value=1e300),
                              st.floats(min_value=-2e-6, max_value=2e-6),
                              st.floats(min_value=-2e3, max_value=2e3))
in_band_coordinate = st.floats(min_value=1e-6, max_value=1e3).flatmap(
    lambda v: st.sampled_from([v, -v]))
ALPHABETS = [Constellation.bpsk(), Constellation.qpsk()]


def _symbols(re, im):
    symbols = np.empty(np.size(re), dtype=complex)
    symbols.real, symbols.imag = np.reshape(re, -1), np.reshape(im, -1)
    return symbols


class TestSlicing:
    @pytest.mark.parametrize("c", ALPHABETS, ids=lambda c: c.name)
    def test_every_pair_of_edge_coordinates_slices_as_the_exact_nearest_point(self, c):
        symbols = _symbols(*np.meshgrid(FINITE, FINITE))
        assert np.array_equal(c.nearest_indices(symbols),
                              oracles.exact_nearest_indices(c, symbols))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(finite_coordinate, finite_coordinate), min_size=1, max_size=12))
    def test_nearest_indices_is_the_exact_nearest_point(self, pairs):
        symbols = np.array([complex(re, im) for re, im in pairs])
        for c in ALPHABETS:
            assert np.array_equal(c.nearest_indices(symbols),
                                  oracles.exact_nearest_indices(c, symbols))

    @pytest.mark.parametrize("c", ALPHABETS, ids=lambda c: c.name)
    def test_infinite_and_nan_coordinates_read_by_sign(self, c):
        # an infinite coordinate slices as any finite one of its sign, a NaN
        # as a non-negative one
        for odd, stand_in in ((np.inf, 1.0), (-np.inf, -1.0), (np.nan, 1.0)):
            for other in FINITE:
                for re, im, finite_re, finite_im in ((odd, other, stand_in, other),
                                                     (other, odd, other, stand_in)):
                    assert c.nearest_indices(_symbols(re, im)).tolist() == \
                        oracles.exact_nearest_indices(c, _symbols(finite_re, finite_im)).tolist()
        symbols = _symbols([np.nan, -np.inf, np.inf, np.nan], [np.nan, -np.inf, np.nan, -np.inf])
        assert c.nearest_indices(symbols).tolist() == \
            {"BPSK": [0, 1, 0, 0], "QPSK": [0, 3, 0, 1]}[c.name]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(in_band_coordinate, in_band_coordinate), min_size=1, max_size=12))
    def test_in_band_symbols_slice_as_the_float_distance_argmin(self, pairs):
        symbols = np.array([complex(re, im) for re, im in pairs])
        for c in ALPHABETS:
            assert np.array_equal(c.nearest_indices(symbols),
                                  oracles.distance_argmin_indices(c, symbols))

    def test_ties_and_far_symbols_take_the_nearer_point(self):
        # the float distance argmin rounds both distances of the first two
        # to one value and returns the farther point; the third lies on the
        # tie line re = 0, which goes to the lower index
        symbols = np.array([-1e-17 + 0j, -1e17 + 0j, complex(-0.0, -1e-300)])
        assert Constellation.bpsk().nearest_indices(symbols).tolist() == [1, 1, 0]
        assert Constellation.qpsk().nearest_indices(symbols).tolist() == [2, 2, 1]
        assert Constellation.bpsk().nearest_indices(symbols[:2]).tolist() != \
            oracles.distance_argmin_indices(Constellation.bpsk(), symbols[:2]).tolist()

    def test_in_band_symbols_take_the_sign_labels(self):
        symbols = np.array([0.5 + 0.5j, 0.5 - 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 3e-6 - 9e2j])
        assert Constellation.qpsk().nearest_indices(symbols).tolist() == [0, 1, 2, 3, 1]
        assert Constellation.bpsk().nearest_indices(symbols).tolist() == [0, 0, 1, 1, 0]

    @pytest.mark.parametrize("points", [
        Constellation.qpsk().points[[3, 0, 1, 2]],  # the QPSK points in another labelling
        Constellation.bpsk().points[::-1],
        np.array([1.0, 1j, -1.0, -1j]),
        np.array([1.0, -1.0, 1j, -1j, 1.0, -1.0, 1j, -1j]),
        np.array([2.0, -2.0]),
        np.array([np.nan, -1.0]),
    ])
    def test_other_point_sets_are_refused(self, points):
        # the sign rule holds for the BPSK and QPSK points in their labelling only
        with pytest.raises(ValueError, match="BPSK or the QPSK point set"):
            Constellation("other", points)

    def test_points_are_a_read_only_copy(self):
        # the point set is checked once, at construction
        points = np.array(Constellation.qpsk().points)
        c = Constellation("QPSK", points)
        points[0] = -points[0]
        assert c.points[0] == -points[0]
        with pytest.raises(ValueError, match="read-only"):
            c.points[0] = points[0]

    def test_a_strided_frame_slices_as_its_copy(self):
        frame = np.random.default_rng(5).standard_normal((6, 8)) * (1 + 1j)
        c = Constellation.qpsk()
        assert np.array_equal(c.nearest_indices(frame[:, ::3]),
                              oracles.exact_nearest_indices(c, frame[:, ::3]))

    @pytest.mark.parametrize("c, bits, labels", [
        (Constellation.qpsk(), [0, 0, 0, 1, 1, 0, 1, 1], [0, 1, 2, 3]),
        (Constellation.bpsk(), [0, 1, 1], [0, 1, 1]),
        (Constellation.qpsk(), [], []),
    ])
    def test_bits_to_indices_labels_first_bit_most_significant(self, c, bits, labels):
        assert c.bits_to_indices(np.array(bits, dtype=np.int64)).tolist() == labels

    @pytest.mark.parametrize("c, bits, match", [
        (Constellation.qpsk(), [0, 1, 2, 0], "0 or 1"),
        (Constellation.qpsk(), [1, -1], "0 or 1"),
        (Constellation.bpsk(), [2], "0 or 1"),
        (Constellation.bpsk(), [0, -1], "0 or 1"),
        (Constellation.qpsk(), [0, 1, 1], "multiple"),
        (Constellation.qpsk(), [[0, 1], [1, 0]], "multiple"),
    ])
    def test_bits_to_indices_rejects_bad_bits(self, c, bits, match):
        with pytest.raises(ValueError, match=match):
            c.bits_to_indices(np.array(bits))


class TestVectorization:
    def test_round_trip_and_index_order_exhaustive(self):
        # the (k, l) entry must sit at vector index k*M + l for every size
        for m, n in itertools.product(range(2, 65), repeat=2):
            frame = np.arange(n * m).reshape(n, m)
            vec = vectorize(frame)
            k, l = (n - 1, m - 1)
            assert vec[k * m + l] == frame[k, l]
            assert vec[0] == frame[0, 0]
            assert np.array_equal(vec.reshape(n, m), frame)
            # full index law, vectorized
            kk, ll = np.divmod(np.arange(n * m), m)
            assert np.array_equal(vec[kk * m + ll], frame[kk, ll])
