"""Frame geometry, constellation mapping, and vectorization order."""

import itertools

import numpy as np
import pytest

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
        assert c.modulate(np.array([0]))[0] == 1.0
        assert c.modulate(np.array([1]))[0] == -1.0

    def test_qpsk_gray_map_first_point(self):
        c = Constellation.qpsk()
        assert c.modulate(np.array([0, 0]))[0] == pytest.approx((1 + 1j) / np.sqrt(2))

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
        frame = map_symbols(bits, c, grid)
        assert np.array_equal(c.indices_to_bits(c.nearest_indices(frame)), bits)

    def test_bit_count_mismatch_rejected(self):
        grid = FrameGrid(M=4, N=4)
        with pytest.raises(ValueError, match="bits"):
            map_symbols(np.zeros(5, dtype=int), Constellation.bpsk(), grid)

    def test_masked_mapping_fills_only_data_cells(self):
        grid = FrameGrid(M=4, N=4)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[1, :] = True
        bits = np.array([0, 1, 0, 1])
        frame = map_symbols(bits, Constellation.bpsk(), grid, mask=mask)
        assert np.array_equal(frame[1, :], [1, -1, 1, -1])
        assert np.count_nonzero(frame) == 4
        assert np.array_equal(Constellation.bpsk().nearest_indices(frame[mask]), bits)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Constellation.by_name("16qam")


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
