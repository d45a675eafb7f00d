"""DD/TF transforms against impulse identities and the dense Kronecker oracle."""

import itertools

import numpy as np
import pytest

from otfswin import isfft, sfft, vectorize
from otfswin.oracles import build_kron_operators


def random_frame(rng, n, m):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestISFFT:
    def test_impulse_maps_to_flat_grid(self):
        n, m = 4, 8
        x = np.zeros((n, m), dtype=complex)
        x[0, 0] = 1.0
        expect = np.full((n, m), 1.0 / np.sqrt(n * m))
        assert np.allclose(isfft(x), expect, atol=1e-12)

    def test_all_ones_maps_to_single_bin(self):
        n, m = 4, 4
        x = np.ones((n, m), dtype=complex)
        out = isfft(x)
        assert out[0, 0] == pytest.approx(np.sqrt(n * m))
        out[0, 0] = 0.0
        assert np.max(np.abs(out)) < 1e-12

    def test_matches_dense_modulator(self):
        rng = np.random.default_rng(1)
        x = random_frame(rng, 4, 4)
        ops = build_kron_operators(4, 4)
        dense = (ops.modulator @ vectorize(x)).reshape(4, 4)
        assert np.allclose(isfft(x), dense, atol=1e-12)


class TestSFFT:
    def test_inverts_isfft(self):
        rng = np.random.default_rng(2)
        x = random_frame(rng, 8, 8)
        assert np.allclose(sfft(isfft(x)), x, atol=1e-10)

    def test_impulse_maps_to_flat_grid(self):
        n, m = 4, 8
        y = np.zeros((n, m), dtype=complex)
        y[0, 0] = 1.0
        assert np.allclose(sfft(y), np.full((n, m), 1.0 / np.sqrt(n * m)), atol=1e-12)

    def test_matches_dense_demodulator(self):
        rng = np.random.default_rng(3)
        n, m = 5, 3
        y = random_frame(rng, n, m)
        ops = build_kron_operators(m, n)
        dense = (ops.demodulator @ vectorize(y)).reshape(n, m)
        assert np.allclose(sfft(y), dense, atol=1e-12)

    def test_parseval_energy_preserved(self):
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((1000, 6, 5)) + 1j * rng.standard_normal((1000, 6, 5))
        for x in frames:
            assert np.linalg.norm(isfft(x)) == pytest.approx(np.linalg.norm(x), rel=1e-10)


class TestKronOperators:
    def test_modulator_demodulator_are_inverse(self):
        ops = build_kron_operators(2, 2)
        assert np.allclose(ops.modulator @ ops.demodulator, np.eye(4), atol=1e-12)

    def test_operators_are_unitary(self):
        ops = build_kron_operators(3, 4)
        for op in (ops.modulator, ops.demodulator, ops.per_slot_dft):
            assert np.allclose(op @ op.conj().T, np.eye(12), atol=1e-12)

    def test_single_subcarrier_per_slot_dft_degenerates_to_identity(self):
        ops = build_kron_operators(1, 5)
        assert np.allclose(ops.per_slot_dft, np.eye(5), atol=1e-15)

    def test_fft_and_dense_paths_agree_on_small_grids(self):
        rng = np.random.default_rng(5)
        for m, n in itertools.product(range(2, 9), repeat=2):
            x = random_frame(rng, n, m)
            ops = build_kron_operators(m, n)
            assert np.allclose(
                (ops.modulator @ vectorize(x)).reshape(n, m), isfft(x), atol=1e-9
            )
            assert np.allclose(
                (ops.demodulator @ vectorize(x)).reshape(n, m), sfft(x), atol=1e-9
            )

    def test_oracle_scale_bound_enforced(self):
        with pytest.raises(ValueError, match="4096"):
            build_kron_operators(128, 64)
