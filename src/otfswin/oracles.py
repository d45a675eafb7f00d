"""Dense oracles of the ideal-pulse OTFS model.

The trial path runs the FFT forms of :mod:`otfswin.transforms` and
:mod:`otfswin.channel`.  This module holds what checks them and no trial
calls: the dense Kronecker operators of the vectorized model, the dense
time-domain and DD channel matrices built from them, and the joint-window
DD filter with its closed form for rectangular windows.  The
:mod:`otfswin.selfcheck` suite and the tests use it.

The dense matrix builders refuse sizes above MN = 4096.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, tf_channel
from .transforms import dft_matrix
from .windows import WindowPair

KRON_ORACLE_LIMIT = 4096


@dataclass(frozen=True)
class KronOperators:
    """Dense vectorized-model operators for an (M, N) grid.

    modulator    : DD vector -> TF vector, kron(F_N^H, F_M)
    demodulator  : TF vector -> DD vector, kron(F_N, F_M^H)
    per_slot_dft : time vector -> TF vector, kron(I_N, F_M)
    """

    modulator: np.ndarray
    demodulator: np.ndarray
    per_slot_dft: np.ndarray


def build_kron_operators(M: int, N: int) -> KronOperators:
    """Dense unitary operators of the vectorized OTFS model (oracle scale).

    These are test oracles, not production paths; sizes above
    MN = 4096 are rejected.
    """
    if M * N > KRON_ORACLE_LIMIT:
        raise ValueError(
            f"dense oracle limited to M*N <= {KRON_ORACLE_LIMIT}, got {M * N}"
        )
    f_m = dft_matrix(M)
    f_n = dft_matrix(N)
    return KronOperators(
        modulator=np.kron(f_n.conj().T, f_m),
        demodulator=np.kron(f_n, f_m.conj().T),
        per_slot_dft=np.kron(np.eye(N), f_m),
    )


def time_channel(tf_gain_grid: np.ndarray) -> np.ndarray:
    """Dense time-domain channel matrix from the diagonal TF gains.

    H_t = kron(I_N, F_M^H) diag(H_tf) kron(I_N, F_M): block diagonal with N
    circulant-like M x M blocks.  Oracle scale only (MN <= 4096).
    """
    n, m = tf_gain_grid.shape
    if n * m > KRON_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to M*N <= {KRON_ORACLE_LIMIT}")
    f_m = dft_matrix(m)
    blocks = np.zeros((n * m, n * m), dtype=complex)
    for slot in range(n):
        d = np.diag(tf_gain_grid[slot])
        blocks[slot * m:(slot + 1) * m, slot * m:(slot + 1) * m] = f_m.conj().T @ d @ f_m
    return blocks


def dd_channel_matrix(ch: ChannelRealization, windows: WindowPair) -> np.ndarray:
    """Dense DD-domain channel matrix of the full vectorized model.

    Built literally as demodulator * V * per-slot-DFT * H_t * per-slot-IDFT
    * U * modulator; this is the oracle the FFT fast path is checked against.
    """
    grid = ch.grid
    ops = build_kron_operators(grid.M, grid.N)  # enforces the oracle bound
    h_t = time_channel(tf_channel(ch))
    u = np.diag(windows.tx.reshape(-1))
    v = np.diag(windows.rx.reshape(-1))
    return (
        ops.demodulator
        @ v
        @ ops.per_slot_dft
        @ h_t
        @ ops.per_slot_dft.conj().T
        @ u
        @ ops.modulator
    )


def dd_filter(windows: WindowPair, dk: float, dl: float) -> complex:
    """Joint-window DD filter at a real-valued (Doppler, delay) offset."""
    w = windows.joint
    n, m = w.shape
    ph_n = np.exp(-2j * np.pi * np.arange(n) * dk / n)
    ph_m = np.exp(2j * np.pi * np.arange(m) * dl / m)
    return complex(ph_n @ w @ ph_m / (n * m))


def rect_doppler_response(dk, length: int) -> np.ndarray:
    """Closed-form Doppler response of the joint rectangular window.

    Equals (1/N) * sum_n exp(-j2pi n dk/N): a Dirichlet kernel with linear
    phase, periodic in dk with period N.  Exact at integer offsets (1 at
    multiples of N, 0 otherwise).  The delay-axis response is its complex
    conjugate, since the delay exponent has the opposite sign.
    """
    dk = np.asarray(dk, dtype=float)
    x = dk - length * np.floor(dk / length + 0.5)  # reduce to [-N/2, N/2)
    mag = np.sinc(x) / np.sinc(x / length)
    return mag * np.exp(-1j * np.pi * x * (length - 1) / length)
