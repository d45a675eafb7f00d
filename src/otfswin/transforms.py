"""ISFFT/SFFT between the DD and TF domains, plus dense Kronecker oracles.

Sign convention, stated once and inherited everywhere: the forward DFT uses
exp(-j*2*pi*n*k/N).  The DD -> TF mapping is then an inverse DFT along the
Doppler axis combined with a forward DFT along the delay axis,

    X[n, m] = (NM)^(-1/2) * sum_{k,l} x[k, l] * exp(+j2pi nk/N) * exp(-j2pi ml/M),

and the TF -> DD mapping uses the conjugate exponents.  All transforms are
unitary (the 1/sqrt factors split symmetrically), so power checks never need
rescaling.

The dense matrix builders exist as small-instance oracles for the FFT fast
paths; they refuse sizes above MN = 4096.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KRON_ORACLE_LIMIT = 4096


def isfft(dd_frame: np.ndarray) -> np.ndarray:
    """DD -> TF transform of an (N, M) frame, or of each frame of a
    ``[..., N, M]`` stack (inverse symplectic FFT)."""
    dd_frame = np.asarray(dd_frame)
    if dd_frame.ndim < 2:
        raise ValueError("expected an (N, M) frame or a stack of them")
    n, m = dd_frame.shape[-2:]
    return np.fft.fft(np.fft.ifft(dd_frame, axis=-2), axis=-1) * math.sqrt(n / m)


def sfft(tf_frame: np.ndarray) -> np.ndarray:
    """TF -> DD transform, the exact inverse of :func:`isfft`, also frame by
    frame over a ``[..., N, M]`` stack."""
    tf_frame = np.asarray(tf_frame)
    if tf_frame.ndim < 2:
        raise ValueError("expected an (N, M) frame or a stack of them")
    n, m = tf_frame.shape[-2:]
    return np.fft.ifft(np.fft.fft(tf_frame, axis=-2), axis=-1) * math.sqrt(m / n)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix of size n (forward sign, 1/sqrt(n) scaling)."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)


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
