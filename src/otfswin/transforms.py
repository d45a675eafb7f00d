"""ISFFT/SFFT between the DD and TF domains.

Sign convention, stated once and inherited everywhere: the forward DFT uses
exp(-j*2*pi*n*k/N).  The DD -> TF mapping is then an inverse DFT along the
Doppler axis combined with a forward DFT along the delay axis,

    X[n, m] = (NM)^(-1/2) * sum_{k,l} x[k, l] * exp(+j2pi nk/N) * exp(-j2pi ml/M),

and the TF -> DD mapping uses the conjugate exponents.  All transforms are
unitary (the 1/sqrt factors split symmetrically), so power checks never need
rescaling.  The dense Kronecker forms of these transforms, which check
them, live in :mod:`otfswin.oracles`.
"""

from __future__ import annotations

import math

import numpy as np


def _check_frames(frames: np.ndarray) -> np.ndarray:
    """``frames`` as an array of an (N, M) frame or a ``[..., N, M]`` stack."""
    frames = np.asarray(frames)
    if frames.ndim < 2:
        raise ValueError("expected an (N, M) frame or a stack of them")
    return frames


def isfft(dd_frame: np.ndarray) -> np.ndarray:
    """DD -> TF transform of an (N, M) frame, or of each frame of a
    ``[..., N, M]`` stack (inverse symplectic FFT)."""
    dd_frame = _check_frames(dd_frame)
    n, m = dd_frame.shape[-2:]
    return np.multiply(np.fft.fft(np.fft.ifft(dd_frame, axis=-2), axis=-1), math.sqrt(n / m))


def sfft(tf_frame: np.ndarray) -> np.ndarray:
    """TF -> DD transform, the exact inverse of :func:`isfft`, also frame by
    frame over a ``[..., N, M]`` stack."""
    tf_frame = _check_frames(tf_frame)
    n, m = tf_frame.shape[-2:]
    return np.multiply(np.fft.ifft(np.fft.fft(tf_frame, axis=-2), axis=-1), math.sqrt(m / n))


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix of size n (forward sign, 1/sqrt(n) scaling)."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)
