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

from .workspace import WORKSPACE


# numpy 2 writes a transform into ``out``; numpy 1.x has no ``out`` and its
# result is copied there.  The one check of the numpy version for it.
_FFT_WRITES_OUT = int(np.__version__.split(".")[0]) >= 2


def _into(transform, a: np.ndarray, axis: int, out: np.ndarray, n: int | None = None):
    """``transform`` (``np.fft.fft`` or ``np.fft.ifft``) of ``a`` along
    ``axis``, at length ``n``, written to ``out``, which it returns."""
    if _FFT_WRITES_OUT:
        return transform(a, n, axis, out=out)
    out[...] = transform(a, n, axis)
    return out


def _check_frames(frames: np.ndarray) -> np.ndarray:
    """``frames`` as an array of an (N, M) frame or a ``[..., N, M]`` stack."""
    frames = np.asarray(frames)
    if frames.ndim < 2:
        raise ValueError("expected an (N, M) frame or a stack of them")
    return frames


def _sfft_into(tf_frame: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`sfft` of ``tf_frame`` written to the complex ``out`` of its
    shape (which must not share memory with it), with its work array in the
    thread's workspace."""
    n, m = tf_frame.shape[-2:]
    with WORKSPACE.scope():
        # ``out`` holds the first stage; no stage writes over its own input
        _into(np.fft.fft, tf_frame, -2, out)
        np.multiply(_into(np.fft.ifft, out, -1, WORKSPACE.take(out.shape, complex)),
                    math.sqrt(m / n), out=out)
    return out


def isfft(dd_frame: np.ndarray) -> np.ndarray:
    """DD -> TF transform of an (N, M) frame, or of each frame of a
    ``[..., N, M]`` stack (inverse symplectic FFT)."""
    dd_frame = _check_frames(dd_frame)
    n, m = dd_frame.shape[-2:]
    out = WORKSPACE.take(dd_frame.shape, complex)
    with WORKSPACE.scope():
        # ``out`` holds the first stage; no stage writes over its own input
        _into(np.fft.ifft, dd_frame, -2, out)
        np.multiply(_into(np.fft.fft, out, -1, WORKSPACE.take(out.shape, complex)),
                    math.sqrt(n / m), out=out)
    return out


def sfft(tf_frame: np.ndarray) -> np.ndarray:
    """TF -> DD transform, the exact inverse of :func:`isfft`, also frame by
    frame over a ``[..., N, M]`` stack."""
    tf_frame = _check_frames(tf_frame)
    return _sfft_into(tf_frame, WORKSPACE.take(tf_frame.shape, complex))


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix of size n (forward sign, 1/sqrt(n) scaling)."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)
