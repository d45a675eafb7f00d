"""Doubly-dispersive channels in the delay-Doppler domain.

The module generates sparse multipath channels with integer delays and
(possibly fractional) Doppler shifts, builds their per-bin TF gains under the
ideal-pulse assumption, computes the windowed effective DD channel, and
passes frames through the windowed link.  The dense time-domain and DD
channel matrices that check these FFT forms live in :mod:`otfswin.oracles`.

Ideal transceiver pulses are assumed throughout: the TF channel is exactly
diagonal and the DD-domain input/output relation is an exact 2-D circular
convolution with the effective tap grid.  Rectangular pulses share the same
sparsity pattern up to a phase, so everything here transfers to that case.
"""

from __future__ import annotations

import cmath
import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import FrameGrid
from .transforms import isfft, sfft
from .windows import WindowPair


@dataclass(frozen=True)
class PathSpec:
    """One propagation path: complex gain, integer delay bin, and a Doppler
    shift split into an integer bin plus a fractional part in (-1/2, 1/2)."""

    gain: complex
    delay_bin: int
    doppler_bin: int
    doppler_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.delay_bin < 0:
            raise ValueError("delay bin must be nonnegative")
        if not cmath.isfinite(self.gain):
            raise ValueError(f"path gain must be finite, got {self.gain!r}")
        if not -0.5 < self.doppler_frac < 0.5:
            raise ValueError("fractional Doppler must lie strictly inside (-1/2, 1/2)")

    @property
    def doppler_shift(self) -> float:
        """Total Doppler in bins (integer part plus fraction)."""
        return self.doppler_bin + self.doppler_frac


class ChannelRealization:
    """A multipath channel on one frame grid as per-path arrays: complex
    ``gains``, integer ``delay_bins`` and ``doppler_bins``, and
    ``doppler_fracs`` in (-1/2, 1/2).  Each has shape (P,) for one
    realization, or (B, P) for a stack of B realizations with P paths each,
    as :func:`sample_channel` draws them for a sequence of generators.

    ``ChannelRealization(paths, grid)`` builds one realization from
    :class:`PathSpec` records, and ``paths`` rebuilds them.
    """

    __slots__ = ("grid", "gains", "delay_bins", "doppler_bins", "doppler_fracs")

    def __init__(self, paths: Sequence[PathSpec], grid: FrameGrid) -> None:
        paths = tuple(paths)
        if not paths:
            raise ValueError("channel needs at least one path")
        self.grid = grid
        self.gains = np.array([complex(p.gain) for p in paths])
        self.delay_bins = np.array([int(p.delay_bin) for p in paths], dtype=np.int64)
        self.doppler_bins = np.array([int(p.doppler_bin) for p in paths], dtype=np.int64)
        self.doppler_fracs = np.array([float(p.doppler_frac) for p in paths])

    @classmethod
    def from_arrays(cls, grid: FrameGrid, gains: np.ndarray, delay_bins: np.ndarray,
                    doppler_bins: np.ndarray, doppler_fracs: np.ndarray) -> "ChannelRealization":
        """A realization, or a stack of them, from its path arrays as they are."""
        ch = cls.__new__(cls)
        ch.grid, ch.gains, ch.delay_bins = grid, gains, delay_bins
        ch.doppler_bins, ch.doppler_fracs = doppler_bins, doppler_fracs
        return ch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelRealization):
            return NotImplemented
        return self.grid == other.grid and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("gains", "delay_bins", "doppler_bins", "doppler_fracs"))

    @property
    def paths(self) -> tuple[PathSpec, ...]:
        """The paths of one realization as :class:`PathSpec` records."""
        if self.gains.ndim != 1:
            raise ValueError("a stack of realizations has no single path list")
        return tuple(PathSpec(g, l, k, f) for g, l, k, f in zip(
            self.gains.tolist(), self.delay_bins.tolist(), self.doppler_bins.tolist(),
            self.doppler_fracs.tolist()))

    @property
    def doppler_shifts(self) -> np.ndarray:
        """Total Doppler per path in bins (integer part plus fraction)."""
        return self.doppler_bins + self.doppler_fracs

    def total_gain_power(self) -> float | np.ndarray:
        """Sum of |gain|^2 over the paths, one per realization of a stack."""
        power = np.sum(np.abs(self.gains) ** 2, axis=-1)
        return float(power) if power.ndim == 0 else power


def delay_power_profile(delay_bins: np.ndarray) -> np.ndarray:
    """Per-path gain variances for a set of delay bins, along the last axis.

    Normalized exponential profile exp(-0.1*l_i) / sum_j exp(-0.1*l_j); the
    variances sum to one for every delay draw.
    """
    profile = np.exp(-0.1 * np.asarray(delay_bins, dtype=float))
    return profile / profile.sum(axis=-1, keepdims=True)


def sample_channel(
    grid: FrameGrid,
    num_paths: int,
    k_max: int,
    l_max: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> ChannelRealization:
    """Draw a random multipath channel, or one per generator of a sequence.

    Delays are uniform on {0..l_max} (with replacement, so equal-delay paths
    can and do occur), integer Doppler uniform on {-k_max..k_max}, fractional
    Doppler uniform on (-1/2, 1/2).  Gains are zero-mean complex Gaussian
    with variances following the normalized exponential power delay profile
    exp(-0.1*l_i) / sum_j exp(-0.1*l_j), so the expected total path power is
    exactly 1 for every realization.

    A sequence of B generators gives a (B, P) stack.  Each generator makes
    its own draws in one order (delays, integer Doppler, fractions with the
    redraw of the closed endpoint, real parts of the gains, imaginary parts);
    the arithmetic after the draws runs once for the stack, and realization
    i is bit for bit the one generator i gives alone.
    """
    if num_paths < 1:
        raise ValueError("need at least one path")
    if not 0 <= k_max <= (grid.N - 1) // 2:
        raise ValueError(f"k_max must lie in [0, {(grid.N - 1) // 2}] for N={grid.N}")
    if not 0 <= l_max <= grid.M - 1:
        raise ValueError(f"l_max must lie in [0, {grid.M - 1}] for M={grid.M}")

    single = isinstance(rng, np.random.Generator)
    generators = (rng,) if single else tuple(rng)
    shape = (len(generators), num_paths)
    delays = np.empty(shape, dtype=np.int64)
    dopplers = np.empty(shape, dtype=np.int64)
    fracs, real, imag = np.empty(shape), np.empty(shape), np.empty(shape)
    for gen, d, k, f, re, im in zip(generators, delays, dopplers, fracs, real, imag):
        d[...] = gen.integers(0, l_max + 1, size=num_paths)
        k[...] = gen.integers(-k_max, k_max + 1, size=num_paths)
        gen.random(out=f)
        f -= 0.5
        while (f <= -0.5).any():  # exclude the closed endpoint
            redo = f <= -0.5
            f[redo] = gen.random(int(np.count_nonzero(redo))) - 0.5
        gen.standard_normal(out=re)
        gen.standard_normal(out=im)

    scale = np.sqrt(delay_power_profile(delays) / 2.0)
    # named, so that numpy does not reorder the complex product (see tf_channel)
    normal = real + 1j * imag
    gains = scale * normal
    if single:
        return ChannelRealization.from_arrays(grid, gains[0], delays[0], dopplers[0], fracs[0])
    return ChannelRealization.from_arrays(grid, gains, delays, dopplers, fracs)


# ---------------------------------------------------------------------------
# TF channel (ideal pulses)
# ---------------------------------------------------------------------------

def tf_channel(ch: ChannelRealization) -> np.ndarray:
    """Per-bin TF channel gains H[n, m] as an (N, M) grid, or as a (B, N, M)
    stack for a stack of B realizations.

    Under ideal pulses the TF channel matrix is diagonal; flattening this
    grid row-major gives the diagonal in vector order n*M + m.  Each path
    contributes a rank-one term: its gain and delay-Doppler phase times a
    Doppler phase vector over the slots and a delay phase vector over the
    subcarriers.  The phases are computed for all (B, P) paths at once and
    the outer products added one path at a time, in path order, so no
    (B, P, N, M) array is built and no matrix product brings BLAS onto the
    per-trial path.
    """
    grid = ch.grid
    gains, nu = np.atleast_2d(ch.gains, ch.doppler_shifts)
    delay = np.atleast_2d(ch.delay_bins).astype(float)
    # A temporary that is multiplied from the left is bound to a name first.
    # numpy rewrites ``a * tmp`` on a nameless temporary of 256 KiB or more
    # as ``tmp *= a``, which swaps the operands of its fused complex multiply
    # and moves imaginary parts by one ulp, so a stack would no longer match
    # its frames bit for bit.  np.multiply(a, tmp, out=tmp) is no cure: an
    # aliased output changes the rounding of one-element products.
    phase = np.exp(-2j * np.pi * nu * delay / (grid.N * grid.M))
    coef = gains * phase
    phase = np.exp(2j * np.pi * nu[..., None] * np.arange(grid.N) / grid.N)
    doppler = coef[..., None] * phase
    delay_ph = np.exp(-2j * np.pi * delay[..., None] * np.arange(grid.M) / grid.M)
    out = doppler[:, 0, :, None] * delay_ph[:, 0, None, :]
    for p in range(1, gains.shape[1]):
        out += doppler[:, p, :, None] * delay_ph[:, p, None, :]
    return out[0] if ch.gains.ndim == 1 else out


# ---------------------------------------------------------------------------
# DD-domain filters and the effective channel
# ---------------------------------------------------------------------------

def _dd_response(tf_grid: np.ndarray) -> np.ndarray:
    """(1/NM) * sum_{n,m} A[n,m] exp(-j2pi nk/N) exp(+j2pi ml/M) for all (k,l),
    per frame of a ``[..., N, M]`` stack."""
    n = tf_grid.shape[-2]
    return np.fft.fft(np.fft.ifft(tf_grid, axis=-1), axis=-2) / n


def tf_gains_from_taps(tap_grid: np.ndarray) -> np.ndarray:
    """TF gain grid whose DD response is ``tap_grid``: the inverse of the
    effective-channel map, so the circular operator of ``tap_grid`` is
    diagonal with these gains in the TF domain.  Per frame of a
    ``[..., N, M]`` stack."""
    n = tap_grid.shape[-2]
    return np.fft.fft(np.fft.ifft(tap_grid, axis=-2), axis=-1) * n


@dataclass(frozen=True)
class EffectiveDDChannel:
    """Windowed effective channel: full (N, M) tap grid plus, optionally,
    the truncation to its largest taps as flat row-major indices k*M + l
    into the grid.  Indices are modular by construction, so the grid itself
    encodes the circular structure."""

    taps: np.ndarray
    truncation: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.taps.shape

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.taps) ** 2))

    def truncated_power(self) -> float:
        if self.truncation is None:
            return self.total_power()
        # a Python sum in truncation order, as the seeded rows were computed:
        # numpy's pairwise sum can round the last bit differently
        return float(sum(abs(v) ** 2 for v in self.taps.reshape(-1)[self.truncation].tolist()))

    def residual_power(self) -> float:
        """Tap energy outside the truncation (treated as noise by detectors)."""
        return max(self.total_power() - self.truncated_power(), 0.0)


def largest_taps(tap_grid: np.ndarray, count: int) -> np.ndarray:
    """Flat indices k*M + l of the ``count`` largest-magnitude taps, largest
    first, ties broken by (k, l) order.

    Exact zeros are never selected, so integer-Doppler channels keep their
    natural sparsity even when ``count`` exceeds the active tap number.
    """
    if count < 1:
        raise ValueError("tap count must be >= 1")
    mag = np.abs(tap_grid.reshape(-1))
    # a stable sort keeps equal magnitudes in flat index, i.e. (k, l), order
    picked = np.argsort(-mag, kind="stable")[:count]
    return picked[mag[picked] != 0.0]


def effective_dd_channel(
    ch: ChannelRealization,
    windows: WindowPair,
    truncate_to: int | None = None,
) -> EffectiveDDChannel:
    """Effective DD channel h_w[k, l] under a TX/RX window pair.

    Each path contributes its gain times the joint-window DD filter shifted
    to the path's (Doppler, delay) position, times the delay-Doppler phase
    rotation exp(-j2pi nu*l_tau/(NM)).  That sum is linear in the TF grid,
    so it is the DD response of the windowed TF channel: one 2-D FFT.
    """
    if windows.shape != ch.grid.shape:
        raise ValueError("window grid does not match the frame grid")
    taps = _dd_response(windows.joint * tf_channel(ch))
    trunc = largest_taps(taps, truncate_to) if truncate_to is not None else None
    return EffectiveDDChannel(taps=taps, truncation=trunc)


# ---------------------------------------------------------------------------
# the circular DD operator and the simulation fast path
# ---------------------------------------------------------------------------

def circular_operator(tap_grid: np.ndarray) -> np.ndarray:
    """Dense 2-D circular-convolution matrix generated by a DD tap grid.

    Row k*M+l, column k'*M+l' holds taps[(k-k') mod N, (l-l') mod M]; with
    ideal pulses this equals the DD channel matrix for any window pair.
    """
    n, m = tap_grid.shape
    idx = np.arange(n * m)
    k, l = idx // m, idx % m
    dk = (k[:, None] - k[None, :]) % n
    dl = (l[:, None] - l[None, :]) % m
    return tap_grid[dk, dl]


def transmit_frame(
    dd_frame: np.ndarray,
    tf_gain_grid: np.ndarray,
    windows: WindowPair,
    n0: float | np.ndarray = 0.0,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
) -> np.ndarray:
    """Pass a DD frame, or each frame of a ``[..., N, M]`` stack, through the
    windowed ideal-pulse channel.

    Exact FFT chain: modulate, TX window, per-bin TF gains, additive white
    TF noise of power n0, RX window, demodulate.  The gain and window grids
    broadcast against the frames, and so does ``n0``: one noise power, or an
    array of one per frame.  Returns the received DD frames.

    A stack takes one generator per frame (row-major over the leading axes)
    and draws each frame's noise from its own generator, real parts before
    imaginary parts, as a single frame does; a frame at zero noise power
    draws nothing.  Frame i of a stack is bit for bit the frame that
    ``transmit_frame`` returns for it alone.
    """
    x_tf = isfft(dd_frame)
    # named temporaries keep the single-frame operand order (see tf_channel)
    received = windows.tx * x_tf
    received = tf_gain_grid * received
    n0 = np.asarray(n0, dtype=float)
    if np.any(n0 > 0.0):
        if rng is None:
            raise ValueError("noise requested but no rng supplied")
        shape = x_tf.shape[-2:]
        generators = [rng] if isinstance(rng, np.random.Generator) else list(rng)
        if len(generators) * shape[0] * shape[1] != x_tf.size:
            raise ValueError("a stack of frames needs one generator per frame")
        scale = np.sqrt(n0 / 2.0)
        frame_scales = np.broadcast_to(scale, x_tf.shape[:-2]).reshape(-1).tolist()
        real, imag = np.zeros(x_tf.shape), np.zeros(x_tf.shape)
        for gen, re, im, frame_scale in zip(generators, real.reshape((-1,) + shape),
                                            imag.reshape((-1,) + shape), frame_scales):
            if frame_scale > 0.0:
                re[...] = gen.standard_normal(shape)
                im[...] = gen.standard_normal(shape)
        noise = real + 1j * imag
        received = received + scale[..., None, None] * noise
    return sfft(windows.rx * received)


# ---------------------------------------------------------------------------
# serialization (replay / regression records)
# ---------------------------------------------------------------------------

def channel_to_text(ch: ChannelRealization) -> str:
    """One line per path: ``gain_re gain_im delay_bin doppler_bin frac``."""
    buf = io.StringIO()
    for p in ch.paths:
        gain = complex(p.gain)
        buf.write(
            f"{gain.real!r} {gain.imag!r} {int(p.delay_bin)} {int(p.doppler_bin)} "
            f"{float(p.doppler_frac)!r}\n"
        )
    return buf.getvalue()


def channel_from_text(text: str, grid: FrameGrid) -> ChannelRealization:
    paths = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"line {line_no}: expected 5 fields, got {len(parts)}")
        re, im, l, k, frac = parts
        paths.append(
            PathSpec(
                gain=complex(float(re), float(im)),
                delay_bin=int(l),
                doppler_bin=int(k),
                doppler_frac=float(frac),
            )
        )
    return ChannelRealization(paths=tuple(paths), grid=grid)
