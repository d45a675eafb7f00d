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

from .grid import FrameGrid, frame_noise
from .transforms import _check_frames, isfft, sfft
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

    @property
    def paths(self) -> tuple[PathSpec, ...]:
        """The paths of one realization as :class:`PathSpec` records."""
        if self.gains.ndim != 1:
            raise ValueError("a stack of realizations has no single path list")
        return tuple(PathSpec(g, l, k, f) for g, l, k, f in zip(
            self.gains.tolist(), self.delay_bins.tolist(), self.doppler_bins.tolist(),
            self.doppler_fracs.tolist()))

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


def _holds_half_or_is_not_pcg64(bit_generator) -> bool:
    state = bit_generator.state
    return state["bit_generator"] != "PCG64" or bool(state["has_uint32"])


def bounded_draws(generators: Sequence[np.random.Generator], spans, *,
                  buffered: np.ndarray | None = None) -> np.ndarray:
    """What ``gen.integers(0, spans)`` returns for each generator, as the
    rows of a (B, K) int64 array, for K spans in 1 .. 2**32 - 1; each stream
    is left where that call leaves it.

    numpy draws each value from the next 32-bit half of its stream, a PCG64
    word's low half first and then its high half, which it keeps buffered in
    between.  The value is Lemire's (half * span) >> 32; numpy redraws while
    the product's low 32 bits fall below (2**32 - span) % span, and draws
    nothing for a span of 1.  Here each generator hands over the words of
    its draws in one ``random_raw`` call, and the halves of all of them are
    scaled and shifted as one block.  Where every span is one power of two
    2**k, the value is half >> (32 - k), one shift, and never redrawn.
    numpy's own call draws instead where the block would not give its bytes
    or costs more:

    - every row, for a span of 1, an odd number of spans (the last word's
      high half stays buffered), a single generator or one listed twice;
    - the row of a bit generator other than PCG64 and of one that already
      holds a buffered half;
    - a row with a redraw, once its stream is rewound by its words.

    ``buffered``, a bool per row, spares the read of each stream's state
    that finds the second kind of row: a row marked False must be a PCG64
    stream that holds no buffered half, one marked True has its state read.
    The call marks True every row that numpy's own call drew, which may
    leave a half buffered, so the same array passes on to the streams' next
    bounded draw.  Without it, every row's state is read.
    """
    high = np.asarray(spans)
    if high.ndim != 1 or high.dtype.kind not in "iu":
        raise ValueError(f"spans must be a vector of integers, got {spans!r}")
    least, most = (int(high.min()), int(high.max())) if high.size else (1, 1)
    if not 1 <= least <= most < 2**32:
        raise ValueError(f"spans must lie in [1, 2**32), got {least} .. {most}")
    shape = (len(generators), high.size)
    if buffered is not None and buffered.shape != shape[:1]:
        raise ValueError(f"buffered holds {buffered.shape} flags for {shape[0]} generators")
    out = np.empty(shape, np.int64)

    def own_calls(gens: Sequence[np.random.Generator]) -> list[np.ndarray]:
        # with scalar bounds where all spans are equal, numpy's faster call
        if least == most:
            return [gen.integers(0, least, high.size) for gen in gens]
        return [gen.integers(0, high) for gen in gens]

    if (least == 1 or high.size % 2 or shape[0] < 2
            or len({id(gen.bit_generator) for gen in generators}) < shape[0]):
        out[...] = np.array(own_calls(generators), dtype=np.int64).reshape(shape)
        if buffered is not None:
            buffered[...] = True
        return out
    words = high.size // 2
    bit_generators = [gen.bit_generator for gen in generators]
    unknown = range(shape[0]) if buffered is None else np.flatnonzero(buffered).tolist()
    slow = [i for i in unknown if _holds_half_or_is_not_pcg64(bit_generators[i])]
    fast = [i for i in range(shape[0]) if i not in slow]
    # every row drawn as one block lands in ``out`` itself
    whole = not slow
    if fast:
        # little-endian words read as uint32 pairs are (low, high) halves on any host
        raw = np.empty((len(fast), words), "<u8")
        for i, row in zip(fast, raw):
            row[...] = bit_generators[i].random_raw(words)
        halves = out.view(np.uint64) if whole else np.empty((len(fast), high.size), np.uint64)
        if least == most and not least & (least - 1):
            # (half * 2**k) >> 32 is half >> (32 - k), and a power of
            # two divides 2**32: numpy never redraws it
            np.right_shift(raw.view("<u4"), np.uint32(33 - least.bit_length()), out=halves)
        else:
            # a vector, not a numpy scalar: numpy 1.x would promote a
            # scalar by its value and keep the products at 32 bits
            block = high.astype(np.uint64)
            np.multiply(raw.view("<u4"), block, out=halves)
            # a power of two divides 2**32: numpy never redraws it
            if (block & (block - np.uint64(1))).any():
                low = np.bitwise_and(halves, np.uint64(0xFFFFFFFF))
                # numpy's redraw bound (2**32 - span) % span is below the span
                if (low < most).any():
                    redraw = (low < (2**32 - block) % block).any(axis=1)
                    for j in np.flatnonzero(redraw).tolist():
                        bit_generators[fast[j]].advance(-words)
                        slow.append(fast[j])
            np.right_shift(halves, np.uint64(32), out=halves)
        if not whole:
            out[fast] = halves
    for i, row in zip(slow, own_calls([generators[i] for i in slow])):
        out[i] = row
    if slow and buffered is not None:
        buffered[slow] = True
    return out


def sample_channel(
    grid: FrameGrid,
    num_paths: int,
    k_max: int,
    l_max: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
    *,
    buffered: np.ndarray | None = None,
) -> ChannelRealization:
    """Draw a random multipath channel, or one per generator of a sequence.

    Delays are uniform on {0..l_max} (with replacement, so equal-delay paths
    can and do occur), integer Doppler uniform on {-k_max..k_max}, fractional
    Doppler uniform on (-1/2, 1/2).  Gains are zero-mean complex Gaussian
    with variances following the normalized exponential power delay profile
    exp(-0.1*l_i) / sum_j exp(-0.1*l_j), so the expected total path power is
    exactly 1 for every realization.

    A sequence of B generators gives a (B, P) stack.  Each generator makes
    its own draws in one order, one call per distribution: the delays and
    integer Dopplers as the values of one ``integers(0, spans)`` call, spans
    l_max + 1 for the P delays and then 2 k_max + 1 for the P Dopplers,
    which are shifted by -k_max (the values two ``size=P`` draws on the
    bounds give), the fractions, any redraws of the closed endpoint, then
    the real and imaginary parts of the gains as one (2, P)
    ``standard_normal`` draw.  :func:`bounded_draws` draws the bins of all
    generators as one block; then all draw their fractions, one check for
    the endpoint covers the stack (only a generator that drew it redraws),
    and then all draw their gains, so a generator listed twice makes each
    kind of draw for its frames in turn.  The arithmetic after the draws
    runs once for the stack, and realization i is bit for bit the one
    generator i gives alone.  ``buffered`` passes on to the bin draw (see
    :func:`bounded_draws`): the caller's flags of the generators that may
    hold a buffered 32-bit half, which the draw updates.  The fractions and
    gains take whole words, so the flags still hold after them.
    """
    if num_paths < 1:
        raise ValueError("need at least one path")
    if not 0 <= k_max <= (grid.N - 1) // 2:
        raise ValueError(f"k_max must lie in [0, {(grid.N - 1) // 2}] for N={grid.N}")
    if not 0 <= l_max <= grid.M - 1:
        raise ValueError(f"l_max must lie in [0, {grid.M - 1}] for M={grid.M}")

    single = isinstance(rng, np.random.Generator)
    generators = (rng,) if single else tuple(rng)
    frames = len(generators)
    # row 0 draws the delays on [0, l_max], row 1 the Dopplers on [0, 2 k_max]
    spans = np.array([l_max + 1] * num_paths + [2 * k_max + 1] * num_paths)
    # contiguous (B, P) planes, as the arithmetic below and the realization
    # take them
    delays, dopplers = bounded_draws(generators, spans, buffered=buffered).reshape(
        frames, 2, num_paths).swapaxes(0, 1).copy()
    fracs = np.empty((frames, num_paths))
    gauss = np.empty((frames, 2, num_paths))
    for gen, f in zip(generators, fracs):
        gen.random(out=f)
    # a draw of exactly 0 would put the fraction on the closed endpoint
    # -1/2; every other draw on [0, 1) stays above it after the shift
    if not fracs.all():
        for gen, f in zip(generators, fracs):
            while not f.all():
                redo = f == 0.0
                f[redo] = gen.random(int(np.count_nonzero(redo)))
    for gen, g in zip(generators, gauss):
        gen.standard_normal(out=g)

    fracs -= 0.5
    dopplers -= k_max
    real, imag = gauss.swapaxes(0, 1).copy()
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
    subcarriers.  The Doppler phases are computed for all (B, P) paths at
    once.  The delay phases depend on the integer delay bin alone, so they
    come from one table per call with a row per bin 0 .. D - 1, D the
    largest bin plus one (or a row per distinct bin, when there are fewer
    paths than that), each row computed by the per-path expression; each
    path then takes its bin's row.  The outer products are added one path
    at a time, in path order, so no (B, P, N, M) array is built and no
    matrix product brings BLAS onto the per-trial path.

    Delay bins must be nonnegative integers (``PathSpec`` ensures it; a
    realization from ``ChannelRealization.from_arrays`` is checked here):
    anything else raises ``ValueError`` naming the offending bins.  Bins at
    M or above are valid.  Fractional delays (ROADMAP item 22) will need a
    delay phase path of their own.
    """
    grid = ch.grid
    gains, nu, bins = np.atleast_2d(ch.gains, ch.doppler_bins + ch.doppler_fracs,
                                    ch.delay_bins)
    if not np.issubdtype(bins.dtype, np.integer):
        raise ValueError(f"delay bins must be integers, got {bins.dtype} bins "
                         f"{np.unique(bins).tolist()}")
    if bins.min() < 0:
        raise ValueError(
            f"delay bins must be nonnegative, got {np.unique(bins[bins < 0]).tolist()}")
    delay = bins.astype(float)
    # A temporary that is multiplied from the left is bound to a name first.
    # numpy rewrites ``a * tmp`` on a nameless temporary of 256 KiB or more
    # as ``tmp *= a``, which swaps the operands of its fused complex multiply
    # and moves imaginary parts by one ulp, so a stack would no longer match
    # its frames bit for bit.  np.multiply(a, tmp, out=tmp) is no cure: an
    # aliased output changes the rounding of one-element products.
    phase = np.exp(-2j * np.pi * nu * delay / (grid.N * grid.M))
    coef = gains * phase
    # rebinding the name frees the phases once their product with the gains exists
    doppler = np.exp(2j * np.pi * nu[..., None] * np.arange(grid.N) / grid.N)
    doppler = coef[..., None] * doppler
    top = int(bins.max()) + 1
    if top <= bins.size:
        rows, index = np.arange(top, dtype=float), bins
    else:
        rows, index = np.unique(delay, return_inverse=True)
        index = index.reshape(bins.shape)
    table = np.exp(-2j * np.pi * rows[:, None] * np.arange(grid.M) / grid.M)
    delay_ph = table[index]
    out = np.multiply(doppler[:, 0, :, None], delay_ph[:, 0, None, :])
    for p in range(1, gains.shape[1]):
        out += np.multiply(doppler[:, p, :, None], delay_ph[:, p, None, :])
    return out[0] if ch.gains.ndim == 1 else out


# numpy's cast buffers and the small per-call arrays, counted once per stack
_PATH_SLACK_BYTES = 1024 * 1024


def paths_that_fit(grid: FrameGrid, frames: int, budget: int, delays: int) -> int:
    """The most paths whose channel draws and phases for a stack of
    ``frames`` frames on ``grid`` fit in ``budget`` bytes, for paths drawn
    on ``delays`` delay bins 0 .. delays - 1.

    Per path and frame that is at most 120 bytes of (B, P) arrays
    (sample_channel's draws and their contiguous copies beside its gain
    temporaries, or the channel's arrays beside tf_channel's float and
    complex copies) and 16 (N + max(N, M)) bytes of phases: tf_channel
    holds two complex arrays over the N slots at once (the Doppler phases
    beside their exp argument or beside their product with the gains), and
    then the Doppler terms beside the paths' delay phases over the M
    subcarriers.  Its outer products then add the output frames and one
    frame-sized product.  The delay-phase table adds 16 M bytes a row, with
    a row per delay bin up to the largest drawn and at most one per path
    and frame.
    """
    frame_bytes = 2 * 16 * frames * grid.size
    per_path = frames * (120 + 16 * (grid.N + max(grid.N, grid.M)))
    free = budget - frame_bytes - _PATH_SLACK_BYTES
    # the table at its ``delays`` rows, or at one row per path and frame
    return max((free - 16 * grid.M * delays) // per_path,
               free // (per_path + 16 * grid.M * frames))


# ---------------------------------------------------------------------------
# DD-domain filters and the effective channel
# ---------------------------------------------------------------------------

def _dd_response(tf_grid: np.ndarray, delays: int | None = None) -> np.ndarray:
    """(1/NM) * sum_{n,m} A[n,m] exp(-j2pi nk/N) exp(+j2pi ml/M) for all (k,l),
    per frame of a ``[..., N, M]`` stack.  With ``delays``, only the delay
    columns 0 .. delays - 1, bit for bit: the Doppler FFT runs on those alone."""
    n = tf_grid.shape[-2]
    spectra = np.fft.ifft(tf_grid, axis=-1)
    return np.true_divide(np.fft.fft(spectra[..., :delays], axis=-2), n)


def tf_gains_from_taps(tap_grid: np.ndarray, delays: int | None = None) -> np.ndarray:
    """TF gain grid whose DD response is ``tap_grid``: the inverse of the
    effective-channel map, so the circular operator of ``tap_grid`` is
    diagonal with these gains in the TF domain.  Per frame of a
    ``[..., N, M]`` stack.  With ``delays``, for taps that are zero past
    delay column delays - 1 (a pilot estimate's), the Doppler IFFT runs on
    columns 0 .. delays - 1 alone and the delay FFT zero-pads them to M,
    bit for bit."""
    n, m = tap_grid.shape[-2:]
    doppler = np.fft.ifft(tap_grid[..., :delays], axis=-2)
    return np.multiply(np.fft.fft(doppler, m, axis=-1), n)


@dataclass(frozen=True)
class EffectiveDDChannel:
    """Windowed effective channel: full (N, M) tap grid plus, optionally,
    the truncation to its largest taps as flat row-major indices k*M + l
    into the grid.  Indices are modular by construction, so the grid itself
    encodes the circular structure.

    A stack of B frames holds [B, N, M] ``taps`` and a (B, width)
    ``truncation``, as :func:`largest_taps` returns for a stack: a -1 marks
    a slot with no tap, after the frame's kept taps."""

    taps: np.ndarray
    truncation: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.taps.shape[-2:]

    def total_power(self) -> float | np.ndarray:
        """Tap energy, one value per frame of a stack."""
        flat = self.taps.reshape(self.taps.shape[:-2] + (-1,))
        power = np.sum(np.abs(flat) ** 2, axis=-1)
        return float(power) if power.ndim == 0 else power

    def residual_power(self) -> float | np.ndarray:
        """Tap energy outside the truncation (treated as noise by detectors),
        one value per frame of a stack."""
        total = self.total_power()
        if self.truncation is None:
            return total * 0.0
        kept = self.truncation
        values = np.take_along_axis(self.taps.reshape(kept.shape[:-1] + (-1,)),
                                    np.maximum(kept, 0), axis=-1)
        # hypot, not abs: numpy's vector loop for a complex abs need not
        # round as the C library's hypot does, and then a tap's square
        # would depend on the CPU the loop was built for
        squares = np.where(kept >= 0, np.hypot(values.real, values.imag) ** 2, 0.0)
        # The kept energy adds left to right in truncation order, one column
        # at a time: a stack frame's -1 pads then add exact zeros after its
        # taps, so it sums as that frame alone does, which numpy's pairwise
        # sum over the padded rows does not.
        truncated = np.zeros(kept.shape[:-1])
        for column in np.moveaxis(squares, -1, 0):
            truncated += column
        residual = np.maximum(total - truncated, 0.0)
        return float(residual) if residual.ndim == 0 else residual


def largest_taps(tap_grid: np.ndarray, count: int) -> np.ndarray:
    """Flat indices k*M + l of the ``count`` largest-magnitude taps, largest
    first, ties broken by (k, l) order.

    Exact zeros are never selected, so integer-Doppler channels keep their
    natural sparsity even when ``count`` exceeds the active tap number.  A
    [B, N, M] stack gives one row of ``count`` entries (at most NM) per
    frame: its indices followed by -1 entries where it has fewer nonzero
    taps.
    """
    if count < 1:
        raise ValueError("tap count must be >= 1")
    mag = np.abs(tap_grid.reshape(tap_grid.shape[:-2] + (-1,)))
    # a stable sort keeps equal magnitudes in flat index, i.e. (k, l), order
    picked = np.argsort(-mag, axis=-1, kind="stable")[..., :count]
    if picked.ndim == 1:
        return picked[mag[picked] != 0.0]
    picked[np.take_along_axis(mag, picked, axis=-1) == 0.0] = -1
    return picked


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
    taps = _dd_response(windows.windowed(tf_channel(ch)))
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
    demodulate: bool = True,
) -> np.ndarray:
    """Pass a DD frame, or each frame of a ``[..., N, M]`` stack, through the
    windowed ideal-pulse channel.

    Exact FFT chain: modulate, TX window, per-bin TF gains, additive white
    TF noise of power n0, RX window, demodulate.  The gain and window grids
    broadcast against the frames; ``n0`` is one noise power, or an array of
    one per frame (any other shape, or a value that is not finite and
    nonnegative, raises ``ValueError``).  Returns the
    received DD frames, or with ``demodulate=False`` the RX-windowed TF
    grids v * (g * u * X + noise) that the final ``sfft`` would take, for a
    receiver that works per TF bin.

    A stack takes one generator per frame (row-major over the leading axes)
    and draws each frame's noise from its own generator in one call, real
    parts before imaginary parts, as a single frame does; a frame at zero
    noise power draws nothing and adds zeros.  Frame i of a stack is bit
    for bit the frame that ``transmit_frame`` returns for it alone.

    Only the arithmetic the link needs runs: a window side that
    :class:`WindowPair` marks all ones is not multiplied (the product would
    give back its operand), and the noise draws go into unfilled memory
    unless some frame draws none.
    """
    frames = _check_frames(dd_frame)
    n0 = frame_noise(n0, frames.shape[:-2])
    noisy = bool(np.any(n0 > 0.0))
    if noisy:
        if rng is None:
            raise ValueError("noise requested but no rng supplied")
        generators = [rng] if isinstance(rng, np.random.Generator) else list(rng)
        if len(generators) * frames.shape[-2] * frames.shape[-1] != frames.size:
            raise ValueError("a stack of frames needs one generator per frame")
    sides = [grid for grid, ones in ((windows.tx, windows.tx_ones), (windows.rx, windows.rx_ones))
             if not ones]
    shape = np.broadcast(frames, tf_gain_grid, *sides).shape
    # the grids multiply from the left, as a single frame's do; a side built
    # all ones costs no multiply
    value = isfft(frames if frames.shape == shape else np.broadcast_to(frames, shape))
    if not windows.tx_ones:
        value = np.multiply(windows.tx, value)
    value = np.multiply(tf_gain_grid, value)
    if noisy:
        scale = np.sqrt(n0 / 2.0)
        frame_scales = (np.zeros(frames.shape[:-2]) + scale).reshape(-1).tolist()
        noise = np.empty(frames.shape, complex)
        # frame i's (2, N, M) draws, real plane then imaginary plane; a frame
        # at zero noise power draws nothing and keeps zeros
        draws = noise.reshape(-1).view(float).reshape((len(generators), 2) + frames.shape[-2:])
        if min(frame_scales) <= 0.0:
            draws[...] = 0.0
        for gen, frame_draws, frame_scale in zip(generators, draws, frame_scales):
            if frame_scale > 0.0:
                gen.standard_normal(out=frame_draws)
        # the unit-power noise, then scaled over the draws; a complex sum
        # rounds alike in place
        unit = np.empty(frames.shape, complex)
        unit.real, unit.imag = draws[:, 0].reshape(frames.shape), draws[:, 1].reshape(frames.shape)
        value += np.multiply(scale[..., None, None], unit, out=noise)
    if not windows.rx_ones:
        value = np.multiply(windows.rx, value)
    return sfft(value) if demodulate else value


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
