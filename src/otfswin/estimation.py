"""Embedded-pilot frame layout and threshold-based channel estimation.

A single pilot cell sits inside a zero guard region sized to the channel
spread (k_max, l_max) plus an extra Doppler guard k_hat that mitigates the
spread caused by fractional Doppler.  The receiver reads the cells the
pilot's own channel response can land on and divides by the pilot; cells
below a 3*sqrt(N0) magnitude threshold are treated as empty.  It takes
the RX-windowed TF grid the channel leaves and demodulates that window alone.

Because the guard is finite, data symbols leak into the read window through
the window response's sidelobes.  The closed-form floor predictor for that
leakage, and the measured estimation error, are both expressed at the
received-pilot scale (i.e. the error is |x_p| * (estimate - truth)), which
makes the prediction independent of the pilot power and directly comparable
across pilot settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grid import FrameGrid, frame_noise
from .transforms import isfft


def _check_spread(n_doppler: int, k_max: int, l_max: int, k_hat: int) -> None:
    """Reject negative spread bounds, a Doppler guard of more than N rows
    (k_hat outside [0, (N - 4 k_max - 1) // 4]), and fewer than the two
    Doppler rows of the smallest frame grid."""
    if k_max < 0 or l_max < 0:
        raise ConfigurationError("spread bounds must be nonnegative")
    limit = (n_doppler - 4 * k_max - 1) // 4
    if limit < 0:
        raise ConfigurationError(f"k_max={k_max} needs N >= 4 k_max + 1 = {4 * k_max + 1} "
                                 f"Doppler rows, got N={n_doppler}")
    if not 0 <= k_hat <= limit:
        raise ConfigurationError(
            f"extra Doppler guard k_hat={k_hat} outside [0, {limit}] for N={n_doppler}"
        )
    if n_doppler < 2:
        raise ConfigurationError(f"N={n_doppler} Doppler rows: a frame grid needs N >= 2")


@dataclass(frozen=True)
class PilotLayout:
    """Position and sizing of the embedded pilot and its guard region on one
    frame grid.

    The guard spans pilot_doppler +- (2*k_max + 2*k_hat) Doppler rows and
    pilot_delay +- l_max delay columns (pilot cell excluded); the read window
    spans pilot_doppler +- (k_max + k_hat) rows and delay columns
    pilot_delay .. pilot_delay + l_max.  Construction rejects a layout whose
    Doppler guard overlaps itself or whose delay band leaves the grid, and
    computes the index sets every frame shares:

    * ``guard_mask`` / ``data_mask``: boolean (N, M) masks of the
      pilot-plus-guard cells and of the data cells;
    * ``read_cells``: ``np.ix_`` index of the read window in the frame, and
      ``tap_cells`` of the tap offsets it measures, (k - k_p) mod N and
      l - l_p;
    * ``pilot_tf``: the (N, M) TF grid of the pilot-only frame, its isfft,
      so that every receiver cancels the pilot's response to the TF gains
      g as g * pilot_tf.

    The guard is its 4*k_max + 4*k_hat + 1 Doppler rows times one band of
    2*l_max + 1 delay columns; :func:`otfswin.detection.tf_lmmse_detect`
    solves its Woodbury downdate on that band from the mask alone, so the
    layout holds no index that grows with the guard size squared.
    """

    grid: FrameGrid
    pilot_doppler: int
    pilot_delay: int
    pilot_value: complex
    k_max: int
    l_max: int
    k_hat: int = 0
    guard_mask: np.ndarray = field(init=False, repr=False, compare=False)
    data_mask: np.ndarray = field(init=False, repr=False, compare=False)
    read_cells: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    tap_cells: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    pilot_tf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, m = self.grid.shape
        _check_spread(n, self.k_max, self.l_max, self.k_hat)
        if 2 * self.l_max + 1 > m:
            raise ConfigurationError("delay guard band does not fit in the grid")
        if not 0 <= self.pilot_doppler < n or not 0 <= self.pilot_delay < m:
            raise ConfigurationError("pilot cell lies outside the grid")
        if self.pilot_delay - self.l_max < 0 or self.pilot_delay + self.l_max >= m:
            raise ConfigurationError("delay band wraps around the grid edge; move the pilot")

        guard_halfwidth = 2 * self.k_max + 2 * self.k_hat
        guard = np.zeros((n, m), dtype=bool)
        guard[np.ix_((self.pilot_doppler + np.arange(-guard_halfwidth, guard_halfwidth + 1)) % n,
                     self.pilot_delay + np.arange(-self.l_max, self.l_max + 1))] = True
        data = ~guard
        dks = np.arange(-self.k_max - self.k_hat, self.k_max + self.k_hat + 1)
        dls = np.arange(0, self.l_max + 1)
        read_cells = np.ix_((self.pilot_doppler + dks) % n, self.pilot_delay + dls)
        tap_cells = np.ix_(dks % n, dls)
        pilot = np.zeros((n, m), dtype=complex)
        pilot[self.pilot_doppler, self.pilot_delay] = self.pilot_value
        pilot_tf = isfft(pilot)
        # every frame of a run shares these, so none may be written in place
        for array in (guard, data, *read_cells, *tap_cells, pilot_tf):
            array.flags.writeable = False
        object.__setattr__(self, "guard_mask", guard)
        object.__setattr__(self, "data_mask", data)
        object.__setattr__(self, "read_cells", read_cells)
        object.__setattr__(self, "tap_cells", tap_cells)
        object.__setattr__(self, "pilot_tf", pilot_tf)

    @classmethod
    def centered(
        cls,
        grid: FrameGrid,
        k_max: int,
        l_max: int,
        k_hat: int = 0,
        pilot_power_dbw: float = 30.0,
    ) -> "PilotLayout":
        """Default placement: Doppler-centered, delay band kept off the wrap."""
        return cls(
            grid=grid,
            pilot_doppler=grid.N // 2,
            pilot_delay=min(max(grid.M // 2, l_max), grid.M - 1 - l_max),
            pilot_value=math.sqrt(10.0 ** (pilot_power_dbw / 10.0)),
            k_max=k_max,
            l_max=l_max,
            k_hat=k_hat,
        )


def embed_pilot(data_frame: np.ndarray, layout: PilotLayout,
                out: np.ndarray | None = None) -> np.ndarray:
    """Overwrite the guard region with zeros and the pilot cell with x_p, in
    an (N, M) frame or in each frame of a ``[..., N, M]`` stack.

    The frames are written into ``out``, a complex array of their shape,
    and a new one by default; ``out=data_frame`` embeds the pilot in place
    and leaves the data cells untouched."""
    if data_frame.shape[-2:] != layout.grid.shape:
        raise ValueError("frame shape does not match grid")
    if out is not None and (out.shape != data_frame.shape or out.dtype != complex):
        raise ValueError(f"out must be a complex array of shape {data_frame.shape}")
    frame = np.empty(data_frame.shape, complex) if out is None else out
    if frame is not data_frame:
        np.copyto(frame, data_frame)
    np.copyto(frame, 0.0, where=layout.guard_mask)
    frame[..., layout.pilot_doppler, layout.pilot_delay] = layout.pilot_value
    return frame


def estimate_channel(received: np.ndarray, layout: PilotLayout,
                     n0: float | np.ndarray) -> np.ndarray:
    """Threshold estimator of the effective DD channel from the RX-windowed
    TF grids r that :func:`~otfswin.channel.transmit_frame` gives with
    ``demodulate=False``.

    Reads the window the pilot response can occupy in the DD frame
    y = sfft(r) and sets est[(k - k_p) mod N, (l - l_p) mod M] = y[k, l] / x_p
    wherever |y[k, l]| >= 3*sqrt(n0).  Only the window is demodulated: the
    Doppler FFT of r, then the delay IFFT of the window's rows, which gives
    sfft's bits there.  Returns a full (N, M) grid, zero outside the
    window, ready to rebuild the channel operator by circular convolution;
    a ``[..., N, M]`` stack of grids r gives a stack of estimates, and
    ``n0`` is one noise power for all of them or an array of one per frame
    (any other shape, or a value that is not finite and nonnegative, raises
    ``ValueError``).
    """
    if received.shape[-2:] != layout.grid.shape:
        raise ValueError("frame shape does not match grid")
    n0 = frame_noise(n0, received.shape[:-2])
    threshold = 3.0 * np.sqrt(n0)
    (n, m), (rows, cols) = layout.grid.shape, layout.read_cells
    # sfft(r) = ifft_m(fft_n(r)) * sqrt(M / N), row by row
    window = np.fft.fft(received, axis=-2).take(rows[:, 0], axis=-2, mode="clip")
    block = np.fft.ifft(window, axis=-1)[..., cols[0]] * math.sqrt(m / n)
    keep = np.abs(block) >= threshold[..., None, None]
    est = np.zeros(received.shape, complex)
    est[(..., *layout.tap_cells)] = np.where(keep, block / layout.pilot_value, 0.0)
    return est


# ---------------------------------------------------------------------------
# analytic predictors and measured error
# ---------------------------------------------------------------------------

def predicted_mse_floor(n_doppler: int, k_max: int, l_max: int, k_hat: int,
                        sl_w: float) -> float:
    """High-SNR estimation-error floor summed over the read window, for unit
    total channel power, under a flat-sidelobe approximation.

    Raises :class:`ConfigurationError` for a spread or k_hat that no
    :class:`PilotLayout` on N Doppler rows accepts.
    """
    _check_spread(n_doppler, k_max, l_max, k_hat)
    # nonnegative: _check_spread bounds 4 k_hat by N - 4 k_max - 1
    exposed = n_doppler - 4 * k_max - 4 * k_hat - 1
    cells = (2 * k_max + 2 * k_hat + 1) * (l_max + 1)
    return exposed * sl_w ** 2 * cells


def measured_ce_mse(
    truth_taps: np.ndarray,
    estimated_taps: np.ndarray,
    layout: PilotLayout,
) -> float | np.ndarray:
    """Squared estimation error summed (not averaged) over the read window.

    Expressed at the received-pilot scale, |x_p * (est - truth)|^2, so values
    line up with :func:`predicted_mse_floor` for any pilot power.  Stacks of
    ``[..., N, M]`` tap grids give one value per frame.  Only delays
    0 .. l_max are read, so either grid may hold just those columns.
    """
    # Behind a leading axis the np.ix_ gather returns the batch axis
    # innermost, and np.sum over that layout adds a frame's cells in another
    # order than over one frame's block.  C-contiguous blocks, summed as
    # (..., cells) rows, add them exactly as a single frame does.
    sel = (..., *layout.tap_cells)
    err = np.ascontiguousarray(estimated_taps[sel]) - np.ascontiguousarray(truth_taps[sel])
    power = np.abs(err) ** 2
    sse = abs(layout.pilot_value) ** 2 * np.sum(power.reshape(power.shape[:-2] + (-1,)), axis=-1)
    return float(sse) if sse.ndim == 0 else sse


def exact_interference_power(truth_taps: np.ndarray, layout: PilotLayout) -> float:
    """Exact conditional data-leakage power summed over the read window.

    For unit-energy, zero-mean, independent data symbols the leakage power
    at cell (k, l) is sum over data cells (k', l') of
    |h_w[(k-k') mod N, (l-l') mod M]|^2: a circular correlation of the data
    mask with the tap energy, evaluated here by FFT.  This is the
    pre-approximation value the flat-sidelobe predictor approximates.
    """
    mask = layout.data_mask.astype(float)
    energy = np.abs(truth_taps) ** 2
    leak = np.fft.ifft2(np.fft.fft2(mask) * np.fft.fft2(energy)).real
    return float(np.sum(leak[layout.read_cells]))
