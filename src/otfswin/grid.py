"""Frame geometry, constellations, and index conventions for the DD/TF grids.

Conventions shared by every module in the package:

* Delay-Doppler (DD) frames are ``(N, M)`` complex arrays indexed ``[k, l]``
  with Doppler bin ``k`` in ``0..N-1`` and delay bin ``l`` in ``0..M-1``.
* Time-frequency (TF) frames are ``(N, M)`` complex arrays indexed ``[n, m]``
  with time slot ``n`` in ``0..N-1`` and subcarrier ``m`` in ``0..M-1``.
* Vectorization is row-major: DD entry ``(k, l)`` sits at vector index
  ``k*M + l`` and TF entry ``(n, m)`` at ``n*M + m``.  ``frame.reshape(-1)``
  and ``vec.reshape(N, M)`` are therefore the canonical conversions.
* Negative Doppler is stored modulo ``N``; signed Doppler indices appear only
  at API boundaries (path descriptions, pilot window offsets).

All types are immutable values and all operations are pure, so everything
here is safe to share across concurrent simulation trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class FrameGrid:
    """Geometry of one OTFS frame.

    M is the number of delay bins (= subcarriers), N the number of Doppler
    bins (= time slots).  The slot duration is tied to the subcarrier spacing
    by T * delta_f = 1.
    """

    M: int
    N: int
    delta_f: float = 5e3  # subcarrier spacing, Hz
    fc: float = 3e9       # carrier frequency, Hz

    def __post_init__(self) -> None:
        if self.M < 2 or self.N < 2:
            raise ValueError(f"grid needs M >= 2 and N >= 2, got M={self.M}, N={self.N}")
        if not (0 < self.delta_f < math.inf and 0 < self.fc < math.inf):
            raise ValueError("delta_f and fc must be finite and positive")

    @property
    def size(self) -> int:
        return self.M * self.N

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape (N, M) of frames on this grid."""
        return (self.N, self.M)

    @property
    def doppler_resolution(self) -> float:
        return self.delta_f / self.N

    @property
    def speed_resolution(self) -> float:
        """Smallest speed difference, in m/s, between transceiver and
        scatterers that still lands on distinct Doppler bins."""
        return self.doppler_resolution * SPEED_OF_LIGHT / self.fc


# Gray-labelled point sets whose nearest point is found per axis by signs
_BPSK_POINTS = (1.0 + 0j, -1.0 + 0j)   # bit 0 -> +1, bit 1 -> -1
_A = 1.0 / np.sqrt(2.0)  # the magnitude of each QPSK coordinate
# first bit flips the sign of I, second bit of Q
_QPSK_POINTS = (_A + 1j * _A, _A - 1j * _A, -_A + 1j * _A, -_A - 1j * _A)


@dataclass(frozen=True)
class Constellation:
    """BPSK or QPSK: a unit-average-energy alphabet with its Gray bit labelling."""

    name: str
    points: np.ndarray  # (Q,) complex, index = integer value of the bit label

    def __post_init__(self) -> None:
        # a copy nobody can write: the slicing rule below holds for these points only
        pts = np.array(self.points, dtype=complex)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if tuple(pts.tolist()) not in (_BPSK_POINTS, _QPSK_POINTS):
            raise ValueError("constellation points must be the BPSK or the QPSK point set")

    @property
    def bits_per_symbol(self) -> int:
        # 2 or 4 points
        return self.points.size.bit_length() - 1

    @classmethod
    def bpsk(cls) -> "Constellation":
        return cls("BPSK", np.array(_BPSK_POINTS))

    @classmethod
    def qpsk(cls) -> "Constellation":
        return cls("QPSK", np.array(_QPSK_POINTS))

    @classmethod
    def by_name(cls, name: str) -> "Constellation":
        try:
            return {"bpsk": cls.bpsk, "qpsk": cls.qpsk}[name.lower()]()
        except KeyError:
            raise ValueError(f"unknown constellation {name!r}") from None

    def bits_to_indices(self, bits: np.ndarray) -> np.ndarray:
        """Labels of consecutive groups of ``bits_per_symbol`` bits, first
        bit most significant."""
        bits = np.asarray(bits, dtype=np.int64)
        bps = self.bits_per_symbol
        if bits.ndim != 1 or bits.size % bps:
            raise ValueError("bit count must be a multiple of bits_per_symbol")
        if bits.size and (bits.min() < 0 or bits.max() > 1):
            raise ValueError("bits must be 0 or 1")
        label = bits[0::bps]
        for first in range(1, bps):
            label = 2 * label + bits[first::bps]
        return label

    # sent and detected labels differ in popcount[sent ^ detected] bits
    popcount = np.array([0, 1, 1, 2], dtype=np.uint8)
    popcount.flags.writeable = False

    def nearest_indices(self, symbols: np.ndarray) -> np.ndarray:
        """Index of the point nearest to each symbol, flattened, ties to the
        lower index.

        The decision is per axis by sign: the QPSK index is 2 [re < 0] +
        [im < 0] and the BPSK index [re < 0].  Two points that differ on one
        axis sit at +a and -a there, and their squared distances to a symbol
        differ by exactly 4 a x, x its coordinate on that axis, so the sign
        gives the nearest point in exact arithmetic for any finite symbol.
        An infinite coordinate reads by its sign; a tie (x = +-0) and a NaN
        coordinate read as non-negative, the lower index.
        """
        symbols = np.ascontiguousarray(symbols, dtype=complex).reshape(-1)
        # re, im, re, im, ...
        negative = np.less(symbols.view(float), 0)
        out = negative[0::2].astype(np.intp)
        if self.points.size == 4:
            out *= 2
            out += negative[1::2]
        return out


def frame_noise(n0: float | np.ndarray, frames: tuple[int, ...]) -> np.ndarray:
    """``n0`` as a float array: one noise power, or one per frame of a
    stack whose leading shape is ``frames``.  Every layer of a trial that
    takes a noise power checks it here.  Any other shape raises
    ``ValueError`` naming both shapes, and a power that is not finite and
    nonnegative (0 is valid) raises ``ValueError`` naming the bad values."""
    n0 = np.asarray(n0, dtype=float)
    if n0.ndim and n0.shape != frames:
        raise ValueError(f"noise power of shape {n0.shape} is neither one value nor one "
                         f"per frame of the stack's leading shape {frames}")
    # NaN fails every comparison
    if n0.size and not 0.0 <= n0.min() <= n0.max() < math.inf:
        bad = n0[~((n0 >= 0.0) & (n0 < math.inf))]
        raise ValueError(f"noise power must be finite and nonnegative, got {bad.tolist()}")
    return n0


def vectorize(frame: np.ndarray) -> np.ndarray:
    """Flatten an (N, M) frame into the canonical k*M+l / n*M+m order."""
    if frame.ndim != 2:
        raise ValueError("expected a 2-D frame")
    return np.asarray(frame).reshape(-1)


def map_symbols(
    labels: np.ndarray,
    constellation: Constellation,
    grid: FrameGrid,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Map a sequence of labels (point indices) onto a DD frame, or each row
    of a ``[..., cells]`` array onto the frames of a ``[..., N, M]`` stack.

    When ``mask`` is given (True marks data cells), labels fill only the
    masked cells in row-major order and the remaining cells are zero; the
    caller is expected to overwrite them (pilot embedding).  A frame takes
    one label in [0, Q) per filled cell; a mask without data cells takes
    none and gives zero frames.  Each frame's labels are padded by one label
    past the points, whose symbol is zero; every grid cell gathers the label
    of its data cell or that pad, and one gather of the points fills them.
    """
    labels = np.asarray(labels)
    q = constellation.points.size
    n_cells = grid.size if mask is None else int(np.count_nonzero(mask))
    if labels.ndim < 1 or labels.shape[-1] != n_cells:
        raise ValueError(f"expected {n_cells} labels per frame, got {labels.shape}")
    if labels.dtype.kind not in "iu" or labels.size and not 0 <= labels.min() <= labels.max() < q:
        raise ValueError(f"labels must be integers in [0, {q}) for {constellation.name}")
    if mask is not None and mask.shape != grid.shape:
        raise ValueError("mask shape does not match grid")
    lead = labels.shape[:-1]
    # the labels are checked above: clipping moves none of them
    if mask is None:
        return constellation.points.take(labels, mode="clip").reshape(lead + grid.shape)
    count = math.prod(lead)
    padded = np.empty((count, n_cells + 1), np.int64)
    padded[:, :n_cells] = labels.reshape(count, n_cells)
    padded[:, n_cells] = q
    # the label column each grid cell reads: its data index, or the pad
    column = np.full(grid.size, n_cells)
    column[mask.reshape(-1)] = np.arange(n_cells)
    cells = padded.take(column, axis=1, mode="clip")
    return np.concatenate((constellation.points, [0.0])).take(cells, mode="clip").reshape(
        lead + grid.shape)
