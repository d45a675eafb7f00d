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
    def T(self) -> float:
        """Slot duration in seconds (reciprocal of the subcarrier spacing)."""
        return 1.0 / self.delta_f

    @property
    def bandwidth(self) -> float:
        return self.M * self.delta_f

    @property
    def duration(self) -> float:
        """Total frame duration N*T in seconds."""
        return self.N / self.delta_f

    @property
    def size(self) -> int:
        return self.M * self.N

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape (N, M) of frames on this grid."""
        return (self.N, self.M)

    @property
    def delay_resolution(self) -> float:
        return 1.0 / (self.M * self.delta_f)

    @property
    def doppler_resolution(self) -> float:
        return self.delta_f / self.N


@dataclass(frozen=True)
class GridResolutions:
    delay_res: float    # seconds
    doppler_res: float  # Hz
    speed_res: float    # m/s


def derive_resolutions(grid: FrameGrid) -> GridResolutions:
    """Delay, Doppler, and relative-speed resolution of a frame grid.

    The speed resolution is the smallest speed difference between
    transceiver and scatterers that still lands on distinct Doppler bins.
    """
    doppler_res = grid.doppler_resolution
    return GridResolutions(
        delay_res=grid.delay_resolution,
        doppler_res=doppler_res,
        speed_res=doppler_res * SPEED_OF_LIGHT / grid.fc,
    )


@dataclass(frozen=True)
class Constellation:
    """A unit-average-energy symbol alphabet with a fixed bit labelling."""

    name: str
    points: np.ndarray  # (Q,) complex, index = integer value of the bit label

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", pts)
        q = pts.size
        if q < 2 or q & (q - 1):
            raise ValueError("constellation size must be a power of two >= 2")
        if abs(np.mean(np.abs(pts) ** 2) - 1.0) > 1e-12:
            raise ValueError("constellation must have unit average energy")

    @property
    def order(self) -> int:
        return self.points.size

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.points.size))

    @classmethod
    def bpsk(cls) -> "Constellation":
        # bit 0 -> +1, bit 1 -> -1
        return cls("BPSK", np.array([1.0 + 0j, -1.0 + 0j]))

    @classmethod
    def qpsk(cls) -> "Constellation":
        # Gray labelling: first bit flips the sign of I, second bit of Q.
        s = 1.0 / np.sqrt(2.0)
        return cls("QPSK", np.array([s + 1j * s, s - 1j * s, -s + 1j * s, -s - 1j * s]))

    @classmethod
    def by_name(cls, name: str) -> "Constellation":
        try:
            return {"bpsk": cls.bpsk, "qpsk": cls.qpsk}[name.lower()]()
        except KeyError:
            raise ValueError(f"unknown constellation {name!r}") from None

    def bits_to_indices(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.int64)
        if bits.ndim != 1 or bits.size % self.bits_per_symbol:
            raise ValueError("bit count must be a multiple of bits_per_symbol")
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("bits must be 0 or 1")
        groups = bits.reshape(-1, self.bits_per_symbol)
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        return groups @ weights

    def indices_to_bits(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        return ((indices[:, None] >> shifts) & 1).reshape(-1)

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        return self.points[self.bits_to_indices(bits)]

    def nearest_indices(self, symbols: np.ndarray) -> np.ndarray:
        symbols = np.asarray(symbols, dtype=complex).reshape(-1)
        return np.argmin(np.abs(symbols[:, None] - self.points[None, :]), axis=1)


def vectorize(frame: np.ndarray) -> np.ndarray:
    """Flatten an (N, M) frame into the canonical k*M+l / n*M+m order."""
    if frame.ndim != 2:
        raise ValueError("expected a 2-D frame")
    return np.asarray(frame).reshape(-1)


def map_symbols(
    bits: np.ndarray,
    constellation: Constellation,
    grid: FrameGrid,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Map a bit sequence onto a DD frame, or each row of a ``[..., bits]``
    array onto the frames of a ``[..., N, M]`` stack.

    When ``mask`` is given (True marks data cells), bits fill only the masked
    cells in row-major order and the remaining cells are zero; the caller is
    expected to overwrite them (pilot embedding).  The bit count per frame
    must match the number of filled cells exactly.
    """
    bps = constellation.bits_per_symbol
    n_cells = grid.size if mask is None else int(np.count_nonzero(mask))
    bits = np.asarray(bits)
    if bits.ndim < 1 or bits.shape[-1] != n_cells * bps:
        raise ValueError(f"expected {n_cells * bps} bits per frame, got {bits.shape}")
    lead = bits.shape[:-1]
    symbols = constellation.modulate(bits.reshape(-1)).reshape(lead + (n_cells,))
    if mask is None:
        return symbols.reshape(lead + grid.shape)
    if mask.shape != grid.shape:
        raise ValueError("mask shape does not match grid")
    frame = np.zeros(lead + grid.shape, dtype=complex)
    frame[..., mask] = symbols
    return frame
