"""TF-domain window construction and the MMSE-optimal transmit power map.

Windows live on the (N, M) time-frequency grid.  The library stores window
shapes with a fixed per-axis normalization (each axis vector has unit mean
square, so a full separable grid W satisfies sum |W|^2 = M*N); any stricter
constraint is applied at composition time by the caller.

Two families are provided:

* shape windows for sparsity control: rectangular and Dolph-Chebyshev, both
  applied along the Doppler (time-slot) axis while the delay axis stays
  rectangular, since the delay spread of practical channels is already well
  resolved;
* the detection-MSE-optimal transmit window, computed from the per-bin TF
  channel gains as a mercury/water-filling power allocation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailure
from .grid import FrameGrid


# ---------------------------------------------------------------------------
# window pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowPair:
    """Transmit and receive windows as full (N, M) grids, or as ``[..., N, M]``
    stacks holding one pair per frame.

    ``joint`` (the entrywise product rx*tx) is what shapes the effective DD
    channel; only the tx grid affects transmit power, only the rx grid
    affects the noise statistics.
    """

    tx: np.ndarray
    rx: np.ndarray

    def __post_init__(self) -> None:
        tx = np.asarray(self.tx, dtype=complex)
        rx = np.asarray(self.rx, dtype=complex)
        if tx.shape != rx.shape or tx.ndim < 2:
            raise ValueError("tx and rx windows must share one (N, M) or [..., N, M] shape")
        object.__setattr__(self, "tx", tx)
        object.__setattr__(self, "rx", rx)

    @property
    def shape(self) -> tuple[int, int]:
        return self.tx.shape

    @property
    def joint(self) -> np.ndarray:
        return self.rx * self.tx

    def tx_power(self) -> float:
        """Average transmit power scale (1/MN) * sum |tx|^2, 1 when normalized."""
        return float(np.mean(np.abs(self.tx) ** 2))

    @classmethod
    def rectangular(cls, grid: FrameGrid) -> "WindowPair":
        ones = np.ones(grid.shape)
        return cls(tx=ones, rx=ones.copy())

    @classmethod
    def separable(
        cls,
        grid: FrameGrid,
        tx_doppler: np.ndarray | None = None,
        rx_doppler: np.ndarray | None = None,
    ) -> "WindowPair":
        """Build a pair from Doppler-axis vectors of length N (time slots);
        an omitted side and the delay axis are rectangular."""

        def _outer(dop):
            d = np.ones(grid.N, dtype=complex) if dop is None else np.asarray(dop, dtype=complex)
            if d.size != grid.N:
                raise ValueError("Doppler window length must match the grid's N")
            return np.outer(d, np.ones(grid.M, dtype=complex))

        return cls(tx=_outer(tx_doppler), rx=_outer(rx_doppler))

    @classmethod
    def from_tx_grid(cls, tx: np.ndarray) -> "WindowPair":
        """Arbitrary (possibly non-separable) TX grid with a rectangular RX."""
        tx = np.asarray(tx, dtype=complex)
        return cls(tx=tx, rx=np.ones_like(tx))


# ---------------------------------------------------------------------------
# Dolph-Chebyshev design
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowResponse:
    """Mainlobe and sidelobe figures of an axis window's Doppler response."""

    mainlobe_width_bins: float  # null-to-null width
    sidelobe_db: float          # peak sidelobe relative to the mainlobe peak


@dataclass(frozen=True)
class DCWindowDesign:
    """A Dolph-Chebyshev Doppler-axis window plus its measured figures."""

    coeffs: np.ndarray          # length-N real, normalized to sum(c^2) = N
    sl_db_target: float
    sl_db_measured: float
    k_main: float               # measured null-to-null mainlobe width, bins


def _chebyshev_coeffs(length: int, attenuation_db: float) -> np.ndarray:
    """Equiripple window coefficients via Chebyshev frequency sampling.

    Samples T_{N-1}(x0*cos(theta/2)) at N equispaced frequencies and inverse
    transforms; x0 is chosen so every sidelobe sits attenuation_db below the
    mainlobe.  Returns a symmetric real window, peak-normalized.
    """
    order = length - 1
    ripple = 10.0 ** (abs(attenuation_db) / 20.0)  # sidelobe ratio >= 1
    x0 = np.cosh(np.arccosh(ripple) / order)
    x = x0 * np.cos(np.pi * np.arange(length) / length)
    response = np.empty(length)
    above = x > 1
    below = x < -1
    inside = ~(above | below)
    response[above] = np.cosh(order * np.arccosh(x[above]))
    response[below] = (2 * (length % 2) - 1) * np.cosh(order * np.arccosh(-x[below]))
    response[inside] = np.cos(order * np.arccos(x[inside]))
    if length % 2:
        w = np.real(np.fft.fft(response))
        half = (length + 1) // 2
        w = w[:half]
        w = np.concatenate((w[half - 1:0:-1], w))
    else:
        # half-sample phase shift keeps the even-length window symmetric
        response = response * np.exp(1j * np.pi * np.arange(length) / length)
        w = np.real(np.fft.fft(response))
        half = length // 2 + 1
        w = np.concatenate((w[half - 1:0:-1], w[1:half]))
    return w / np.max(w)


# Points per Doppler bin of the dense response scan.
_OVERSAMPLE = 128
# Longest window dc_window designs: its response scan then holds 2^21
# complex points (32 MiB).
_MAX_DC_LENGTH = 1 << 14


def measure_doppler_response(coeffs: np.ndarray) -> WindowResponse:
    """Dense scan of an axis window's DD-domain response.

    The response is (1/N) * sum_n c[n] exp(-j2pi n dk / N) on a dk grid
    oversampled ``_OVERSAMPLE`` times; the mainlobe is delimited by the
    first local minimum after the peak and the sidelobe level is the
    largest magnitude beyond it.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size
    dense = np.abs(np.fft.fft(coeffs, n=n * _OVERSAMPLE)) / n
    half = (n * _OVERSAMPLE) // 2
    peak = dense[0]
    j = 1
    while j < half and dense[j + 1] < dense[j]:
        j += 1
    if j >= half:
        raise ConfigurationError(
            "window mainlobe spans the whole Doppler axis (no sidelobe region)"
        )
    sidelobe = float(np.max(dense[j:half + 1]) / peak)
    return WindowResponse(
        mainlobe_width_bins=2.0 * j / _OVERSAMPLE,
        sidelobe_db=20.0 * math.log10(max(sidelobe, 1e-300)),
    )


def max_achievable_attenuation_db(length: int) -> float:
    """Largest attenuation whose mainlobe still leaves a sidelobe region and
    whose sidelobe ratio 10^(dB/20) is a finite float."""
    if length < 3:
        return 0.0
    order = length - 1
    # keep the first null strictly inside the half grid (one bin of margin)
    x0_max = math.cos(math.pi / (2 * order)) / math.cos(math.pi * (length - 1) / (2 * length))
    if x0_max <= 1.0:
        return 0.0
    # 20 log10 cosh(a) without forming cosh(a), which overflows for long windows
    a = order * math.acosh(x0_max)
    db = 20.0 * (a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)) / math.log(10.0)
    return min(db, 20.0 * math.log10(sys.float_info.max))


def dc_window(length: int, sl_db: float) -> DCWindowDesign:
    """Design a Dolph-Chebyshev Doppler window with the given sidelobe level.

    ``sl_db`` is the requested sidelobe level in dB (negative, at most -10).
    Coefficients come back normalized to unit mean square (sum c^2 = N) so a
    separable pair built from them keeps both the transmit-power and the
    joint-window normalization when the other axes are rectangular.
    """
    if length < 3:
        raise ConfigurationError("Chebyshev design needs a window length of at least 3")
    if length > _MAX_DC_LENGTH:
        raise ConfigurationError(
            f"Chebyshev design supports window lengths up to {_MAX_DC_LENGTH}, got {length}")
    if not sl_db <= -10.0:
        raise ConfigurationError(f"sidelobe target must be -10 dB or lower, got {sl_db!r}")
    try:
        coeffs = _chebyshev_coeffs(length, -abs(sl_db))
        resp = measure_doppler_response(coeffs)
    except (ConfigurationError, OverflowError):
        raise ConfigurationError(
            f"requested {sl_db:.1f} dB is infeasible for N={length}; "
            f"max achievable attenuation is about "
            f"{max_achievable_attenuation_db(length):.1f} dB"
        ) from None
    coeffs = coeffs * math.sqrt(length / np.sum(coeffs ** 2))
    return DCWindowDesign(
        coeffs=coeffs,
        sl_db_target=float(sl_db),
        sl_db_measured=resp.sidelobe_db,
        k_main=resp.mainlobe_width_bins,
    )


def nominal_sidelobe_level(kind: str, length: int, sl_db: float | None = None) -> float:
    """Sidelobe level fed to the analytic estimation-floor predictor.

    Rectangular windows are taken at 1/N; designed windows at their target
    ripple.  Real responses have non-constant sidelobes, so predictions carry
    a tolerance of a couple of dB.
    """
    kind = kind.lower()
    if kind == "rect":
        return 1.0 / length
    if kind == "dc":
        if sl_db is None:
            raise ValueError("dc window needs its design sidelobe level")
        return 10.0 ** (sl_db / 20.0)
    raise ValueError(f"no nominal sidelobe level for window kind {kind!r}")


# ---------------------------------------------------------------------------
# MMSE-optimal transmit window (mercury/water filling)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerAllocation:
    """Power map for the optimal TX window.

    ``x`` holds the per-bin powers |U|^2 (budget: mean x = 1), ``eta`` the
    dual water level, ``mercury`` the per-vessel mercury column poured in
    before the water.  For a ``[B, N, M]`` stack, ``x`` and ``mercury`` are
    stacks and ``eta`` holds one level per frame.
    """

    x: np.ndarray
    eta: float | np.ndarray
    mercury: np.ndarray

    @property
    def tx_window(self) -> np.ndarray:
        # detection MSE is phase-blind, so the window is taken real
        return np.sqrt(self.x)


def _allocation(lam: np.ndarray, eta: np.ndarray) -> np.ndarray:
    # bins at or below the level get no power (their 1/lam may overflow)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = np.sqrt(1.0 / (eta * lam)) - 1.0 / lam
    return np.where(lam > eta, np.maximum(raw, 0.0), 0.0)


def optimal_tx_window(lam: np.ndarray) -> PowerAllocation:
    """Minimize the mean MMSE detection error over TF power allocations.

    ``lam`` are the nonnegative per-bin TF channel gains |H[n,m]|^2 / N0.
    The solution is the water-filling form x = [sqrt(1/(eta*lam)) - 1/lam]^+,
    so a bin is active exactly when lam > eta, and the dual level eta is set
    by the unit-mean power budget.  On a given active set A the budget
    solves in closed form,

        eta(A) = (sum_A lam^-1/2 / (lam.size + sum_A lam^-1))^2,

    and eta is found by the active-set fixed point: start from a superset of
    the optimal set, drop every bin with lam <= eta(A), repeat until none
    drops.  Dropping bins at or below eta(A) never lowers eta(A), so an
    eta computed from a superset is at most the optimal level and every bin
    it drops is truly inactive; when none drops, the KKT conditions hold and
    eta(A) is the exact level (Palomar & Fonollosa, IEEE TSP 2005).  The set
    shrinks on every pass, so there are at most lam.size passes.

    The start set keeps the bins at or above lam_max / (lam.size * lam_max
    + 1)^2: the strongest bin is always active and holds at most the whole
    budget, which bounds eta from below, and the bound keeps subnormal gains
    out of the 1/lam sums.

    A 1-D or 2-D ``lam`` is one problem and gives a float ``eta``.  A
    ``[B, N, M]`` stack is B problems, one per (N, M) frame, solved by one
    fixed-point loop with a per-frame active set and level; a frame whose
    set no longer shrinks recomputes the same level, so frame i comes out
    bit for bit as it does alone.

    Raises ``ValueError`` for negative, non-finite or all-zero gains and
    ``NumericalFailure`` when the level or the powers are not finite (gains
    too small for the budget to be met in floating point), naming the frame
    of a stack.
    """
    lam = np.asarray(lam, dtype=float)
    stacked = lam.ndim > 2
    frames = lam.reshape((-1, lam.shape[-2] * lam.shape[-1]) if stacked else (1, lam.size))
    size = frames.shape[1]

    def frame(index) -> str:
        return f"frame {int(index)} of the stack: " if stacked else ""

    lam_max = frames.max(axis=1, initial=0.0, keepdims=True)
    if not (lam.min(initial=0.0) >= 0.0 and np.all(lam_max < math.inf)):
        raise ValueError("channel gains must be finite and nonnegative")
    if not np.all(lam_max > 0.0):
        raise ValueError(f"{frame(np.argmin(lam_max))}all channel gains are zero; "
                         "no useful allocation exists")

    # the start bound lam_max / denom^2, divided twice so the square cannot overflow
    denom = size * lam_max + 1.0
    active = (frames > 0.0) & (frames >= lam_max / denom / denom)
    with np.errstate(over="ignore", invalid="ignore"):
        inv_lam = np.divide(1.0, frames, out=np.zeros_like(frames), where=active)
        inv_sqrt = np.sqrt(inv_lam)
        for _ in range(size):
            root = (inv_sqrt.sum(axis=1, where=active)
                    / (size + inv_lam.sum(axis=1, where=active)))
            # squared by the C library's pow, as numpy squares one float64
            # scalar; the correctly rounded square numpy takes of an array
            # differs from it in the last bit for about one level in 1000
            eta = np.array([[r ** 2] for r in root.tolist()])
            dropped = active & (frames <= eta)
            if not dropped.any():
                break
            active ^= dropped
    bad = ~(np.isfinite(eta) & (eta > 0.0))
    if bad.any():
        first = np.argmax(bad)
        raise NumericalFailure(
            f"optimal TX window: {frame(first)}water level {float(eta[first, 0])!r} is not "
            "finite and positive (channel gains too small for the power budget)"
        )
    x = _allocation(frames, eta)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise NumericalFailure(
            f"optimal TX window: {frame(np.argmin(finite))}the power map is not finite")

    inv_eta_sqrt = np.sqrt(1.0 / eta)
    with np.errstate(divide="ignore"):
        inv_lam_sqrt = np.where(frames > 0, np.sqrt(1.0 / np.maximum(frames, 1e-300)), np.inf)
    mercury = inv_eta_sqrt * np.maximum(inv_eta_sqrt - inv_lam_sqrt, 0.0)
    return PowerAllocation(
        x=x.reshape(lam.shape),
        eta=eta.reshape(lam.shape[:-2]) if stacked else float(eta[0, 0]),
        mercury=mercury.reshape(lam.shape),
    )
