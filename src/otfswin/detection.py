"""LMMSE detection per TF bin and sum-product detection in the DD domain.

Two LMMSE detectors compute the same estimate.  :func:`tf_lmmse_detect` uses
the ideal-pulse structure: channel, both windows and the post-window noise
are diagonal in the TF domain, so it takes the RX-windowed TF grid the
channel leaves (``transmit_frame(..., demodulate=False)``), equalizes a
full-data frame per TF bin, and applies the known guard and pilot cells of
an embedded-pilot frame as a low-rank downdate of that diagonal Gram matrix,
with the Woodbury identity.  :func:`mmse_detect` works on the dense
vectorized model and takes colored noise from a non-unimodular RX window
through the full covariance (no whitening: a whitening filter would undo the
RX window's sparsity shaping); it is the oracle the per-bin detector is
checked against.

The sum-product detector runs belief propagation on the factor graph induced
by the truncated effective channel, restricted to the unknown symbols: every
data symbol takes part in the L factors its truncated taps reach, and every
received cell that reaches a data symbol is a factor over its L tap slots.
A slot on a known (guard or pilot) cell has zero gain and reads the uniform
message; a frame with fewer taps takes pad slots that read a point mass, so
the frames of a stack share one flood.  Tap energy outside the truncation is
folded into the Gaussian likelihood as extra noise.  Scheduling is flooding
with message damping.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .channel import EffectiveDDChannel
from .errors import ConfigurationError, NumericalFailure
from .estimation import PilotLayout
from .grid import Constellation, frame_noise
from .transforms import dft_matrix, sfft


# ---------------------------------------------------------------------------
# noise covariance
# ---------------------------------------------------------------------------

def noise_covariance(rx_window: np.ndarray, n0: float) -> np.ndarray:
    """(MN, MN) noise covariance at the demodulator output for an RX window grid.

    C = n0 * demod * diag(V) diag(V)^H * demod^H.  A unit-modulus window
    leaves the noise white, so that case short-circuits to n0 * I.
    """
    v = np.asarray(rx_window, dtype=complex)
    if np.allclose(np.abs(v), 1.0, rtol=0.0, atol=1e-12):
        return n0 * np.eye(v.size)
    n, m = v.shape
    f_n, f_m = dft_matrix(n), dft_matrix(m)
    demod = np.kron(f_n, f_m.conj().T)
    weights = np.abs(v.reshape(-1)) ** 2
    return n0 * (demod * weights[None, :]) @ demod.conj().T


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionReport:
    soft: np.ndarray                  # soft symbol estimates
    hard_indices: np.ndarray          # constellation indices of the decisions
    mse_emp: float | None = None      # empirical per-symbol MSE vs supplied truth
    marginals: np.ndarray | None = None  # SPA per-symbol posteriors
    iterations: int | None = None     # SPA sweeps the call ran
    frame_iterations: np.ndarray | None = None  # SPA sweeps of each frame


# ---------------------------------------------------------------------------
# linear MMSE
# ---------------------------------------------------------------------------

def mmse_detect(
    y: np.ndarray,
    channel_matrix: np.ndarray,
    noise_cov: np.ndarray,
    constellation: Constellation,
    truth: np.ndarray | None = None,
) -> DetectionReport:
    """LMMSE symbol estimates x = H^H (H H^H + C)^(-1) y with hard slicing,
    for the noise covariance C (see :func:`noise_covariance`)."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    h = np.asarray(channel_matrix, dtype=complex)
    if h.shape[0] != y.size:
        raise ValueError("channel matrix rows must match the observation length")
    gram = h @ h.conj().T + noise_cov
    try:
        soft = h.conj().T @ np.linalg.solve(gram, y)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            "MMSE solve is singular (zero noise with a rank-deficient channel); "
            "refusing to regularize implicitly"
        ) from exc
    idx = constellation.nearest_indices(soft)
    mse = None
    if truth is not None:
        truth = np.asarray(truth, dtype=complex).reshape(-1)
        mse = float(np.mean(np.abs(soft - truth) ** 2))
    return DetectionReport(soft=soft, hard_indices=idx, mse_emp=mse)


def tf_lmmse_detect(
    received: np.ndarray,
    tf_gains: np.ndarray,
    rx_window: np.ndarray,
    n0: float | np.ndarray,
    constellation: Constellation,
    layout: PilotLayout | None = None,
) -> DetectionReport:
    """LMMSE detection of an (N, M) RX-windowed TF grid, or of each grid of
    a [B, N, M] stack, solved per TF bin.

    ``received`` is the grid r that ``transmit_frame(..., demodulate=False)``
    returns, whose sfft is the DD frame y; a caller that holds y passes
    isfft(y).  ``tf_gains`` is the receiver's TF gain grid g (joint window
    times channel), so the DD channel is sfft . diag(g) . isfft, and
    ``rx_window`` the RX window grid v, which colors the noise to n0 |v|^2
    per bin.  ``n0`` is one noise power for all frames or an array of one
    per frame (any other shape, or a value that is not finite and
    nonnegative, raises ``ValueError``).  g takes the shape of r and n0 |v|^2
    broadcasts to it: a stack takes one window grid, or one per frame, with
    either kind of n0.  With d = |g|^2 + n0 |v|^2, the full-data estimate is
    sfft(conj(g) / d * r).

    The guard cells of an embedded-pilot ``layout`` (the caller cancels the
    pilot beforehand) are known zeros; they remove G columns from the
    channel, a rank-G downdate of the diagonal Gram matrix.  By Woodbury the
    data estimate is x0[D] - E[D, G] E[G, G]^(-1) x0[G], where x0 is the
    full-data estimate and E the circular operator of e = DD response of
    the residual n0 |v|^2 / d.  E[G, G] is the capacitance matrix I - c[G, G]
    with c the DD response of |g|^2 / d, formed without the cancellation of
    1 - c, and solved on the guard's delay band, where E splits into one
    small block per time slot (:func:`_guard_weights`): on the Fig-6
    layout, 20 inverses of 9 x 9 blocks and one 27 x 27 solve per frame.
    The correction E[D, G] w is the DD response of the residual times the
    TF grid of the weights w, so the estimate is one sfft of the TF grid
    conj(g) / d * r less that product.

    Returns the soft estimates of the data cells in row-major order, as
    :func:`mmse_detect` does for the masked dense channel, one row per frame
    of a stack.  Raises :class:`NumericalFailure` where the dense solve
    would be singular.  The guard solve also refuses an ``rx_window`` with
    fewer than 2 l_max + 1 nonzero bins in a time slot where ``tf_gains``
    is nonzero, a pair no joint window gives, since g carries the RX window.
    """
    r = np.asarray(received, dtype=complex)
    g = np.asarray(tf_gains, dtype=complex)
    n0 = frame_noise(n0, r.shape[:-2])
    rx = np.asarray(rx_window)
    try:
        fits = np.broadcast(n0[..., None, None], rx, r).shape == r.shape
    except ValueError:
        fits = False
    if not fits or g.shape != r.shape:
        raise ValueError("observation, gain and window grids must share one shape")
    cells = r.shape[-2] * r.shape[-1] if layout is None else int(layout.data_mask.sum())
    # n0 |v|^2 and d = |g|^2 + n0 |v|^2, real; no complex step writes over
    # one of its operands (see ``channel.tf_channel``)
    noise_tf = np.multiply(n0[..., None, None], np.square(np.abs(rx)))
    denom = np.add(np.square(np.abs(g)), noise_tf)
    if not np.all(denom > 0):
        raise NumericalFailure(
            "LMMSE solve is singular (a TF bin with zero gain and zero noise); "
            "refusing to regularize implicitly"
        )
    # conj(g) / d * r
    weighted = np.multiply(np.true_divide(np.conj(g), denom), r)
    if layout is None:
        soft = sfft(weighted).reshape(r.shape[:-2] + (cells,))
    else:
        residual = np.true_divide(noise_tf, denom)
        try:
            weights = _guard_weights(weighted, residual, layout)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(
                "LMMSE guard downdate is singular; refusing to regularize implicitly"
            ) from exc
        dd = sfft(np.subtract(weighted, np.multiply(residual, weights)))
        soft = dd.reshape(r.shape[:-2] + (-1,)).take(_guard_plan(layout).data_cells, axis=-1,
                                                    mode="clip")
    if not np.all(np.isfinite(soft)):
        raise NumericalFailure("LMMSE estimate is not finite")
    hard = constellation.nearest_indices(soft).reshape(soft.shape)
    return DetectionReport(soft=soft, hard_indices=hard)


@dataclass(frozen=True)
class _GuardPlan:
    """What the guard downdate of one layout needs besides the frames: the
    guard's delay band, its Toeplitz lags, and the Doppler DFT rows and
    columns at the rows Kc outside the guard; and the data cells the
    estimate is read at."""

    band: np.ndarray       # (b,) delay columns of the guard band
    toeplitz: np.ndarray   # (b, b) delay column of the lag l - l' mod M
    to_rest: np.ndarray    # (|Kc|, N) Doppler FFT rows at Kc
    from_rest: np.ndarray  # (N, |Kc|) Doppler IFFT columns at Kc
    lag_dft: np.ndarray    # (L, N) Doppler FFT rows / N at the L distinct k - k', k, k' in Kc
    lag_pairs: np.ndarray  # (|Kc|, |Kc|) row of lag_dft at k - k'
    data_cells: np.ndarray  # (D,) flat row-major indices of the data cells


# The guard plan of each live layout: built at its first downdate, dropped
# with the layout.
_GUARD_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _guard_plan(layout: PilotLayout) -> _GuardPlan:
    """The :class:`_GuardPlan` of ``layout``, built once per layout from its
    guard mask: a set Kg of Doppler rows times a band of b delay columns."""
    plan = _GUARD_PLANS.get(layout)
    if plan is not None:
        return plan
    guard = layout.guard_mask
    n, m = guard.shape
    in_guard = guard.any(axis=1)
    band = np.flatnonzero(guard[np.argmax(in_guard)])
    rest = np.flatnonzero(~in_guard)
    toeplitz = np.subtract.outer(np.arange(band.size), np.arange(band.size)) % m
    lags, lag_pairs = np.unique(np.subtract.outer(rest, rest) % n, return_inverse=True)
    to_rest = np.exp(-2j * np.pi * np.outer(rest, np.arange(n)) / n)
    plan = _GuardPlan(band, toeplitz, to_rest, to_rest.conj().T / n,
                      np.exp(-2j * np.pi * np.outer(lags, np.arange(n)) / n) / n,
                      lag_pairs.reshape(rest.size, rest.size), np.flatnonzero(layout.data_mask))
    for array in vars(plan).values():
        array.flags.writeable = False
    _GUARD_PLANS[layout] = plan
    return plan


def _guard_weights(weighted: np.ndarray, residual: np.ndarray, layout: PilotLayout) -> np.ndarray:
    """The TF grid isfft(W) of the guard weights w = E[G, G]^(-1) x0[G]
    placed on the guard cells G of ``layout`` (W zero elsewhere), per frame
    of [..., N, M] stacks of TF grids
    ``weighted`` and ``residual``: x0 = sfft(weighted) is the full-data
    estimate and E the circular operator of the residual's DD response.

    E restricted to the guard's delay band Lb of b columns (all N Doppler
    rows) is block-circulant in Doppler: with h = ifft(residual) over delay,
    a Doppler DFT splits it into one Hermitian positive semidefinite b x b
    block P_n[l, l'] = h[n, l - l'] per time slot n.  The guard is that band
    on a set Kg of Doppler rows, so E[G, G] is the band operator's principal
    block on Kg.  With Q the band operator's inverse, fft . inv(P_n) . ifft
    over Doppler, E[G, G]^(-1) = Q_GG - Q_GC Q_CC^(-1) Q_CG over the other
    rows Kc.  So with z = Q [x0_G; 0] and Q_CC u = z_C, the band vector
    Q [x0_G; -u] holds w on Kg and zeros on Kc: its Doppler IFFT is
    inv(P_n) ifft([x0_G; -u]), and W's TF grid is that, placed on the band,
    after one delay FFT.  Q_CC's block at row difference k - k' is the
    Doppler DFT of the inv(P_n) at that lag, over N.

    No Doppler FFT runs: ifft(x0) over Doppler on the band is ifft(weighted)
    over delay there (the sqrt(M / N) of sfft and the sqrt(N / M) of isfft
    cancel, so neither is applied), and the Kc rows enter through small DFT products (:func:`_guard_plan`).  One
    IFFT call takes both grids, one batched inverse the N blocks and one
    (|Kc| b)-sized solve each frame.  Each frame's weights come from its
    own batched LAPACK, FFT and matrix-product calls, so a stack gives
    every frame bit for bit its result alone.  P_n is singular exactly when
    time slot n has fewer than b nonzero residual bins; that raises
    ``LinAlgError`` up front, since a rounded singular block need not fail
    to invert.
    """
    plan = _guard_plan(layout)
    band, rest = plan.band, plan.to_rest.shape[0]
    n, m = layout.grid.shape
    b = band.size
    if np.any(np.count_nonzero(residual, axis=-1) < b):
        raise np.linalg.LinAlgError("a time slot's band block is singular")
    batch = weighted.shape[:-2]
    spectra, lags = np.fft.ifft(np.stack((weighted, residual)), axis=-1)
    # the Doppler IFFT of x0 on the band, times sqrt(N / M)
    rhs = spectra[..., band]
    inverse = np.linalg.inv(lags.take(plan.toeplitz, axis=-1, mode="clip"))
    if rest:
        # less x0's rows Kc: the Doppler IFFT of [x0_G; 0]
        rhs = rhs - plan.from_rest @ (plan.to_rest @ rhs)
        z_rest = plan.to_rest @ (inverse @ rhs[..., None])[..., 0]
        # Q_CC from its row-difference blocks
        size = rest * b
        q_lags = (plan.lag_dft @ inverse.reshape(batch + (n, b * b))
                  ).reshape(batch + (-1, b, b))
        q_cc = q_lags[..., plan.lag_pairs, :, :].swapaxes(-3, -2).reshape(
            batch + (size, size))
        u = np.linalg.solve(q_cc, z_rest.reshape(batch + (size, 1)))
        # the Doppler IFFT of [x0_G; -u]
        rhs = rhs - plan.from_rest @ u.reshape(batch + (rest, b))
    placed = np.zeros(weighted.shape, complex)
    placed[..., band] = (inverse @ rhs[..., None])[..., 0]
    return np.fft.fft(placed, axis=-1)


def analytic_detection_mse(lam: np.ndarray, x: np.ndarray) -> float:
    """Mean MMSE per symbol for diagonal TF gains ``lam`` under power map ``x``.

    lam holds |H[n,m]|^2 / N0 and x the per-bin transmit powers |U|^2; the
    per-symbol error is the average of 1 / (lam * x + 1).
    """
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    if lam.shape != x.shape:
        raise ValueError("gain and allocation grids must share a shape")
    if np.any(lam < 0) or np.any(x < 0):
        raise ValueError("gains and powers must be nonnegative")
    return float(np.mean(1.0 / (lam * x + 1.0)))


# ---------------------------------------------------------------------------
# sum-product detector
# ---------------------------------------------------------------------------

def _normalize(msgs: np.ndarray, axis: int) -> np.ndarray:
    """Scale ``msgs`` in place to unit sum along ``axis``; all-zero ones become uniform."""
    total = msgs.sum(axis=axis, keepdims=True)
    if total.min() > 0:
        msgs /= total
    else:
        np.divide(msgs, total, out=msgs, where=total > 0)
        np.copyto(msgs, 1.0 / msgs.shape[axis], where=total <= 0)
    return msgs


def _factor_messages(likelihood: np.ndarray, from_symbol: np.ndarray, out: np.ndarray,
                     tails: list[np.ndarray]) -> np.ndarray:
    """Unnormalized factor-to-symbol messages of one flooding sweep, in ``out``.

    ``likelihood`` has shape (Q,)*L + (F,): one axis per tap slot and the
    factor axis last; ``from_symbol[t]`` is the (Q, F) array of messages the
    factors receive on slot t.  Message t sums the likelihood over every slot
    but t, each weighted by its incoming message.  The head over slots
    0..t-1 is contracted once and shared by all t, and the tail over slots
    t+1..L-1 enters as one product weight, so a sweep costs O(Q^L F).  The
    tails of slots 0..L-3 are written to ``tails``, (Q^(L-1-t), F) buffers,
    and each head after the first over the tail its step has just read.
    """
    degree, q, size = from_symbol.shape
    # tails[t][r, i]: product of the messages on slots t+1.. at tail index r
    tails = [*tails, from_symbol[-1]]
    for t in range(degree - 3, -1, -1):
        np.multiply(from_symbol[t + 1][:, None, :], tails[t + 1],
                    out=tails[t].reshape(q, -1, size))
    head = likelihood.reshape(q, -1, size)
    for t in range(degree - 1):
        np.einsum("vri,ri->vi", head, tails[t], out=out[t])
        head = np.einsum("vri,vi->ri", head, from_symbol[t],
                         out=out[-1] if t == degree - 2 else tails[t]).reshape(q, -1, size)
    out[-1] = head.reshape(q, size)
    return out


# The sum-product detector stops a frame once none of its messages moves by
# more than this, and refuses a truncation whose likelihood tensor has more
# joint configurations than the budget.  A stack is detected at most
# budget // Q^L frames at a time, L its largest degree, so it never holds
# more likelihood than one frame at the budget.
_SPA_TOL = 1e-4
_SPA_MAX_CONFIGS = 8192


def spa_detect(
    y_frame: np.ndarray,
    channel: EffectiveDDChannel,
    n0: float | np.ndarray,
    constellation: Constellation,
    iters: int = 20,
    damping: float = 0.5,
    data_mask: np.ndarray | None = None,
) -> DetectionReport:
    """Iterative sum-product detection on the data-only factor graph of the
    truncated taps.

    ``y_frame`` is one (N, M) frame and ``channel`` its effective channel,
    or a [B, N, M] stack and the channel of the stack, whose truncation
    rows are padded with -1 as :func:`~otfswin.channel.largest_taps` gives
    them; ``n0`` is one noise power for all frames or an array of one per
    frame.  The channel must carry a tap truncation; each frame's residual
    tap energy is added to its ``n0`` in its likelihood.  ``data_mask``
    marks the unknown symbols of every frame; cells outside it are known
    zeros (the caller cancels any pilot beforehand).

    The graph is the one the module docstring describes: a factor keeps the
    (Q,)*L likelihood of its L slots, and its update (:func:`_factor_messages`)
    costs O(Q^L) per sweep, so Q^L is capped by ``_SPA_MAX_CONFIGS``.  An
    empty truncation (an all-zero channel estimate) leaves the uniform
    prior, decided as constellation index 0, after 0 sweeps.  At most
    ``_SPA_MAX_CONFIGS // Q^L`` frames of a stack at a time share one graph
    (:func:`_spa_graph`) and one flood (:func:`_flood`), L their largest
    degree; each stops on its own, its messages frozen in place, so it gets
    bit for bit its result alone.  The report
    covers the D cells of ``data_mask`` (all NM without one) in row-major
    order, as :func:`tf_lmmse_detect` does for a layout: a stack returns (B, D)
    ``soft`` and ``hard_indices`` and (B, D, Q) ``marginals``.
    ``iterations`` counts the sweeps the call ran, for one frame its
    iterations, and ``frame_iterations`` holds each frame's own count, the
    ``iterations`` it gets alone: (B,) integers for a stack, one for a
    frame.  A ``y_frame`` not shaped as ``channel.taps``, a ``data_mask``
    not shaped as the grid, or an ``n0`` that is neither one value nor one
    per frame, or not finite and nonnegative, raises ``ValueError``.
    """
    if channel.truncation is None:
        raise ValueError("sum-product detection needs a tap-truncated channel")
    if channel.truncation.shape[:-1] != channel.taps.shape[:-2]:
        raise ValueError("a stack's truncation needs one row per frame")
    points = constellation.points
    q = points.size
    taps = channel.taps.reshape((-1,) + channel.shape)
    truncation = channel.truncation.reshape(len(taps), -1)
    degrees = np.count_nonzero(truncation >= 0, axis=1)
    degree = int(degrees.max(initial=0))
    if q ** degree > _SPA_MAX_CONFIGS:
        raise ConfigurationError(
            f"sum step needs Q^L = {q}^{degree} configurations, above the "
            f"budget of {_SPA_MAX_CONFIGS}; reduce the tap count"
        )
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")

    y = np.asarray(y_frame, dtype=complex)
    if y.shape != channel.taps.shape:
        raise ValueError(f"observation shape {y.shape} does not match the channel's "
                         f"tap shape {channel.taps.shape}")
    data = np.ones(channel.shape, dtype=bool) if data_mask is None else \
        np.asarray(data_mask, dtype=bool)
    if data.shape != channel.shape:
        raise ValueError(f"data mask shape {data.shape} does not match the channel "
                         f"grid {channel.shape}")
    data = data.reshape(-1)
    y = y.reshape(len(taps), data.size)
    sigma2 = np.broadcast_to(frame_noise(n0, channel.taps.shape[:-2])
                             + channel.residual_power(), len(taps))

    cells = np.flatnonzero(data)
    belief = np.full((len(taps), cells.size, q), 1.0 / q)
    live = np.flatnonzero((degrees > 0) & (cells.size > 0))
    step = _SPA_MAX_CONFIGS // q ** int(degrees[live].max(initial=0))
    sweeps, frame_sweeps = 0, np.zeros(len(taps), dtype=np.int64)
    for first in range(0, live.size, step):
        batch = live[first:first + step]
        graph = _spa_graph(y[batch], taps[batch], truncation[batch], sigma2[batch], points, data)
        belief[batch], frame_sweeps[batch] = _flood(graph, iters, damping)
        sweeps += int(frame_sweeps[batch].max())

    idx = belief.argmax(axis=2)
    soft = belief @ points
    if channel.taps.ndim == 2:
        soft, idx, belief, frame_sweeps = soft[0], idx[0], belief[0], frame_sweeps[0]
    return DetectionReport(soft=soft, hard_indices=idx, marginals=belief, iterations=sweeps,
                           frame_iterations=frame_sweeps)


@dataclass(frozen=True)
class _SpaGraph:
    likelihood: np.ndarray   # (Q,)*L + (F,): one axis per tap slot, F live factors
    at_factors: np.ndarray   # (L, Q, F) take index of the messages each factor reads
    at_symbols: np.ndarray   # (L, Q, BD) take index of the messages each data symbol reads
    counts: np.ndarray       # (B,) live factors of each frame


def _spa_graph(
    y: np.ndarray,
    taps: np.ndarray,
    truncation: np.ndarray,
    sigma2: np.ndarray,
    points: np.ndarray,
    data: np.ndarray,
) -> _SpaGraph:
    """The factor graph of (B, NM) observations of [B, N, M] tap grids,
    truncated to the (B, width) rows of kept indices padded with -1, at (B,)
    noise powers ``sigma2`` that include the residual tap energy, on the
    D >= 1 cells marked in ``data``; every frame keeps at least one tap.

    Frame b keeps d_b taps, L the largest d_b, and its factors take L - d_b
    leading pad slots, along which their likelihood is constant.  The graph
    keeps the factors with a real slot on a data symbol, frame b's
    ``counts[b]`` in consecutive columns, and frame b's data symbols in
    columns b*D..(b+1)*D-1.  Each index reads (slot, column) of an (L + 2,
    Q, columns) message buffer (:func:`_flood`) at the flat position
    (slot * Q + value) * columns + column.  On slot t a factor reads its
    symbol's column, constant slot L (1/Q) where that symbol is known and
    slot L + 1 (the point mass) on a pad slot; a data symbol reads the
    column of the one live factor that meets it there, or slot L + 1 (1) on
    a pad slot.  Both index arrays come from one (F, L) table of the live
    factors' symbol columns.
    """
    frames, n, m = taps.shape
    q = points.size
    degrees = np.count_nonzero(truncation >= 0, axis=1)
    degree = int(degrees.max())
    # degenerate noiseless likelihood; keep it sharp but finite
    sigma2 = np.where(sigma2 <= 0, 1e-12, sigma2)
    pad = np.arange(degree) < (degree - degrees)[:, None]
    kept = np.zeros((frames, degree), dtype=np.int64)
    kept[~pad] = truncation[truncation >= 0]

    # factor i of frame b meets symbol sym_of[b, t, i] on tap slot t
    doppler, delay = np.divmod(kept[:, :, None], m)
    sym_of = np.add(((np.arange(n) - doppler) % n)[..., None] * m,
                    ((np.arange(m) - delay) % m)[..., None, :]).reshape(frames, degree, -1)

    cells = np.flatnonzero(data)
    on_data = data[sym_of] & ~pad[:, :, None]
    live = on_data.any(axis=1)
    counts = live.sum(axis=1)
    frame_of = np.repeat(np.arange(frames), counts)
    width, columns = int(counts.sum()), frames * cells.size
    values = np.arange(q)[:, None]
    # (F, L) rows of the live factors, frame by frame
    on_data = on_data.transpose(0, 2, 1)[live]
    symbol_col = ((np.cumsum(data) - 1)[sym_of.transpose(0, 2, 1)[live]]
                  + cells.size * frame_of[:, None])
    reads = np.where(on_data, np.arange(degree) * q * columns + symbol_col,
                     (degree + pad[frame_of]) * q * columns)
    # C order: take copies indices of any other layout at every gather
    at_factors = np.add(reads.T[:, None, :], values * columns, order="C")
    # on a real slot each data symbol meets one received cell, whose factor
    # is live and names the symbol in its row; pad slots keep slot L + 1.
    # Slot by slot, a 64-frame chunk's index temporaries stay small (all
    # slots at once raised 9b's maxrss 0.5 MB)
    reads = np.full((degree, columns), (degree + 1) * q * width, dtype=np.int64)
    for t in range(degree):
        factor = np.flatnonzero(on_data[:, t])
        reads[t, symbol_col[factor, t]] = t * q * width + factor
    at_symbols = reads[:, None, :] + values * width

    # likelihood[c_0, .., c_{L-1}, f] of factor f under symbol values c: a
    # tap's gain on a real data slot, 0 elsewhere (known zeros add nothing).
    # One (F, L) x (L, Q^L) product over all live factors: the exact zeros
    # of a frame's pad slots lead its d real terms, so its likelihood is its
    # degree-d product tiled over the pad axes
    tap = np.take_along_axis(taps.reshape(frames, -1), kept, axis=1)
    gains = np.where(on_data, tap[frame_of], 0.0)
    means = np.matmul(gains, points[np.indices((q,) * degree).reshape(degree, -1)])
    np.subtract(y[live][:, None], means, out=means)
    # a C buffer: np.abs(means.T) would keep the transposed layout
    likelihood = np.empty((q ** degree, width))
    np.abs(means.T, out=likelihood)
    likelihood **= 2
    likelihood -= likelihood.min(axis=0)                     # scale-free normalization
    likelihood /= -sigma2[frame_of]
    np.exp(likelihood, out=likelihood)
    return _SpaGraph(likelihood.reshape((q,) * degree + (width,)), at_factors, at_symbols, counts)


def _flood(graph: _SpaGraph, iters: int, damping: float) -> tuple[np.ndarray, np.ndarray]:
    """Flooding sum-product on a stack's ``graph`` (:func:`_spa_graph`).

    The head contraction over a pad slot, which reads the point mass, is
    H * 1 + H * 0 = H, so each frame's real slots see bit for bit the
    numbers of its own degree-d_b graph.  After each sweep a frame whose
    messages moved by less than ``_SPA_TOL``, or that has run ``iters``
    sweeps, freezes: its factor columns take the damping weights 1 and 0,
    which leave its messages bit for bit as they are.  The flood stops once
    every frame is frozen.  Returns the (B, D, Q) beliefs of the data cells
    and the (B,) sweeps each frame ran before it froze.  The message
    buffers and the sweeps' work arrays (both gathers, the new messages,
    their change and the tails, which the heads reuse) are taken once and
    serve every sweep: a flood holds at most ``_SPA_MAX_CONFIGS // Q^L``
    frames, whatever the trial count.
    """
    degree, q, width = graph.at_factors.shape
    counts, frames = graph.counts, graph.counts.size
    # to_symbol[t, :, f] leaves factor f on slot t and from_symbol[t, :, f]
    # enters it, gathered from the symbols' messages ``out``.  A frame's move
    # is the largest over its consecutive factor columns; ``keep`` and
    # ``step`` weigh the old and new messages of each column.
    to_buffer = np.empty((degree + 2, q, width))
    to_buffer[:degree + 1] = 1.0 / q
    to_buffer[degree + 1] = 1.0
    to_symbol = to_buffer[:degree]
    from_buffer = np.empty((degree + 2, q, graph.at_symbols.shape[2]))
    from_buffer[:degree + 1] = 1.0 / q
    from_buffer[degree + 1] = (np.arange(q) == 0)[:, None]
    out = from_buffer[:degree]
    prefix, suffix, incoming = np.empty((3,) + out.shape)
    prefix[0] = suffix[-1] = 1.0
    from_symbol, new_msgs, change = np.empty((3,) + to_symbol.shape)
    tails = [np.empty((q ** (degree - 1 - t), width)) for t in range(degree - 2)]
    starts = np.cumsum(counts) - counts
    keep, step = np.full(width, 1.0 - damping), np.full(width, damping)
    running = np.ones(frames, dtype=bool)
    ran = np.zeros(frames, dtype=np.int64)
    for sweeps in range(1, iters + 1):
        # take's default mode would gather through a temporary; the method
        # skips np.take's Python wrapper
        from_buffer.take(graph.at_factors, out=from_symbol, mode="clip")
        _normalize(_factor_messages(graph.likelihood, from_symbol, new_msgs, tails), axis=1)
        np.abs(np.subtract(new_msgs, to_symbol, out=change), out=change)
        moved = np.maximum.reduceat(change.reshape(degree * q, -1).max(axis=0), starts)
        to_symbol *= keep
        new_msgs *= step
        to_symbol += new_msgs
        done = running & ((moved < _SPA_TOL) | (sweeps == iters))
        if done.any():
            ran[done] = sweeps
            running &= ~done
            if not running.any():
                break
            frozen = np.repeat(done, counts)
            keep[frozen] = 1.0
            step[frozen] = 0.0

        # leave-one-out product over each symbol's slots: exclusive prefix
        # times exclusive suffix products (prefix[0] and suffix[-1] stay 1)
        to_buffer.take(graph.at_symbols, out=incoming, mode="clip")
        for t in range(1, degree):
            np.multiply(prefix[t - 1], incoming[t - 1], out=prefix[t])
            np.multiply(suffix[-t], incoming[-t], out=suffix[-t - 1])
        _normalize(np.multiply(prefix, suffix, out=out), axis=1)

    belief = np.prod(to_buffer.take(graph.at_symbols, out=incoming, mode="clip"), axis=0)
    belief = np.ascontiguousarray(belief.reshape(q, frames, -1).transpose(1, 2, 0))
    return _normalize(belief, axis=2), ran
