"""MMSE and sum-product detection in the DD domain.

Two LMMSE detectors compute the same estimate.  :func:`tf_lmmse_detect` uses
the ideal-pulse structure: channel, both windows and the post-window noise
are diagonal in the TF domain, so a full-data frame is equalized per TF bin,
and the known guard and pilot cells of an embedded-pilot frame are a
low-rank downdate of that diagonal Gram matrix, applied with the Woodbury
identity.  :func:`mmse_detect` works on the dense vectorized model and takes
colored noise from a non-unimodular RX window through the full covariance
(no whitening: a whitening filter would undo the RX window's sparsity
shaping); it is the oracle the per-bin detector is checked against.

The sum-product detector runs belief propagation on the factor graph induced
by the truncated effective channel: every received cell is a factor coupling
the L data symbols the truncated taps reach, and every symbol takes part in
L factors.  Tap energy outside the truncation is folded into the Gaussian
likelihood as extra noise.  Scheduling is flooding with message damping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import EffectiveDDChannel, _dd_response
from .errors import ConfigurationError, NumericalFailure
from .estimation import PilotLayout
from .grid import Constellation
from .transforms import dft_matrix, isfft, sfft


# ---------------------------------------------------------------------------
# noise covariance
# ---------------------------------------------------------------------------

def noise_covariance(rx_window: np.ndarray, n0: float) -> np.ndarray:
    """(MN, MN) noise covariance at the demodulator output for an RX window grid.

    C = n0 * demod * diag(V) diag(V)^H * demod^H.  A unit-modulus window
    leaves the noise white, so that case short-circuits to n0 * I.
    """
    v = np.asarray(rx_window, dtype=complex)
    if np.allclose(np.abs(v), 1.0, atol=1e-12):
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
    iterations: int | None = None     # SPA iterations actually run


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
    y_frame: np.ndarray,
    tf_gains: np.ndarray,
    rx_window: np.ndarray,
    n0: float,
    constellation: Constellation,
    layout: PilotLayout | None = None,
) -> DetectionReport:
    """LMMSE detection of an (N, M) DD frame, solved per TF bin.

    ``tf_gains`` is the receiver's TF gain grid g (joint window times
    channel), so the DD channel is sfft . diag(g) . isfft, and ``rx_window``
    the RX window grid v, which colors the noise to n0 |v|^2 per bin.  With
    d = |g|^2 + n0 |v|^2, the full-data estimate is sfft(conj(g) / d *
    isfft(y)).

    The guard cells of an embedded-pilot ``layout`` (the caller cancels the
    pilot beforehand) are known zeros; they remove G columns from the
    channel, a rank-G downdate of the diagonal Gram matrix.  By Woodbury the
    data estimate is x0[D] - E[D, G] E[G, G]^(-1) x0[G], where x0 is the
    full-data estimate and E the circular operator of e = DD response of
    n0 |v|^2 / d.  E[G, G] is the capacitance matrix I - c[G, G] with c the
    DD response of |g|^2 / d, formed without the cancellation of 1 - c, and
    gathered from e through the layout's guard-pair index.

    Returns the soft estimates of the data cells in row-major order, as
    :func:`mmse_detect` does for the masked dense channel.  Raises
    :class:`NumericalFailure` where the dense solve would be singular.
    """
    y = np.asarray(y_frame, dtype=complex)
    g = np.asarray(tf_gains, dtype=complex)
    noise_tf = n0 * np.abs(np.asarray(rx_window)) ** 2
    if not y.shape == g.shape == noise_tf.shape:
        raise ValueError("observation, gain and window grids must share one shape")
    denom = np.abs(g) ** 2 + noise_tf
    if not np.all(denom > 0):
        raise NumericalFailure(
            "LMMSE solve is singular (a TF bin with zero gain and zero noise); "
            "refusing to regularize implicitly"
        )
    soft = sfft(np.conj(g) / denom * isfft(y))
    if layout is None:
        soft = soft.reshape(-1)
    else:
        guard = layout.guard_mask
        residual = noise_tf / denom
        capacitance = _dd_response(residual).take(layout.guard_pairs)
        try:
            weights = np.linalg.solve(capacitance, soft[guard])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(
                "LMMSE guard downdate is singular (zero noise with known cells); "
                "refusing to regularize implicitly"
            ) from exc
        placed = np.zeros_like(y)
        placed[guard] = weights
        soft = (soft - sfft(residual * isfft(placed)))[layout.data_mask]
    if not np.all(np.isfinite(soft)):
        raise NumericalFailure("LMMSE estimate is not finite")
    return DetectionReport(soft=soft, hard_indices=constellation.nearest_indices(soft))


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


def _factor_messages(likelihood: np.ndarray, from_symbol: np.ndarray) -> np.ndarray:
    """Unnormalized factor-to-symbol messages of one flooding sweep.

    ``likelihood`` has shape (Q,)*L + (F,): one axis per tap slot and the
    factor axis last; ``from_symbol[t]`` is the (Q, F) array of messages the
    factors receive on slot t.  Message t sums the likelihood over every slot
    but t, each weighted by its incoming message.  The head over slots
    0..t-1 is contracted once and shared by all t, and the tail over slots
    t+1..L-1 enters as one product weight, so a sweep costs O(Q^L F).
    """
    degree, q, size = from_symbol.shape
    # tails[t][r, i]: product of the messages on slots t+1.. at tail index r
    tails = [None] * degree
    for t in range(degree - 2, -1, -1):
        later = tails[t + 1]
        tails[t] = from_symbol[t + 1] if later is None else (
            from_symbol[t + 1][:, None, :] * later).reshape(-1, size)
    out = np.empty_like(from_symbol)
    head = likelihood.reshape(q, -1, size)
    for t in range(degree - 1):
        np.einsum("vri,ri->vi", head, tails[t], out=out[t])
        head = np.einsum("vri,vi->ri", head, from_symbol[t]).reshape(q, -1, size)
    out[-1] = head.reshape(q, size)
    return out


# The sum-product detector stops once no message moves by more than this, and
# refuses a truncation whose likelihood tensor has more joint configurations
# than the budget.
_SPA_TOL = 1e-4
_SPA_MAX_CONFIGS = 8192


def spa_detect(
    y_frame: np.ndarray,
    channel: EffectiveDDChannel,
    n0: float,
    constellation: Constellation,
    iters: int = 20,
    damping: float = 0.5,
    data_mask: np.ndarray | None = None,
) -> DetectionReport:
    """Iterative sum-product detection on the truncated-tap factor graph.

    ``channel`` must carry a tap truncation; its residual tap energy is added
    to ``n0`` in the likelihood.  ``data_mask`` marks the unknown symbols;
    cells outside it are treated as known zeros (the caller cancels any pilot
    beforehand), which simply removes their taps from the graph.

    Messages are probability vectors over the constellation.  The factor
    update contracts the (Q,)*L likelihood tensor of every factor with its
    incoming messages (:func:`_factor_messages`), O(NM Q^L) per iteration;
    the likelihood is held for all Q^L joint configurations, so Q^L is capped
    by ``_SPA_MAX_CONFIGS``.  An empty truncation (an all-zero channel
    estimate) gives the prior decisions after 0 iterations.
    """
    if channel.truncation is None:
        raise ValueError("sum-product detection needs a tap-truncated channel")
    kept = channel.truncation
    points = constellation.points
    q = points.size
    degree = kept.size
    if q ** degree > _SPA_MAX_CONFIGS:
        raise ConfigurationError(
            f"sum step needs Q^L = {q ** degree} configurations, above the "
            f"budget of {_SPA_MAX_CONFIGS}; reduce the tap count"
        )
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")

    n, m = channel.shape
    size = n * m
    y = np.asarray(y_frame, dtype=complex).reshape(-1)
    if y.size != size:
        raise ValueError("observation shape does not match the channel grid")
    if degree == 0:
        # an all-zero channel (estimate) leaves no factors: every symbol
        # keeps its uniform prior, decided as constellation index 0
        belief = np.full((size, q), 1.0 / q)
        idx = np.zeros(size, dtype=np.int64)
        return DetectionReport(soft=belief @ points, hard_indices=idx,
                               marginals=belief, iterations=0)
    sigma2 = n0 + channel.residual_power()
    if sigma2 <= 0:
        sigma2 = 1e-12  # degenerate noiseless likelihood; keep it sharp but finite

    # factor i meets symbol sym_of[t, i] on tap slot t, and symbol j meets
    # factor obs_of[t, j] there: the two are inverse permutations per slot
    doppler, delay = np.divmod(kept[:, None], m)
    k, l = np.divmod(np.arange(size), m)
    sym_of = ((k - doppler) % n) * m + (l - delay) % m
    obs_of = ((k + doppler) % n) * m + (l + delay) % m
    gains = np.empty((size, degree), dtype=complex)
    gains[:] = channel.taps.reshape(-1)[kept]
    if data_mask is not None:
        known = ~np.asarray(data_mask, dtype=bool).reshape(-1)
        gains[known[sym_of.T]] = 0.0  # known-zero symbols contribute nothing

    # likelihood[c_0, .., c_{L-1}, i] of factor i under symbol values c
    configs = np.array(list(itertools.product(range(q), repeat=degree)), dtype=np.int64)
    means = gains @ points[configs].T                    # (size, C)
    np.subtract(y[:, None], means, out=means)
    likelihood = np.empty((configs.shape[0], size))
    np.abs(means.T, out=likelihood)
    del means
    likelihood **= 2
    likelihood -= likelihood.min(axis=0)                 # scale-free normalization
    likelihood /= -sigma2
    np.exp(likelihood, out=likelihood)
    likelihood = likelihood.reshape((q,) * degree + (size,))

    # Messages live as (degree, q, size) arrays indexed [slot, value, node]:
    # to_symbol[t, :, i] leaves factor i on slot t, from_symbol[t, :, i]
    # enters it.  One flat gather through obs_of puts factor-side messages in
    # symbol order, and one through sym_of puts them back.
    rows = (np.arange(degree)[:, None] * q + np.arange(q)) * size
    at_symbols = rows[:, :, None] + obs_of[:, None, :]
    at_factors = rows[:, :, None] + sym_of[:, None, :]
    to_symbol = np.full((degree, q, size), 1.0 / q)
    from_symbol = np.full((degree, q, size), 1.0 / q)
    prefix = np.ones((degree, q, size))
    suffix = np.ones((degree, q, size))
    iterations_run = 0
    for _ in range(iters):
        iterations_run += 1
        new_msgs = _normalize(_factor_messages(likelihood, from_symbol), axis=1)
        delta = float(np.max(np.abs(new_msgs - to_symbol)))
        to_symbol = damping * new_msgs + (1.0 - damping) * to_symbol

        # leave-one-out product over each symbol's slots: exclusive prefix
        # times exclusive suffix products (prefix[0] and suffix[-1] stay 1)
        incoming = to_symbol.take(at_symbols)
        for t in range(1, degree):
            np.multiply(prefix[t - 1], incoming[t - 1], out=prefix[t])
            np.multiply(suffix[-t], incoming[-t], out=suffix[-t - 1])
        out = _normalize(prefix * suffix, axis=1)
        from_symbol = out.take(at_factors)
        if delta < _SPA_TOL:
            break

    belief = np.ascontiguousarray(np.prod(to_symbol.take(at_symbols), axis=0).T)
    _normalize(belief, axis=1)

    idx = belief.argmax(axis=1)
    soft = belief @ points
    return DetectionReport(
        soft=soft,
        hard_indices=idx,
        marginals=belief,
        iterations=iterations_run,
    )
