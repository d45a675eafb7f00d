"""Independent oracles used by the test suite.

Everything here is deliberately naive (double loops, exhaustive enumeration,
dense algebra) and shares no code with the fast paths it checks.
"""

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from otfswin import (
    ChannelRealization,
    ConfigurationError,
    Constellation,
    PathSpec,
    WindowPair,
    circular_operator,
    embed_pilot,
    harness,
    isfft,
    map_symbols,
    measured_ce_mse,
    sfft,
    tf_gains_from_taps,
)
from otfswin.channel import EffectiveDDChannel, _dd_response, delay_power_profile
from otfswin.detection import DetectionReport
from otfswin.errors import NumericalFailure
from otfswin.grid import frame_noise
from otfswin.oracles import dd_filter
from otfswin.windows import _OVERSAMPLE, PowerAllocation, WindowResponse


def naive_effective_channel(ch, windows):
    """Effective DD taps by direct evaluation of the filter at every offset."""
    grid = ch.grid
    taps = np.zeros((grid.N, grid.M), dtype=complex)
    for k in range(grid.N):
        for l in range(grid.M):
            acc = 0.0 + 0.0j
            for p in ch.paths:
                nu = p.doppler_bin + p.doppler_frac
                acc += (
                    p.gain
                    * dd_filter(windows, k - nu, l - p.delay_bin)
                    * np.exp(-2j * np.pi * nu * p.delay_bin / (grid.N * grid.M))
                )
            taps[k, l] = acc
    return taps


def distance_argmin_indices(constellation, symbols):
    """Index of the nearest constellation point to each symbol by its float
    distance to every point, ties to the lower index."""
    symbols = np.asarray(symbols, dtype=complex).reshape(-1)
    return np.argmin(np.abs(symbols[:, None] - constellation.points[None, :]), axis=1)


def exact_nearest_indices(constellation, symbols):
    """Index of the nearest constellation point to each finite symbol in
    exact arithmetic, ties to the lower index: the squared distances are
    Fractions of the float coordinates and the stored float points."""
    points = [(Fraction(p.real), Fraction(p.imag)) for p in constellation.points.tolist()]
    labels = []
    for s in np.asarray(symbols, dtype=complex).reshape(-1).tolist():
        re, im = Fraction(s.real), Fraction(s.imag)
        squared = [(re - pr) ** 2 + (im - pi) ** 2 for pr, pi in points]
        labels.append(squared.index(min(squared)))
    return np.array(labels, dtype=np.intp)


def python_sum_residual_power(taps, truncation):
    """Tap energy of one (N, M) frame outside the flat indices
    ``truncation``: numpy's sum of |tap|^2 over the grid less the kept
    taps' squares, each tap's magnitude times itself, added one at a time
    in truncation order (not by ``sum``, which compensates from Python
    3.12 on)."""
    total = float(np.sum(np.abs(taps) ** 2))
    kept = 0.0
    for v in taps.reshape(-1)[truncation].tolist():
        kept += abs(v) * abs(v)
    return max(total - kept, 0.0)


def stepwise_doppler_response(coeffs):
    """``measure_doppler_response`` with the mainlobe edge found by stepping
    bin by bin down the dense scan until it stops falling."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.size
    dense = np.abs(np.fft.fft(coeffs, n=n * _OVERSAMPLE)) / n
    half = (n * _OVERSAMPLE) // 2
    j = 1
    while j < half and dense[j + 1] < dense[j]:
        j += 1
    if j >= half:
        raise ConfigurationError("window mainlobe spans the whole Doppler axis")
    sidelobe = float(np.max(dense[j:half + 1]) / dense[0])
    return WindowResponse(
        mainlobe_width_bins=2.0 * j / _OVERSAMPLE,
        sidelobe_db=20.0 * math.log10(max(sidelobe, 1e-300)),
    )


def brute_force_map(y_vec, channel_matrix, points):
    """Exhaustive maximum-likelihood word over a tiny symbol vector.

    Word w holds symbol k in base-Q digit k.  Meet in the middle: with h the
    low half's length, w = high * Q^h + low, so every residual
    y - H_high x_high is compared with every H_low x_low, and the argmin over
    the (high, low) grid, flattened high-major, is the lowest word index at
    the least distance.
    """
    size = channel_matrix.shape[1]
    q = len(points)
    if q ** size > 1 << 20:
        raise ValueError("word space too large for exhaustive search")
    half = size // 2
    low, high = (np.asarray(points)[(np.arange(q ** n)[:, None] // q ** np.arange(n)) % q]
                 for n in (half, size - half))
    residual = y_vec - high @ channel_matrix[:, half:].T
    partial = low @ channel_matrix[:, :half].T
    dist = (np.abs(residual[:, None, :] - partial[None]) ** 2).sum(axis=2)
    word = dist.argmin()
    return (word // q ** np.arange(size)) % q


def mmse_error_covariance(channel_matrix: np.ndarray, noise_cov: np.ndarray) -> np.ndarray:
    """Error covariance (I + H^H C^(-1) H)^(-1) of the MMSE estimate."""
    h = np.asarray(channel_matrix, dtype=complex)
    whitened = np.linalg.solve(noise_cov, h)
    return np.linalg.inv(np.eye(h.shape[1]) + h.conj().T @ whitened)


def mmse_trace_mse(channel_matrix: np.ndarray, noise_cov: np.ndarray) -> float:
    """Analytic per-symbol MSE: trace of the error covariance over its size."""
    e = mmse_error_covariance(channel_matrix, noise_cov)
    return float(np.real(np.trace(e))) / e.shape[0]


def grid_search_allocation(lam, step=1e-3):
    """Exhaustive search of the two-channel power split (mean budget 1).

    Returns (best_x, best_mse) over x1 in [0, 2] with x2 = 2 - x1.
    """
    lam = np.asarray(lam, dtype=float)
    assert lam.size == 2
    x1 = np.arange(0.0, 2.0 + step / 2, step)
    x2 = 2.0 - x1
    mse = 0.5 * (1.0 / (lam[0] * x1 + 1.0) + 1.0 / (lam[1] * x2 + 1.0))
    best = mse.argmin()
    return np.array([x1[best], x2[best]]), float(mse[best])


def random_feasible_allocations(rng, shape, count):
    """Random nonnegative power maps exhausting the unit mean budget."""
    draws = rng.exponential(size=(count,) + tuple(shape))
    return draws / draws.mean(axis=tuple(range(1, draws.ndim)), keepdims=True)


def bisection_water_level(lam, steps=200):
    """Water level of the mercury/water-filling TX window by bisection.

    The mean power sum [sqrt(1/(eta*lam)) - 1/lam]^+ / lam.size falls
    strictly in eta, so halving the bracket [lo, lam.max()] until it is one
    ulp wide converges to the level that spends the unit-mean budget.
    """
    lam = np.asarray(lam, dtype=float)
    pos = lam > 0

    def budget(eta):
        raw = np.zeros_like(lam)
        raw[pos] = np.sqrt(1.0 / (eta * lam[pos])) - 1.0 / lam[pos]
        return float(np.mean(np.maximum(raw, 0.0)))

    hi = float(lam.max())
    lo = hi
    while budget(lo) < 1.0:
        lo *= 0.5
        if lo < 1e-300:
            raise ValueError("power budget cannot be met")
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if budget(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi)


def _leave_one_out_products(factors: list[np.ndarray]) -> list[np.ndarray]:
    """Per-slot products of all entries except slot t (prefix/suffix trick)."""
    count = len(factors)
    ones = np.ones_like(factors[0])
    prefix = [ones]
    for f in factors[:-1]:
        prefix.append(prefix[-1] * f)
    suffix = [ones]
    for f in reversed(factors[1:]):
        suffix.append(suffix[-1] * f)
    return [prefix[t] * suffix[count - 1 - t] for t in range(count)]


def enumeration_spa_detect(
    y_frame: np.ndarray,
    channel: EffectiveDDChannel,
    n0: float,
    constellation: Constellation,
    iters: int = 20,
    damping: float = 0.5,
    tol: float = 1e-4,
    data_mask: np.ndarray | None = None,
    max_configs: int = 8192,
) -> DetectionReport:
    """Sum-product detection that enumerates all Q^L configurations per factor.

    The exact reference for :func:`otfswin.spa_detect`: same flooding
    schedule, damping, stop rule and fallbacks, with a factor update that
    gathers every joint configuration and forms list-based leave-one-out
    products, O(L Q^L) per factor and iteration.

    ``channel`` must carry a tap truncation; its residual tap energy is added
    to ``n0`` in the likelihood.  ``data_mask`` marks the unknown symbols;
    cells outside it are treated as known zeros (the caller cancels any pilot
    beforehand): the taps that reach them get zero gain.  The report covers
    the data cells alone, in row-major order.

    Messages are probability vectors over the constellation; the factor
    update enumerates all Q^L joint configurations, so Q^L is capped by
    ``max_configs``.  An empty truncation (an all-zero channel estimate)
    gives the prior decisions after 0 iterations.
    """
    if channel.truncation is None:
        raise ValueError("sum-product detection needs a tap-truncated channel")
    kept = channel.truncation
    points = constellation.points
    q = points.size
    degree = kept.size
    if q ** degree > max_configs:
        raise ConfigurationError(
            f"sum step needs Q^L = {q ** degree} configurations, above the "
            f"budget of {max_configs}; reduce the tap count or raise max_configs"
        )
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")

    n, m = channel.shape
    size = n * m
    y = np.asarray(y_frame, dtype=complex).reshape(-1)
    if y.size != size:
        raise ValueError("observation shape does not match the channel grid")
    data = np.ones(size, dtype=bool) if data_mask is None else \
        np.asarray(data_mask, dtype=bool).reshape(-1)
    if degree == 0:
        # an all-zero channel (estimate) leaves no factors: every symbol
        # keeps its uniform prior, decided as constellation index 0
        belief = np.full((int(data.sum()), q), 1.0 / q)
        idx = np.zeros(len(belief), dtype=np.int64)
        return DetectionReport(soft=belief @ points, hard_indices=idx,
                               marginals=belief, iterations=0)
    sigma2 = n0 + channel.residual_power()
    if sigma2 <= 0:
        sigma2 = 1e-12  # degenerate noiseless likelihood; keep it sharp but finite

    k_obs, l_obs = np.divmod(np.arange(size), m)
    taps = [(*divmod(int(idx), m), channel.taps.reshape(-1)[idx]) for idx in kept]
    sym_of = np.empty((size, degree), dtype=np.int64)
    gains = np.empty((size, degree), dtype=complex)
    for t, (doppler, delay, value) in enumerate(taps):
        sym_of[:, t] = ((k_obs - doppler) % n) * m + (l_obs - delay) % m
        gains[:, t] = value
    gains[~data[sym_of]] = 0.0  # known-zero symbols contribute nothing

    # observation index each symbol meets at tap slot t (inverse of sym_of)
    obs_of = np.empty((size, degree), dtype=np.int64)
    k_sym, l_sym = k_obs, l_obs
    for t, (doppler, delay, _) in enumerate(taps):
        obs_of[:, t] = ((k_sym + doppler) % n) * m + (l_sym + delay) % m

    configs = np.array(list(itertools.product(range(q), repeat=degree)), dtype=np.int64)
    config_values = points[configs]                      # (C, degree)
    one_hot = [
        (configs[:, t][:, None] == np.arange(q)[None, :]).astype(float)
        for t in range(degree)
    ]

    means = gains @ config_values.T                      # (size, C)
    dist = np.abs(y[:, None] - means) ** 2
    dist -= dist.min(axis=1, keepdims=True)              # scale-free normalization
    likelihood = np.exp(-dist / sigma2)

    to_symbol = np.full((size, degree, q), 1.0 / q)      # factor -> symbol messages
    from_symbol = np.full((size, degree, q), 1.0 / q)    # symbol -> factor messages
    iterations_run = 0
    for _ in range(iters):
        iterations_run += 1
        gathered = [from_symbol[np.arange(size)[:, None], t, configs[:, t][None, :]]
                    for t in range(degree)]
        # gathered[t][i, c] = message from the t-th neighbor of factor i
        # evaluated at that neighbor's value in configuration c
        loo = _leave_one_out_products(gathered)
        new_msgs = np.empty_like(to_symbol)
        for t in range(degree):
            weighted = likelihood * loo[t]
            msg = weighted @ one_hot[t]                  # (size, q)
            total = msg.sum(axis=1, keepdims=True)
            np.divide(msg, total, out=msg, where=total > 0)
            msg[np.squeeze(total <= 0, axis=1)] = 1.0 / q
            new_msgs[:, t, :] = msg
        delta = float(np.max(np.abs(new_msgs - to_symbol)))
        to_symbol = damping * new_msgs + (1.0 - damping) * to_symbol

        incoming = to_symbol[obs_of, np.arange(degree)[None, :], :]   # (size, degree, q)
        inc_factors = [incoming[:, t, :] for t in range(degree)]
        loo_sym = _leave_one_out_products(inc_factors)
        for t in range(degree):
            out = loo_sym[t]
            total = out.sum(axis=1, keepdims=True)
            np.divide(out, total, out=out, where=total > 0)
            out[np.squeeze(total <= 0, axis=1)] = 1.0 / q
            from_symbol[obs_of[:, t], t, :] = out
        if delta < tol:
            break

    belief = np.prod(to_symbol[obs_of, np.arange(degree)[None, :], :], axis=1)
    total = belief.sum(axis=1, keepdims=True)
    np.divide(belief, total, out=belief, where=total > 0)
    belief[np.squeeze(total <= 0, axis=1)] = 1.0 / q

    belief = belief[data]
    idx = belief.argmax(axis=1)
    soft = belief @ points
    return DetectionReport(
        soft=soft,
        hard_indices=idx,
        marginals=belief,
        iterations=iterations_run,
    )


# ---------------------------------------------------------------------------
# the stacked sum-product detector on the full graph, as it ran before the
# known symbols left the graph and all degrees shared one flood
# ---------------------------------------------------------------------------

def _fg_normalize(msgs: np.ndarray, axis: int) -> np.ndarray:
    """Scale ``msgs`` in place to unit sum along ``axis``; all-zero ones become uniform."""
    total = msgs.sum(axis=axis, keepdims=True)
    if total.min() > 0:
        msgs /= total
    else:
        np.divide(msgs, total, out=msgs, where=total > 0)
        np.copyto(msgs, 1.0 / msgs.shape[axis], where=total <= 0)
    return msgs


def _fg_factor_messages(likelihood: np.ndarray, from_symbol: np.ndarray) -> np.ndarray:
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


_FG_TOL = 1e-4
_FG_MAX_CONFIGS = 8192


def full_graph_spa(
    y_frame: np.ndarray,
    channel: EffectiveDDChannel | Sequence[EffectiveDDChannel],
    n0: float | np.ndarray,
    constellation: Constellation,
    iters: int = 20,
    damping: float = 0.5,
    data_mask: np.ndarray | None = None,
) -> DetectionReport:
    """Stacked sum-product detection on the full factor graph: every cell a
    variable node and every received cell a factor, one flood per
    truncation degree.  The reference for the data-only graph of
    :func:`otfswin.spa_detect`, whose BPSK marginals equal these bit for bit
    (its known symbols read exactly 1/2 here).

    ``y_frame`` is one (N, M) frame and ``channel`` its effective channel,
    or a [B, N, M] stack and a sequence of B channels, one per frame, with
    ``n0`` one noise power for all frames or an array of one per frame.
    Each channel must carry a tap truncation; its residual tap energy is
    added to its frame's ``n0`` in that frame's likelihood.  ``data_mask`` marks the unknown
    symbols of every frame; cells outside it are treated as known zeros (the
    caller cancels any pilot beforehand): the taps that reach them get zero
    gain, but the cells stay variable nodes, and the report covers the data
    cells alone, in row-major order, as :func:`otfswin.spa_detect` does.

    Messages are probability vectors over the constellation.  The factor
    update contracts the (Q,)*L likelihood tensor of every factor with its
    incoming messages (:func:`_fg_factor_messages`), O(NM Q^L) per iteration;
    the likelihood is held for all Q^L joint configurations, so Q^L is capped
    by ``_FG_MAX_CONFIGS``.  An empty truncation (an all-zero channel
    estimate) gives the prior decisions after 0 iterations.

    The frames of a stack that share a truncation degree L run their sweeps
    together (:func:`_fg_flood`), and each stops on its own, so every frame
    gets bit for bit its result alone.  A stack returns (B, D) ``soft`` and
    ``hard_indices`` and (B, D, Q) ``marginals`` for D data cells (all NM
    without a mask); ``iterations`` counts the sweeps the call ran, for one
    frame its iterations.
    """
    single = isinstance(channel, EffectiveDDChannel)
    channels = [channel] if single else list(channel)
    points = constellation.points
    q = points.size
    groups: dict[int, list[int]] = {}
    for index, ch in enumerate(channels):
        if ch.truncation is None:
            raise ValueError("sum-product detection needs a tap-truncated channel")
        degree = ch.truncation.size
        if q ** degree > _FG_MAX_CONFIGS:
            raise ConfigurationError(
                f"sum step needs Q^L = {q ** degree} configurations, above the "
                f"budget of {_FG_MAX_CONFIGS}; reduce the tap count"
            )
        if degree:
            groups.setdefault(degree, []).append(index)
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if len({ch.shape for ch in channels}) != 1:
        raise ValueError("a stack needs at least one channel, all on one grid")

    n, m = channels[0].shape
    size = n * m
    y = np.asarray(y_frame, dtype=complex)
    if y.size != len(channels) * size:
        raise ValueError("observation shape does not match the channel grid")
    y = y.reshape(len(channels), size)
    n0 = np.broadcast_to(np.asarray(n0, dtype=float), (len(channels),))
    known = None if data_mask is None else ~np.asarray(data_mask, dtype=bool).reshape(-1)

    # an all-zero channel (estimate) leaves no factors: every symbol keeps
    # its uniform prior, decided as constellation index 0
    belief = np.full((len(channels), size, q), 1.0 / q)
    sweeps = 0
    for degree, members in groups.items():
        step = max(1, _FG_MAX_CONFIGS // q ** degree)
        for first in range(0, len(members), step):
            batch = members[first:first + step]
            belief[batch], ran = _fg_flood(y[batch], [channels[i] for i in batch], n0[batch],
                                        points, iters, damping, known)
            sweeps += ran

    if known is not None:
        belief = belief[:, ~known]
    idx = belief.argmax(axis=2)
    soft = belief @ points
    if single:
        soft, idx, belief = soft[0], idx[0], belief[0]
    return DetectionReport(soft=soft, hard_indices=idx, marginals=belief, iterations=sweeps)


def inverse_permutation_spa_gathers(
    taps_shape: tuple, truncation: np.ndarray, data: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (L, Q, F) factor and (L, Q, B*D) symbol gather indices of the
    sum-product graph of ``detection._spa_graph`` for [B, N, M] tap grids
    truncated to ``truncation`` (rows padded with -1, each with a kept tap)
    on the cells marked in ``data``.  A data symbol's reads go through each
    slot's inverse permutation: symbol j meets factor obs_of[b, t, j] on
    slot t, found at that factor's cumulative live column."""
    frames, n, m = taps_shape
    degrees = np.count_nonzero(truncation >= 0, axis=1)
    degree = int(degrees.max())
    pad = np.arange(degree) < (degree - degrees)[:, None]
    kept = np.zeros((frames, degree), dtype=np.int64)
    kept[~pad] = truncation[truncation >= 0]
    doppler, delay = np.divmod(kept[:, :, None], m)
    # factor i of frame b meets symbol sym_of[b, t, i] on tap slot t, and
    # symbol j meets factor obs_of[b, t, j] there
    sym_of = (((np.arange(n) - doppler) % n)[..., None] * m
              + ((np.arange(m) - delay) % m)[..., None, :]).reshape(frames, degree, -1)
    obs_of = (((np.arange(n) + doppler) % n)[..., None] * m
              + ((np.arange(m) + delay) % m)[..., None, :]).reshape(frames, degree, -1)
    cells = np.flatnonzero(data)
    on_data = data[sym_of] & ~pad[:, :, None]
    live = on_data.any(axis=1)
    frame_of = np.repeat(np.arange(frames), live.sum(axis=1))
    width, columns = frame_of.size, frames * cells.size
    values = np.arange(q)[:, None]
    on_data = on_data.transpose(0, 2, 1)[live]
    symbol_col = ((np.cumsum(data) - 1)[sym_of.transpose(0, 2, 1)[live]]
                  + cells.size * frame_of[:, None])
    reads = np.where(on_data, np.arange(degree) * q * columns + symbol_col,
                     (degree + pad[frame_of]) * q * columns)
    at_factors = reads.T[:, None, :] + values * columns
    factor_col = (np.cumsum(live) - 1).reshape(live.shape)
    reads = np.where(pad[:, :, None], (degree + 1) * q * width,
                     np.arange(degree)[:, None] * q * width
                     + np.take_along_axis(factor_col[:, None, :], obs_of[:, :, cells], axis=2))
    at_symbols = reads.transpose(1, 0, 2).reshape(degree, 1, columns) + values * width
    return at_factors, at_symbols


def _fg_gathers(cells: np.ndarray, q: int) -> np.ndarray:
    """Flat ``take`` index into (L, Q, B*NM) messages that reads, at
    [t, v, b*NM + j], value v on slot t of node ``cells[b, t, j]`` of frame b."""
    frames, degree, size = cells.shape
    cols = frames * size
    nodes = cells + size * np.arange(frames)[:, None, None]
    rows = (np.arange(degree)[:, None] * q + np.arange(q)) * cols
    return rows[:, :, None] + nodes.transpose(1, 0, 2).reshape(degree, 1, cols)


def _fg_flood(
    y: np.ndarray,
    channels: list[EffectiveDDChannel],
    n0: np.ndarray,
    points: np.ndarray,
    iters: int,
    damping: float,
    known: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Flooding sum-product over (B, NM) observations at (B,) noise powers
    whose channels keep the same number L of taps.

    The frames' factor axes are concatenated, so every step of a sweep runs
    once for the stack.  After each sweep a frame whose messages moved by
    less than ``_FG_TOL``, or that has run ``iters`` sweeps, keeps its
    factor-to-symbol messages and leaves the stack.  Returns the (B, NM, Q)
    beliefs and the number of sweeps run.
    """
    frames, size = y.shape
    n, m = channels[0].shape
    q = points.size
    kept = np.array([ch.truncation for ch in channels])
    degree = kept.shape[1]
    sigma2 = np.array([frame_n0 + ch.residual_power() for frame_n0, ch in zip(n0, channels)])
    sigma2[sigma2 <= 0] = 1e-12  # degenerate noiseless likelihood; keep it sharp but finite

    # factor i of frame b meets symbol sym_of[b, t, i] on tap slot t, and
    # symbol j meets factor obs_of[b, t, j] there: inverse permutations per slot
    doppler, delay = np.divmod(kept[:, :, None], m)
    k, l = np.divmod(np.arange(size), m)
    sym_of = ((k - doppler) % n) * m + (l - delay) % m
    obs_of = ((k + doppler) % n) * m + (l + delay) % m
    taps = np.array([ch.taps.reshape(-1) for ch in channels])
    gains = np.empty((frames, size, degree), dtype=complex)
    gains[:] = np.take_along_axis(taps, kept, axis=1)[:, None, :]
    if known is not None:
        gains[known[sym_of.transpose(0, 2, 1)]] = 0.0  # known-zero symbols contribute nothing

    # likelihood[c_0, .., c_{L-1}, b, i] of factor i of frame b under symbol
    # values c; the stacked product runs one (NM, L) x (L, C) product per frame
    configs = np.array(list(itertools.product(range(q), repeat=degree)), dtype=np.int64)
    means = gains @ points[configs].T                    # (B, NM, C)
    np.subtract(y[:, :, None], means, out=means)
    likelihood = np.empty((configs.shape[0], frames, size))
    np.abs(means.transpose(2, 0, 1), out=likelihood)
    del means
    likelihood **= 2
    likelihood -= likelihood.min(axis=0)                 # scale-free normalization
    likelihood /= -sigma2[:, None]
    np.exp(likelihood, out=likelihood)

    # Messages live as (degree, q, B*NM) arrays indexed [slot, value, node],
    # frame b's nodes at columns b*NM..(b+1)*NM: to_symbol[t, :, i] leaves
    # factor i on slot t, from_symbol[t, :, i] enters it.  One flat gather
    # through obs_of puts factor-side messages in symbol order, and one
    # through sym_of puts them back.  ``active`` lists the frames still in
    # the stack, in column order.
    active = np.arange(frames)
    to_symbol = np.full((degree, q, frames * size), 1.0 / q)
    from_symbol = to_symbol.copy()
    final = to_symbol.reshape(degree, q, frames, size).copy()
    at_all = _fg_gathers(obs_of, q)
    at_symbols, at_factors = at_all, _fg_gathers(sym_of, q)
    prefix = np.ones_like(to_symbol)
    suffix = np.ones_like(to_symbol)
    sweeps = 0
    for sweeps in range(1, iters + 1):
        head = likelihood.reshape((q,) * degree + (-1,))
        new_msgs = _fg_normalize(_fg_factor_messages(head, from_symbol), axis=1)
        moved = np.abs(new_msgs - to_symbol).reshape(degree * q, -1, size).max(axis=(0, 2))
        to_symbol = damping * new_msgs + (1.0 - damping) * to_symbol
        done = (moved < _FG_TOL) | (sweeps == iters)
        if done.any():
            blocks = to_symbol.reshape(degree, q, -1, size)
            final[:, :, active[done]] = blocks[:, :, done]
            stay = ~done
            active = active[stay]
            if not active.size:
                break
            to_symbol = blocks.compress(stay, axis=2).reshape(degree, q, -1)
            likelihood = likelihood.compress(stay, axis=1)
            at_symbols, at_factors = _fg_gathers(obs_of[active], q), _fg_gathers(sym_of[active], q)
            prefix = np.ones_like(to_symbol)
            suffix = np.ones_like(to_symbol)

        # leave-one-out product over each symbol's slots: exclusive prefix
        # times exclusive suffix products (prefix[0] and suffix[-1] stay 1)
        incoming = to_symbol.take(at_symbols)
        for t in range(1, degree):
            np.multiply(prefix[t - 1], incoming[t - 1], out=prefix[t])
            np.multiply(suffix[-t], incoming[-t], out=suffix[-t - 1])
        out = _fg_normalize(prefix * suffix, axis=1)
        from_symbol = out.take(at_factors)

    belief = np.prod(final.reshape(degree, q, -1).take(at_all), axis=0)
    belief = np.ascontiguousarray(belief.reshape(q, frames, size).transpose(1, 2, 0))
    return _fg_normalize(belief, axis=2), sweeps


# ---------------------------------------------------------------------------
# the harness's trial chain, one frame at a time: the reference for running
# trials in chunks.  The channel draw, the TF channel, the water level and
# the transmit step are the single-frame code they replaced; the other layers are called on single
# frames, and the rows come from the harness's own row functions.
# ---------------------------------------------------------------------------

def live_stream_state(bit_generator):
    """The part of a PCG64 state that later draws read: the LCG state and
    increment, whether a 32-bit half is buffered, and that half only when
    it is.  numpy leaves the last half it handed out in ``uinteger`` after
    it is used; ``random_raw`` and ``advance`` do not keep it there."""
    state = bit_generator.state
    return (state["state"], state["has_uint32"],
            state["uinteger"] if state["has_uint32"] else None)


def assert_same_streams(got, want):
    """Each generator of ``got`` is where the one of ``want`` is: the same
    live state, and the same next 32-bit and 64-bit draws."""
    for a, b in zip(got, want, strict=True):
        assert live_stream_state(a.bit_generator) == live_stream_state(b.bit_generator)
        assert a.integers(0, 2**32, dtype=np.uint32) == b.integers(0, 2**32, dtype=np.uint32)
        assert a.bit_generator.random_raw() == b.bit_generator.random_raw()


def single_generator_sample_channel(grid, num_paths, k_max, l_max, rng):
    """One realization drawn from one generator and built from ``PathSpec``
    records: ``sample_channel`` before it took generator sequences."""
    delays = rng.integers(0, l_max + 1, size=num_paths)
    dopplers = rng.integers(-k_max, k_max + 1, size=num_paths)
    fracs = rng.random(num_paths) - 0.5
    while np.any(fracs <= -0.5):
        redo = fracs <= -0.5
        fracs[redo] = rng.random(int(np.count_nonzero(redo))) - 0.5
    scale = np.sqrt(delay_power_profile(delays) / 2.0)
    gains = scale * (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths))
    paths = tuple(
        PathSpec(gain=complex(g), delay_bin=int(l), doppler_bin=int(k), doppler_frac=float(f))
        for g, l, k, f in zip(gains, delays, dopplers, fracs)
    )
    return ChannelRealization(paths, grid)


def broadcast_sum_tf_channel(ch):
    """TF gains of one realization as one (P, N, M) broadcast product summed
    over the paths: ``tf_channel`` before it took stacks."""
    grid = ch.grid
    gains = np.array([p.gain for p in ch.paths])
    nu = np.array([p.doppler_bin + p.doppler_frac for p in ch.paths])
    delay = np.array([p.delay_bin for p in ch.paths], dtype=float)
    coef = gains * np.exp(-2j * np.pi * nu * delay / (grid.N * grid.M))
    doppler = coef[:, None] * np.exp(2j * np.pi * nu[:, None] * np.arange(grid.N) / grid.N)
    delay_ph = np.exp(-2j * np.pi * delay[:, None] * np.arange(grid.M) / grid.M)
    return np.sum(doppler[:, :, None] * delay_ph[:, None, :], axis=0)


def per_path_tf_channel(ch):
    """TF gains of one realization or a stack, each path's delay phases
    computed from its own bin: ``tf_channel`` before it read them from one
    table per call."""
    grid = ch.grid
    gains, nu = np.atleast_2d(ch.gains, ch.doppler_bins + ch.doppler_fracs)
    delay = np.atleast_2d(ch.delay_bins).astype(float)
    phase = np.exp(-2j * np.pi * nu * delay / (grid.N * grid.M))
    coef = gains * phase
    phase = np.exp(2j * np.pi * nu[..., None] * np.arange(grid.N) / grid.N)
    doppler = coef[..., None] * phase
    delay_ph = np.exp(-2j * np.pi * delay[..., None] * np.arange(grid.M) / grid.M)
    out = doppler[:, 0, :, None] * delay_ph[:, 0, None, :]
    for p in range(1, gains.shape[1]):
        out += doppler[:, p, :, None] * delay_ph[:, p, None, :]
    return out[0] if ch.gains.ndim == 1 else out


def single_frame_optimal_tx_window(lam):
    """The mercury/water-filling allocation of one frame, its level one
    numpy scalar squared by ``np.square``: ``optimal_tx_window`` before it
    took stacks."""
    lam = np.asarray(lam, dtype=float)
    lam_max = float(lam.max(initial=0.0))
    if not (lam.min(initial=0.0) >= 0.0 and lam_max < math.inf):
        raise ValueError("channel gains must be finite and nonnegative")
    if lam_max == 0.0:
        raise ValueError("all channel gains are zero; no useful allocation exists")
    denom = lam.size * lam_max + 1.0
    active = (lam > 0.0) & (lam >= lam_max / denom / denom)
    with np.errstate(over="ignore", invalid="ignore"):
        inv_lam = np.divide(1.0, lam, out=np.zeros_like(lam), where=active)
        inv_sqrt = np.sqrt(inv_lam)
        for _ in range(lam.size):
            eta = float(np.square(inv_sqrt.sum(where=active)
                                  / (lam.size + inv_lam.sum(where=active))))
            dropped = active & (lam <= eta)
            if not dropped.any():
                break
            active ^= dropped
    if not (math.isfinite(eta) and eta > 0.0):
        raise NumericalFailure(f"water level {eta!r} is not finite and positive")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = np.sqrt(1.0 / (eta * lam)) - 1.0 / lam
    x = np.where(lam > eta, np.maximum(raw, 0.0), 0.0)
    if not np.all(np.isfinite(x)):
        raise NumericalFailure("the power map is not finite")
    return PowerAllocation(x=x, eta=eta, lam=lam)


def single_frame_transmit(dd_frame, tf_gain_grid, windows, n0=0.0, rng=None, demodulate=True):
    """One frame through the windowed channel: ``transmit_frame`` before it
    took stacks, which with ``demodulate=False`` stops at the RX-windowed
    TF grid."""
    x_tf = isfft(dd_frame)
    received = tf_gain_grid * (windows.tx * x_tf)
    if n0 > 0.0:
        noise = math.sqrt(n0 / 2.0) * (
            rng.standard_normal(x_tf.shape) + 1j * rng.standard_normal(x_tf.shape)
        )
        received = received + noise
    received = windows.rx * received
    return sfft(received) if demodulate else received


def multiply_chain_transmit(dd_frame, tf_gain_grid, windows, n0=0.0, rng=None,
                            demodulate=True):
    """``transmit_frame`` as it ran every multiply, a window side of all
    ones too, and drew the noise into zeroed planes."""
    x_tf = isfft(dd_frame)
    received = windows.tx * x_tf
    received = tf_gain_grid * received
    n0 = frame_noise(n0, x_tf.shape[:-2])
    if np.any(n0 > 0.0):
        shape = x_tf.shape[-2:]
        generators = [rng] if isinstance(rng, np.random.Generator) else list(rng)
        scale = np.sqrt(n0 / 2.0)
        frame_scales = (np.zeros(x_tf.shape[:-2]) + scale).reshape(-1).tolist()
        draws = np.zeros((len(generators), 2) + shape)
        for gen, frame_draws, frame_scale in zip(generators, draws, frame_scales):
            if frame_scale > 0.0:
                gen.standard_normal(out=frame_draws)
        noise = np.empty((len(generators),) + shape, dtype=complex)
        noise.real, noise.imag = draws[:, 0], draws[:, 1]
        noise = noise.reshape(x_tf.shape)
        received = received + scale[..., None, None] * noise
    received = windows.rx * received
    return sfft(received) if demodulate else received


def per_trial_transmit(link, snr_index, trial, n0, demodulate=True):
    """One trial of the link up to the receiver, every layer called on its
    own frame: the chain the harness ran before trials ran in chunks.  The
    trial's stream is seeded here by numpy's own list coercion, not by the
    harness's ``_trial_rng``.  Returns what ``harness._transmit`` returns
    for one frame: the data cells' constellation labels, the received frame
    (the DD frame, or with ``demodulate=False`` the RX-windowed TF grid the
    harness's receiver takes), the window pair and the TF channel gains."""
    return _per_trial_bits_transmit(link, snr_index, trial, n0, demodulate)[1:]


def _per_trial_bits_transmit(link, snr_index, trial, n0, demodulate):
    """``per_trial_transmit`` with the trial's drawn bits in front."""
    config = link.config
    rng = np.random.default_rng([config.seed, snr_index, trial])
    ch = single_generator_sample_channel(link.grid, config.paths, config.k_max, config.l_max,
                                         rng)
    tf_gains = broadcast_sum_tf_channel(ch)
    windows = link.windows
    if windows is None:
        allocation = single_frame_optimal_tx_window(np.abs(tf_gains) ** 2 / n0)
        windows = WindowPair.from_tx_grid(allocation.tx_window)
    bits = rng.integers(0, 2, link.bits_per_frame)
    labels = link.constellation.bits_to_indices(bits)
    if link.layout is None:
        frame = map_symbols(labels, link.constellation, link.grid)
    else:
        frame = map_symbols(labels, link.constellation, link.grid, mask=link.layout.data_mask)
        frame = embed_pilot(frame, link.layout)
    y = single_frame_transmit(frame, tf_gains, windows, n0, rng, demodulate=demodulate)
    return bits, labels, y, windows, tf_gains


def windowed_gains(windows, tf_gains):
    """The windowed TF gains ``joint * H_tf`` of one trial, every multiply
    run."""
    return (windows.rx * windows.tx) * tf_gains


def dd_estimate_channel(received, layout, n0):
    """The threshold estimate of the effective DD channel read from DD
    frames y = sfft(r): est[(k - k_p) mod N, (l - l_p) mod M] = y[k, l] / x_p
    wherever |y[k, l]| >= 3*sqrt(n0), zero elsewhere.  ``estimate_channel``
    as it read the DD frame, before the receiver took the RX-windowed TF
    grid r; it demodulates only the read window of r, and must give these
    bits."""
    if received.shape[-2:] != layout.grid.shape:
        raise ValueError("frame shape does not match grid")
    n0 = frame_noise(n0, received.shape[:-2])
    threshold = 3.0 * np.sqrt(np.maximum(n0, 0.0))
    est = np.zeros(received.shape, dtype=complex)
    block = received[(..., *layout.read_cells)]
    keep = np.abs(block) >= threshold[..., None, None]
    est[(..., *layout.tap_cells)] = np.where(keep, block / layout.pilot_value, 0.0)
    return est


def dd_cancel_pilot(y, taps, layout):
    """DD frames y less the pilot's response to the DD taps, y - x_p *
    roll(taps, (k_p, l_p)): the cancellation the receiver made in the DD
    frame before it cancelled per TF bin."""
    return y - layout.pilot_value * np.roll(taps, (layout.pilot_doppler, layout.pilot_delay),
                                            axis=(-2, -1))


def dd_pilot_lmmse(y, rx_window, n0, layout):
    """Soft LMMSE estimates of the data cells of a [B, N, M] stack of
    received DD frames of an embedded-pilot link, by the DD chain the
    harness ran before it detected on the TF grid: estimate the taps from
    the DD frames, cancel the pilot in the DD domain, equalize per TF bin
    with the estimate's gains, and take the Woodbury downdate by the guard
    cells G, x0[D] - E[D, G] E[G, G]^(-1) x0[G], with the dense circular
    operator E of the residual's DD response, one frame at a time."""
    taps = dd_estimate_channel(y, layout, n0)
    y = dd_cancel_pilot(y, taps, layout)
    gains = tf_gains_from_taps(taps)
    noise_tf = np.asarray(n0)[:, None, None] * np.abs(rx_window) ** 2
    denom = np.abs(gains) ** 2 + noise_tf
    x0 = sfft(np.conj(gains) / denom * isfft(y))
    guard, data = layout.guard_mask.reshape(-1), layout.data_mask.reshape(-1)
    soft = []
    for frame, residual in zip(x0, noise_tf / denom):
        op = circular_operator(_dd_response(residual))
        x = frame.reshape(-1)
        weights = np.linalg.solve(op[guard][:, guard], x[guard])
        soft.append(x[data] - op[data][:, guard] @ weights)
    return np.array(soft)


def _per_trial_sweep(config, trial):
    for snr_index, snr in enumerate(config.snr_db):
        n0 = harness.noise_power(snr)
        yield snr, [trial(snr_index, t, n0) for t in range(config.trials)]


def per_trial_ce_mse(config):
    """``run_ce_mse`` rows from the frame-by-frame chain."""
    link = harness._link(config, pilot=True)

    def trial(snr_index, t, n0):
        _, y, windows, tf_gains = per_trial_transmit(link, snr_index, t, n0)
        est = dd_estimate_channel(y, link.layout, n0)
        return measured_ce_mse(_dd_response(windowed_gains(windows, tf_gains)), est, link.layout)

    return harness._ce_rows(config, _per_trial_sweep(config, trial))


def label_bits(constellation, labels):
    """The bits of each label, first bit most significant, concatenated in
    label order: ``Constellation.bits_to_indices`` inverted."""
    shifts = np.arange(constellation.bits_per_symbol - 1, -1, -1)
    return ((np.asarray(labels)[:, None] >> shifts) & 1).reshape(-1)


def per_trial_fer(config):
    """``run_fer`` rows from the frame-by-frame chain, each frame's bit
    errors counted between the drawn bits and the bits of the detected
    labels."""
    link = harness._link(config, pilot=config.csi == "estimated-csir")

    def trial(snr_index, t, n0):
        bits, _, r, windows, tf_gains = _per_trial_bits_transmit(link, snr_index, t, n0,
                                                                 demodulate=False)
        known = windowed_gains(windows, tf_gains)[None] if link.layout is None else None
        detected = harness._detect_frames(link, r[None], windows.rx[None], n0, known)
        return int(np.count_nonzero(label_bits(link.constellation, detected[0]) != bits))

    return harness._fer_rows(config, link, _per_trial_sweep(config, trial))
