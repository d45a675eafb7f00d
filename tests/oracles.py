"""Independent oracles used by the test suite.

Everything here is deliberately naive (double loops, exhaustive enumeration,
dense algebra) and shares no code with the fast paths it checks.
"""

import numpy as np


def naive_tf_channel(ch):
    """Term-by-term double-loop evaluation of the per-bin TF gains."""
    grid = ch.grid
    out = np.zeros((grid.N, grid.M), dtype=complex)
    for n in range(grid.N):
        for m in range(grid.M):
            acc = 0.0 + 0.0j
            for p in ch.paths:
                nu = p.doppler_bin + p.doppler_frac
                acc += (
                    p.gain
                    * np.exp(-2j * np.pi * nu * p.delay_bin / (grid.N * grid.M))
                    * np.exp(2j * np.pi * (n * nu / grid.N - m * p.delay_bin / grid.M))
                )
            out[n, m] = acc
    return out


def direct_dd_filter(joint_window, dk, dl):
    """Literal double-sum evaluation of the joint-window DD filter."""
    n, m = joint_window.shape
    acc = 0.0 + 0.0j
    for a in range(n):
        for b in range(m):
            acc += joint_window[a, b] * np.exp(-2j * np.pi * a * dk / n) * np.exp(
                2j * np.pi * b * dl / m
            )
    return acc / (n * m)


def naive_effective_channel(ch, joint_window):
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
                    * direct_dd_filter(joint_window, k - nu, l - p.delay_bin)
                    * np.exp(-2j * np.pi * nu * p.delay_bin / (grid.N * grid.M))
                )
            taps[k, l] = acc
    return taps


def circular_convolve_2d(frame, taps):
    """Direct 2-D circular convolution of a frame with a tap grid."""
    n, m = frame.shape
    out = np.zeros((n, m), dtype=complex)
    for k in range(n):
        for l in range(m):
            acc = 0.0 + 0.0j
            for kp in range(n):
                for lp in range(m):
                    acc += frame[kp, lp] * taps[(k - kp) % n, (l - lp) % m]
            out[k, l] = acc
    return out


def brute_force_map(y_vec, channel_matrix, points):
    """Exhaustive maximum-likelihood word over a tiny symbol vector."""
    size = channel_matrix.shape[1]
    q = len(points)
    count = q ** size
    if count > 1 << 20:
        raise ValueError("word space too large for exhaustive search")
    digits = (np.arange(count)[:, None] // q ** np.arange(size)[None, :]) % q
    candidates = np.asarray(points)[digits] @ channel_matrix.T
    dist = np.abs(y_vec[None, :] - candidates) ** 2
    return digits[dist.sum(axis=1).argmin()]


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
