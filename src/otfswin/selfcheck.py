"""Cross-oracle self-check suite (``otfswin selfcheck``).

Each entry runs a fast path of the package against an independent form of
the same quantity: the dense vectorized model of :mod:`otfswin.oracles`, a
closed form, a literal enumeration, or the same call on single frames.  The
entries draw from one generator seeded by ``seed`` in a fixed order, so a
new entry goes last: one put earlier would change the values every later
entry prints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch_mod
from . import detection as det_mod
from . import estimation as est_mod
from . import oracles
from . import windows as win_mod
from .errors import ConfigurationError
from .grid import Constellation, FrameGrid
from .transforms import isfft, sfft


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _guard_real_vs_complex(
    layout: est_mod.PilotLayout,
    mirror: np.ndarray,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Deviation of the real guard downdate, built with the mirror index
    ``mirror``, from its complex oracle on one random DC-RX-windowed frame.

    The oracle takes the complex guard block A = e.take(guard_pairs) of the
    residual's DD response e and a mirror permutation J found by matching
    guard coordinates.  Returns the largest entry of |R - Q^H A Q| for the
    real block R and Q = (I + iJ)/sqrt(2), and the largest deviation of the
    real-arithmetic weights from np.linalg.solve(A, b), relative to the
    largest weight.
    """
    grid = layout.grid
    n, m = grid.shape
    ch = ch_mod.sample_channel(grid, 5, layout.k_max, layout.l_max, rng)
    rx = win_mod.WindowPair.separable(grid, rx_doppler=win_mod.dc_window(n, -40.0).coeffs).rx
    n0 = 0.01
    noise_tf = n0 * np.abs(rx) ** 2
    residual = noise_tf / (np.abs(rx * ch_mod.tf_channel(ch)) ** 2 + noise_tf)
    e = ch_mod._dd_response(residual)

    k, l = np.nonzero(layout.guard_mask)
    cells = list(zip(k.tolist(), l.tolist()))
    flip = np.zeros((len(cells), len(cells)))
    for i, (ki, li) in enumerate(cells):
        image = ((2 * layout.pilot_doppler - ki) % n, 2 * layout.pilot_delay - li)
        flip[i, cells.index(image)] = 1.0
    q = (np.eye(len(cells)) + 1j * flip) / math.sqrt(2.0)
    a = e.take(layout.guard_pairs)
    view_pairs = est_mod.guard_view_pairs(layout.guard_pairs, mirror)
    block_err = float(np.max(np.abs(q.conj().T @ a @ q - det_mod._real_guard_block(e, view_pairs))))

    b = rng.standard_normal(len(cells)) + 1j * rng.standard_normal(len(cells))
    exact = np.linalg.solve(a, b)
    weights = det_mod._guard_weights(e, b, view_pairs, mirror)
    weight_err = float(np.max(np.abs(weights - exact)) / np.max(np.abs(exact)))
    return block_err, weight_err


def run_selfcheck(seed: int = 0) -> list[CheckResult]:
    """Cross-oracle equivalence suite over transforms, channel operators,
    and detection identities.  Fast, deterministic, and independent of the
    FFT fast paths it validates."""
    if seed < 0:
        raise ConfigurationError(f"selfcheck seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def check(name: str, err: float, tol: float) -> None:
        results.append(CheckResult(name, bool(err <= tol), f"err={err:.3e} tol={tol:.1e}"))

    # transforms vs dense Kronecker oracle
    worst = 0.0
    for m, n in ((2, 2), (4, 3), (8, 8)):
        x = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        ops = oracles.build_kron_operators(m, n)
        worst = max(worst, float(np.max(np.abs(
            ops.modulator @ x.reshape(-1) - isfft(x).reshape(-1)))))
        worst = max(worst, float(np.max(np.abs(sfft(isfft(x)) - x))))
    check("transforms.kron_equivalence", worst, 1e-9)

    # full chain vs dense DD matrix
    worst = 0.0
    for m, n in ((4, 4), (8, 4)):
        grid = FrameGrid(M=m, N=n)
        ch = ch_mod.sample_channel(grid, 3, (n - 1) // 2, m - 1, rng)
        windows = win_mod.WindowPair(
            tx=rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)),
            rx=rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)),
        )
        h_dd = oracles.dd_channel_matrix(ch, windows)
        x = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        fast = ch_mod.transmit_frame(x, ch_mod.tf_channel(ch), windows)
        worst = max(worst, float(np.max(np.abs(h_dd @ x.reshape(-1) - fast.reshape(-1)))))
        # the effective-tap circular operator is the same matrix
        eff = ch_mod.effective_dd_channel(ch, windows)
        worst = max(worst, float(np.max(np.abs(ch_mod.circular_operator(eff.taps) - h_dd))))
    check("channel.chain_vs_dense", worst, 1e-9)

    # rectangular closed forms vs direct summation
    grid = FrameGrid(M=8, N=16)
    windows = win_mod.WindowPair.rectangular(grid)
    worst = 0.0
    for _ in range(50):
        dk = rng.uniform(-grid.N, grid.N)
        dl = rng.uniform(-grid.M, grid.M)
        direct = oracles.dd_filter(windows, dk, dl)
        closed = (oracles.rect_doppler_response(dk, grid.N)
                  * np.conj(oracles.rect_doppler_response(dl, grid.M)))
        worst = max(worst, abs(direct - complex(closed)))
    check("channel.rect_closed_form", worst, 1e-10)

    # integer-Doppler power conservation
    grid = FrameGrid(M=8, N=8)
    paths = (ch_mod.PathSpec(0.8 + 0.3j, 1, 2), ch_mod.PathSpec(-0.2 + 0.5j, 3, -1))
    ch = ch_mod.ChannelRealization(paths, grid)
    eff = ch_mod.effective_dd_channel(ch, win_mod.WindowPair.rectangular(grid))
    check("channel.integer_power_conservation",
          abs(eff.total_power() - ch.total_gain_power()), 1e-10)

    # invertible RX window leaves the MMSE detection error unchanged
    grid = FrameGrid(M=4, N=4)
    ch = ch_mod.sample_channel(grid, 2, 1, 3, rng)
    n0 = 0.05
    rect = win_mod.WindowPair.rectangular(grid)
    shaped = win_mod.WindowPair.separable(grid, rx_doppler=win_mod.dc_window(grid.N, -30).coeffs)
    x = Constellation.qpsk().points[rng.integers(0, 4, grid.size)]
    noise_tf = math.sqrt(n0 / 2) * (rng.standard_normal(grid.shape)
                                    + 1j * rng.standard_normal(grid.shape))
    mses = []
    for windows in (rect, shaped):
        h = oracles.dd_channel_matrix(ch, windows)
        y = h @ x + sfft(windows.rx * noise_tf).reshape(-1)
        noise = det_mod.noise_covariance(windows.rx, n0)
        rep = det_mod.mmse_detect(y, h, noise, Constellation.qpsk(), truth=x)
        mses.append(rep.mse_emp)
    check("detection.rx_window_invariance", abs(mses[0] - mses[1]), 1e-9)

    # per-bin LMMSE vs the dense covariance form, full-data and pilot frames
    qpsk = Constellation.qpsk()
    for name, m, n, spread in (
        ("detection.tf_lmmse_vs_dense", 8, 4, None),
        ("detection.tf_lmmse_pilot_vs_dense", 6, 10, (1, 2, 1)),
    ):
        grid = FrameGrid(M=m, N=n)
        layout = None if spread is None else est_mod.PilotLayout.centered(grid, *spread)
        mask = np.ones(grid.shape, dtype=bool) if layout is None else layout.data_mask
        worst = 0.0
        for n0 in (1.0, 1e-3, 1e-6):
            ch = ch_mod.sample_channel(grid, 3, (n - 1) // 2, m - 1, rng)
            windows = win_mod.WindowPair(
                tx=rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)),
                rx=rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)),
            )
            x = np.zeros(grid.shape, dtype=complex)
            x[mask] = qpsk.points[rng.integers(0, 4, int(mask.sum()))]
            y = ch_mod.transmit_frame(x, ch_mod.tf_channel(ch), windows, n0, rng)
            h = oracles.dd_channel_matrix(ch, windows)[:, mask.reshape(-1)]
            dense = det_mod.mmse_detect(
                y.reshape(-1), h, det_mod.noise_covariance(windows.rx, n0), qpsk).soft
            fast = det_mod.tf_lmmse_detect(
                y, windows.joint * ch_mod.tf_channel(ch), windows.rx, n0, qpsk, layout).soft
            worst = max(worst, float(np.linalg.norm(fast - dense) / np.linalg.norm(dense)))
        check(name, worst, 1e-8)

    # sum-product factor update: tensor contraction vs literal enumeration
    # of the joint configurations on a tiny random factor graph
    worst = 0.0
    for constellation, degree in ((Constellation.bpsk(), 4), (Constellation.qpsk(), 3)):
        points, size = constellation.points, 6
        q = points.size
        gains = rng.standard_normal((size, degree)) + 1j * rng.standard_normal((size, degree))
        y = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        from_symbol = rng.random((degree, q, size))
        likelihood = np.empty((q,) * degree + (size,))
        slow = np.zeros((degree, q, size))
        for config in itertools.product(range(q), repeat=degree):
            likelihood[config] = np.exp(-np.abs(y - gains @ points[list(config)]) ** 2)
            for t in range(degree):
                weight = likelihood[config].copy()
                for s in range(degree):
                    if s != t:
                        weight *= from_symbol[s, config[s]]
                slow[t, config[t]] += weight
        fast = det_mod._factor_messages(likelihood, from_symbol)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    check("detection.spa_factor_update_vs_enumeration", worst, 1e-12)

    # two-channel optimal allocation closed form
    alloc = win_mod.optimal_tx_window(np.array([4.0, 1.0]))
    err = max(
        abs(alloc.eta - 36.0 / 169.0),
        abs(alloc.x[0] - 5.0 / 6.0),
        abs(alloc.x[1] - 7.0 / 6.0),
        abs(det_mod.analytic_detection_mse(np.array([4.0, 1.0]), alloc.x) - 9.0 / 26.0),
    )
    check("windows.two_channel_allocation", err, 1e-9)

    # exact water level: unit budget and KKT conditions on a Fig-6 size grid
    lam = rng.exponential(size=(20, 30)) * 10.0 ** rng.uniform(-1.0, 3.0, size=(20, 30))
    lam[rng.random(lam.shape) < 0.2] = 0.0
    alloc = win_mod.optimal_tx_window(lam)
    active = alloc.x > 0
    stationarity = lam[active] / (lam[active] * alloc.x[active] + 1.0) ** 2
    err = max(
        abs(float(np.mean(alloc.x)) - 1.0),
        float(np.max(np.abs(stationarity / alloc.eta - 1.0))),
        max(float(np.max(lam[~active], initial=0.0)) / alloc.eta - 1.0, 0.0),
    )
    check("windows.water_level_kkt", err, 1e-12)

    # one sum-product call on a stack gives every frame exactly its result
    # alone: two frames share a flooding loop beside an empty truncation
    grid, bpsk = FrameGrid(M=4, N=4), Constellation.bpsk()
    shape = (3,) + grid.shape
    taps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    taps[1] = 0.0
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    channels = [ch_mod.EffectiveDDChannel(taps=t, truncation=ch_mod.largest_taps(t, 2))
                for t in taps]
    stack = det_mod.spa_detect(y, channels, 0.3, bpsk)
    worst = 0.0
    for frame, ch, marginals, hard in zip(y, channels, stack.marginals, stack.hard_indices):
        alone = det_mod.spa_detect(frame, ch, 0.3, bpsk)
        worst = max(worst, float(np.max(np.abs(marginals - alone.marginals))),
                    float(np.count_nonzero(hard != alone.hard_indices)))
    check("detection.spa_stack_vs_frames", worst, 0.0)

    # the real-arithmetic guard downdate against the complex guard block and
    # solve, on the Fig-6 layout and on one whose Doppler guard wraps row 0
    grid = FrameGrid(M=30, N=20)
    block_err = weight_err = 0.0
    for layout in (est_mod.PilotLayout.centered(grid, 3, 4, 1),
                   est_mod.PilotLayout(grid, 2, 10, 1.0, 3, 4, 1)):
        errors = _guard_real_vs_complex(layout, layout.guard_mirror, rng)
        block_err, weight_err = max(block_err, errors[0]), max(weight_err, errors[1])
    results.append(CheckResult(
        "detection.tf_lmmse_guard_real_vs_complex",
        block_err <= 1e-12 and weight_err <= 1e-10,
        f"block err={block_err:.3e} tol=1.0e-12, weights err={weight_err:.3e} tol=1.0e-10",
    ))

    # one water-level loop on a stack gives every frame exactly its
    # allocation alone: two frames settle on the first pass (one with zero
    # bins), the third, spread over four decades, needs several
    shape = (3, 20, 30)
    lam = rng.exponential(size=shape) + 1.0
    lam[1][rng.random(shape[1:]) < 0.2] = 0.0
    lam[2] *= 10.0 ** rng.uniform(-3.0, 1.0, size=shape[1:])
    stack = win_mod.optimal_tx_window(lam)
    worst = 0.0
    for frame, x, eta, mercury in zip(lam, stack.x, stack.eta, stack.mercury):
        alone = win_mod.optimal_tx_window(frame)
        worst = max(worst, float(np.max(np.abs(x - alone.x))), abs(float(eta) - alone.eta),
                    float(np.max(np.abs(mercury - alone.mercury))))
    check("windows.water_level_stack_vs_frames", worst, 0.0)

    return results
