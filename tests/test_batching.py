"""Stacks of frames through the batched layers: each frame of a stack must
come out bit for bit as the same layer gives it for that frame alone, and,
for the channel draw, the TF channel, the water level and the transmit
step, as the single-frame code they replaced (kept in ``oracles``).  The
sum-product detector is also checked against the enumeration oracle.

The harness runs trials in chunks through these layers, and its rows stay
byte-identical only if this holds, so the comparisons are exact
(``np.array_equal``), never within a tolerance.
"""

import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import oracles
from otfswin import (
    ChannelRealization,
    Constellation,
    EffectiveDDChannel,
    FrameGrid,
    NumericalFailure,
    PilotLayout,
    WindowPair,
    dc_window,
    effective_dd_channel,
    embed_pilot,
    estimate_channel,
    isfft,
    largest_taps,
    map_symbols,
    measured_ce_mse,
    optimal_tx_window,
    sample_channel,
    sfft,
    spa_detect,
    tf_channel,
    tf_gains_from_taps,
    tf_lmmse_detect,
    transmit_frame,
)
from otfswin import channel as ch_mod
from otfswin import detection
from otfswin.channel import _dd_response
from otfswin.harness import ExperimentConfig, build_windows

GRID = FrameGrid(M=30, N=20)
LAYOUT = PilotLayout.centered(GRID, k_max=3, l_max=4, k_hat=1, pilot_power_dbw=30.0)
QPSK = Constellation.qpsk()
# 64 complex 30x20 frames take 600 KiB, past the 256 KiB from which numpy
# rewrites ``a * tmp`` in place; 5 frames stay below it
STACKS = (5, 64)
WINDOWS = ("rect", "dc-tx", "dc-rx")


def window_pair(kind: str) -> WindowPair:
    fields = {"rect": {}, "dc-tx": {"tx_window": "dc"}, "dc-rx": {"rx_window": "dc"}}[kind]
    return build_windows(ExperimentConfig(M=GRID.M, N=GRID.N, **fields), GRID)


def complex_stack(rng, frames: int) -> np.ndarray:
    shape = (frames,) + GRID.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def channels(rng, frames: int):
    return sample_channel(GRID, 5, 3, 4, [rng] * frames)


def data_frames(rng, frames: int) -> np.ndarray:
    labels = rng.integers(0, QPSK.points.size, (frames, int(LAYOUT.data_mask.sum())))
    return embed_pilot(map_symbols(labels, QPSK, GRID, mask=LAYOUT.data_mask), LAYOUT)


def assert_framewise(stacked, per_frame) -> None:
    per_frame = list(per_frame)
    assert np.shape(stacked) == (len(per_frame),) + np.shape(per_frame[0])
    for got, want in zip(stacked, per_frame):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("frames", STACKS)
@pytest.mark.parametrize("layer", [isfft, sfft, _dd_response], ids=lambda f: f.__name__)
def test_transforms(layer, frames):
    x = complex_stack(np.random.default_rng(frames), frames)
    assert_framewise(layer(x), (layer(f) for f in x))


@pytest.mark.parametrize("frames", [1, 13, 64])
@pytest.mark.parametrize("shape", [(20, 30), (16, 8), (32, 64)], ids=str)
def test_dd_response_on_the_first_delays_is_the_full_responses_columns(shape, frames):
    rng = np.random.default_rng(frames)
    x = rng.standard_normal((frames,) + shape) + 1j * rng.standard_normal((frames,) + shape)
    full = _dd_response(x)
    for count in (1, 3, 5, shape[1], None):
        assert np.array_equal(_dd_response(x, count), full[..., :count])
    assert np.array_equal(_dd_response(x[0], 5), full[0, :, :5])


def test_transforms_take_any_number_of_leading_axes():
    x = complex_stack(np.random.default_rng(1), 6).reshape((2, 3) + GRID.shape)
    for layer in (isfft, sfft, _dd_response):
        assert np.array_equal(layer(x).reshape((6,) + GRID.shape),
                              layer(x.reshape((6,) + GRID.shape)))


@pytest.mark.parametrize("frames", (1,) + STACKS)
@pytest.mark.parametrize("paths", [1, 2, 5])
def test_tf_channel(paths, frames):
    rng = np.random.default_rng(frames + paths)
    chs = [sample_channel(GRID, paths, 3, 4, rng) for _ in range(frames)]
    assert_framewise([tf_channel(ch) for ch in chs],
                     (oracles.broadcast_sum_tf_channel(ch) for ch in chs))


def assert_same_bits(got, want) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _delay_bin_cases(frames: int):
    """Realizations whose delay bins reach the cases the delay-phase table
    serves: drawn on 0..4; up to and past M - 1; all below a wide l_max;
    and a few bins far apart, fewer than the largest bin."""
    rng = np.random.default_rng([11, frames])
    stack = [rng] * frames if frames else rng
    drawn = sample_channel(GRID, 5, 3, 4, stack)
    past = sample_channel(GRID, 7, 3, 4, stack)
    past.delay_bins = rng.integers(GRID.M - 3, 2 * GRID.M + 3, past.delay_bins.shape)
    past.delay_bins.flat[:2] = GRID.M - 1, GRID.M
    below = sample_channel(GRID, 3, 3, GRID.M - 1, stack)
    below.delay_bins //= 3
    assert below.delay_bins.max() < GRID.M // 3
    sparse = sample_channel(GRID, 2, 3, 4, stack)
    sparse.delay_bins = np.where(np.arange(2) == 0, 0, 1000) + np.zeros_like(sparse.delay_bins)
    assert sparse.delay_bins.max() + 1 > sparse.delay_bins.size
    return {"drawn": drawn, "past-m": past, "below-l-max": below, "sparse": sparse}


@pytest.mark.parametrize("frames", (0, 1) + STACKS, ids=lambda f: f"frames={f or 'single'}")
def test_tf_channel_equals_the_per_path_phases(frames):
    # the delay phases read from one table per call are the per-path
    # expression's bits, for single realizations and stacks
    for ch in _delay_bin_cases(frames).values():
        assert_same_bits(tf_channel(ch), oracles.per_path_tf_channel(ch))


# --- channel draws: one generator per realization of a stack

PATH_ARRAYS = ("gains", "delay_bins", "doppler_bins", "doppler_fracs")


def assert_same_realizations(stack, alone) -> None:
    for name in PATH_ARRAYS:
        assert_framewise(getattr(stack, name), (getattr(ch, name) for ch in alone))


def assert_same_realization(got, want) -> None:
    assert got.grid == want.grid
    for name in PATH_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("frames", (1,) + STACKS)
@pytest.mark.parametrize("paths", [1, 2, 5])
def test_sample_channel_stack(paths, frames):
    seeds = [[frames, paths, i] for i in range(frames)]
    generators = [np.random.default_rng(seed) for seed in seeds]
    stack = sample_channel(GRID, paths, 3, 4, generators)
    alone = [sample_channel(GRID, paths, 3, 4, np.random.default_rng(seed)) for seed in seeds]
    assert stack.gains.shape == (frames, paths)
    assert_same_realizations(stack, alone)
    old = [oracles.single_generator_sample_channel(GRID, paths, 3, 4, np.random.default_rng(seed))
           for seed in seeds]
    for a, o in zip(alone, old):
        assert_same_realization(a, o)
    # each stream is left where a draw of its own realization leaves it
    after = [rng.random() for rng in generators]
    for seed, value in zip(seeds, after):
        rng = np.random.default_rng(seed)
        sample_channel(GRID, paths, 3, 4, rng)
        assert rng.random() == value
    assert_framewise(tf_channel(stack), (oracles.broadcast_sum_tf_channel(ch) for ch in alone))


@pytest.mark.parametrize("l_max", [0, 4, GRID.M - 1])
@pytest.mark.parametrize("k_max", [0, 1, 3])
def test_sample_channel_is_the_single_generator_draw(k_max, l_max):
    # the bins of all generators as one block of bounded draws and one (2, P)
    # normal draw give the values the per-array draws give, and leave each
    # stream where they leave it: the same live state and next draws (numpy
    # leaves its last used half in the state, the block does not)
    for paths in range(1, 10):
        seeds = [[k_max, l_max, paths, i] for i in range(3)]
        generators = [np.random.default_rng(seed) for seed in seeds]
        stack = sample_channel(GRID, paths, k_max, l_max, generators)
        olds = [np.random.default_rng(seed) for seed in seeds]
        alone = [oracles.single_generator_sample_channel(GRID, paths, k_max, l_max, rng)
                 for rng in olds]
        assert_same_realizations(stack, alone)
        single = np.random.default_rng(seeds[0])
        assert_same_realization(sample_channel(GRID, paths, k_max, l_max, single), alone[0])
        old_single = np.random.default_rng(seeds[0])
        oracles.single_generator_sample_channel(GRID, paths, k_max, l_max, old_single)
        oracles.assert_same_streams(generators + [single], olds + [old_single])


class LoggedBitGenerator:
    """A PCG64 that logs the raw draws made from it."""

    def __init__(self, bit_generator, draws):
        self.wrapped, self.draws = bit_generator, draws

    @property
    def state(self):
        return self.wrapped.state

    def random_raw(self, size=None):
        self.draws.append("random_raw")
        return self.wrapped.random_raw(size)

    def advance(self, delta):
        self.draws.append("advance")
        return self.wrapped.advance(delta)


class FirstRandomZero:
    """A generator whose first ``random`` draw starts with 0.0, the value
    that puts a Doppler fraction on the excluded endpoint -1/2; it logs
    which draws it makes, its raw draws included."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []
        self.bit_generator = LoggedBitGenerator(self.rng.bit_generator, self.draws)

    def integers(self, *args, **kwargs):
        self.draws.append("integers")
        return self.rng.integers(*args, **kwargs)

    def random(self, size=None, out=None):
        self.draws.append("random")
        values = self.rng.random(size, out=out)
        if self.draws.count("random") == 1:
            values[0] = 0.0
        return values

    def standard_normal(self, size=None, out=None):
        self.draws.append("standard_normal")
        return self.rng.standard_normal(size, out=out)


def test_sample_channel_redraws_the_endpoint_from_the_trials_own_stream():
    seeds = [[7, i] for i in range(3)]
    stub = FirstRandomZero(seeds[1])
    generators = [np.random.default_rng(seeds[0]), stub, np.random.default_rng(seeds[2])]
    stack = sample_channel(GRID, 5, 3, 4, generators)
    # one draw per distribution: delays with Dopplers (the words of their
    # bounded draws, taken raw), fractions, the redraw, gains (the
    # single-generator oracle makes two integer and two normal draws)
    assert stub.draws == ["random_raw", "random", "random", "standard_normal"]
    old_stub = FirstRandomZero(seeds[1])
    alone = [sample_channel(GRID, 5, 3, 4, np.random.default_rng(seeds[0])),
             oracles.single_generator_sample_channel(GRID, 5, 3, 4, old_stub),
             sample_channel(GRID, 5, 3, 4, np.random.default_rng(seeds[2]))]
    assert_same_realizations(stack, alone)
    # the redrawn fraction is the stream's next value, not the endpoint
    fresh = np.random.default_rng(seeds[1])
    fresh.integers(0, 5, size=5), fresh.integers(-3, 4, size=5), fresh.random(5)
    assert stack.doppler_fracs[1, 0] == fresh.random() - 0.5 > -0.5


def test_channel_realization_from_paths_and_back():
    rng = np.random.default_rng(8)
    ch = sample_channel(GRID, 5, 3, 4, rng)
    assert_same_realization(ChannelRealization(ch.paths, GRID), ch)
    stack = sample_channel(GRID, 5, 3, 4, [rng, rng])
    with pytest.raises(ValueError, match="stack"):
        stack.paths
    assert stack.total_gain_power().shape == (2,)


# --- the optimal TX window: one water-level loop on a stack

def water_level_frames(rng) -> np.ndarray:
    """Four gain frames whose fixed points take different numbers of
    passes: frame 0 settles on the first pass, frame 1 too beside zero bins
    and a subnormal bin, frame 2 spreads over two decades and frame 3 over
    six."""
    lam = rng.exponential(size=(4,) + GRID.shape) + 1.0
    lam[1][rng.random(GRID.shape) < 0.2] = 0.0
    lam[1, 0, 0] = 5e-324
    lam[2] *= 10.0 ** rng.uniform(-1.0, 1.0, size=GRID.shape)
    lam[3] *= 10.0 ** rng.uniform(-4.0, 2.0, size=GRID.shape)
    return lam


def active_set_passes(lam) -> int:
    """Passes of the water-level fixed point on one frame, counted with
    boolean indexing: the sets tried until none drops."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    lam_max = lam.max()
    active = (lam > 0.0) & (lam >= lam_max / (lam.size * lam_max + 1.0) ** 2)
    passes = 1
    while True:
        eta = (np.sum(lam[active] ** -0.5) / (lam.size + np.sum(1.0 / lam[active]))) ** 2
        if not np.any(lam[active] <= eta):
            return passes
        active &= lam > eta
        passes += 1


def assert_allocations_framewise(stack, per_frame) -> None:
    per_frame = list(per_frame)
    assert stack.eta.shape == (len(per_frame),)
    for name in ("x", "mercury", "tx_window"):
        assert_framewise(getattr(stack, name), (getattr(a, name) for a in per_frame))
    assert all(type(a.eta) is float for a in per_frame)
    assert stack.eta.tolist() == [a.eta for a in per_frame]


def test_water_level_stack_vs_frames():
    lam = water_level_frames(np.random.default_rng(9))
    passes = [active_set_passes(frame) for frame in lam]
    assert passes[0] == passes[1] == 1 < passes[2] < passes[3], passes
    stack = optimal_tx_window(lam)
    assert_allocations_framewise(stack, (optimal_tx_window(frame) for frame in lam))
    assert_allocations_framewise(stack, (oracles.single_frame_optimal_tx_window(frame)
                                         for frame in lam))
    assert stack.x[1, 0, 0] == 0.0 and np.all(stack.x[1][lam[1] == 0.0] == 0.0)


def test_water_level_stack_past_the_elision_threshold():
    # 64 float 30x20 frames take 300 KiB, past the 256 KiB from which numpy
    # rewrites ``a * tmp`` in place
    rng = np.random.default_rng(19)
    lam = np.concatenate([water_level_frames(rng) for _ in range(16)])
    assert lam.nbytes > 256 * 1024
    assert_allocations_framewise(optimal_tx_window(lam),
                                 (optimal_tx_window(frame) for frame in lam))


def test_water_level_is_the_correctly_rounded_square():
    # this level squared by the C library's pow, as Python squares a float,
    # lies one ulp from its correctly rounded square; the level is the
    # latter, the square nearest to the exact one
    lam = np.array([[[16.0, 29.0 / 7.0]], [[1.0, 2.0]]])
    root = float(np.sum(np.sqrt(1.0 / lam[0])) / (lam[0].size + np.sum(1.0 / lam[0])))
    assert root ** 2 != root * root
    exact = Fraction(root) ** 2
    level = optimal_tx_window(lam[0, 0]).eta
    assert level == root * root
    assert all(abs(Fraction(level) - exact) < abs(Fraction(neighbour) - exact)
               for neighbour in (np.nextafter(level, 0.0), np.nextafter(level, np.inf)))
    assert_allocations_framewise(optimal_tx_window(lam),
                                 (oracles.single_frame_optimal_tx_window(frame) for frame in lam))
    assert level == oracles.single_frame_optimal_tx_window(lam[0]).eta


def test_water_level_stack_of_many_small_frames():
    rng = np.random.default_rng(10)
    lam = rng.exponential(size=(2000, 4, 5)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2000, 4, 5))
    lam[rng.random(lam.shape) < 0.1] = 0.0
    lam[:, 0, 0] += 1.0
    assert_allocations_framewise(optimal_tx_window(lam),
                                 (oracles.single_frame_optimal_tx_window(frame) for frame in lam))
    nested = optimal_tx_window(lam[:6].reshape((2, 3, 4, 5)))
    assert nested.eta.shape == (2, 3) and nested.x.shape == (2, 3, 4, 5)
    assert np.array_equal(nested.x.reshape(lam[:6].shape), optimal_tx_window(lam[:6]).x)


@pytest.mark.parametrize("fill, error, message", [
    (0.0, ValueError, "frame 1 of the stack: all channel gains are zero"),
    (1e-300, NumericalFailure, "frame 1 of the stack: water level"),
    (np.inf, ValueError, "finite and nonnegative"),
    (-1.0, ValueError, "finite and nonnegative"),
])
def test_water_level_stack_errors(fill, error, message):
    lam = water_level_frames(np.random.default_rng(11))
    lam[1] = fill
    with pytest.raises(error, match=message):
        optimal_tx_window(lam)
    with pytest.raises(error):
        optimal_tx_window(lam[1])


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("constellation", [Constellation.bpsk(), QPSK], ids=lambda c: c.name)
def test_map_symbols(constellation, masked):
    mask = LAYOUT.data_mask if masked else None
    cells = int(LAYOUT.data_mask.sum()) if masked else GRID.size
    labels = np.random.default_rng(2).integers(0, constellation.points.size, (64, cells))
    assert_framewise(map_symbols(labels, constellation, GRID, mask=mask),
                     (map_symbols(row, constellation, GRID, mask=mask) for row in labels))


def test_embed_pilot():
    frames = complex_stack(np.random.default_rng(3), 64)
    assert_framewise(embed_pilot(frames, LAYOUT), (embed_pilot(f, LAYOUT) for f in frames))


# a mask of the pilot layout's data cells, and one of none
MASKS = {"data": LAYOUT.data_mask, "all-guard": np.zeros(GRID.shape, dtype=bool)}


@pytest.mark.parametrize("frames", [None, 64], ids=["one-frame", "stack"])
@pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS.keys())
@pytest.mark.parametrize("constellation", [Constellation.bpsk(), QPSK], ids=lambda c: c.name)
def test_masked_map_symbols_is_a_zero_fill_and_mask_assignment(constellation, mask, frames):
    # the masked frames gather their labels onto the grid; their bytes must
    # be those of a zero fill with the points assigned through the mask
    lead = () if frames is None else (frames,)
    cells = int(mask.sum())
    labels = np.random.default_rng(4).integers(0, constellation.points.size, lead + (cells,))
    want = np.zeros(lead + GRID.shape, dtype=complex)
    want[..., mask] = constellation.points[labels]
    got = map_symbols(labels, constellation, GRID, mask=mask)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("frames", [None, 64], ids=["one-frame", "stack"])
def test_embed_pilot_in_place_is_the_copying_call(frames):
    data = data_frames(np.random.default_rng(6), 1 if frames is None else frames)
    data = data[0] if frames is None else data
    # data cells of every value, guard cells that are not zero yet
    data += complex_stack(np.random.default_rng(7), data.size // GRID.size).reshape(data.shape)
    before = data.copy()
    copied = embed_pilot(data, LAYOUT)
    assert data.tobytes() == before.tobytes()
    assert embed_pilot(data, LAYOUT, out=data) is data
    assert data.tobytes() == copied.tobytes()


def test_embed_pilot_refuses_an_out_of_another_shape():
    frames = complex_stack(np.random.default_rng(8), 2)
    with pytest.raises(ValueError, match="out must be"):
        embed_pilot(frames, LAYOUT, out=frames[0])


def _received(kind: str, frames: int, n0: float,
              demodulate: bool = True) -> tuple[np.ndarray, list[np.ndarray], WindowPair]:
    """A stack sent through ``transmit_frame`` at once, and frame by frame
    with generators seeded alike: DD frames, or with ``demodulate=False``
    RX-windowed TF grids."""
    rng = np.random.default_rng(frames)
    gains = tf_channel(channels(rng, frames))
    x = data_frames(rng, frames)
    if kind == "per-frame":
        # one non-separable TX window per frame, as the optimal window gives
        windows = WindowPair.from_tx_grid(np.abs(complex_stack(rng, frames)))
        pairs = [WindowPair(tx, rx) for tx, rx in zip(windows.tx, windows.rx)]
    else:
        windows = window_pair(kind)
        pairs = [windows] * frames
    stacked = transmit_frame(x, gains, windows, n0,
                             [np.random.default_rng([9, i]) for i in range(frames)],
                             demodulate=demodulate)
    alone = [oracles.single_frame_transmit(x[i], gains[i], pairs[i], n0,
                                           np.random.default_rng([9, i]), demodulate)
             for i in range(frames)]
    return stacked, alone, windows


@pytest.mark.parametrize("n0", [0.0, 0.01])
@pytest.mark.parametrize("frames", (1,) + STACKS)
@pytest.mark.parametrize("kind", WINDOWS + ("per-frame",))
def test_transmit_frame(kind, frames, n0):
    stacked, alone, windows = _received(kind, frames, n0)
    assert_framewise(stacked, alone)
    if kind != "per-frame":
        rng = np.random.default_rng(frames)
        gains = tf_channel(channels(rng, frames))
        x = data_frames(rng, frames)
        single = [transmit_frame(f, g, windows, n0, np.random.default_rng([9, i]))
                  for i, (f, g) in enumerate(zip(x, gains))]
        assert_framewise(stacked, single)


def test_transmit_frame_needs_one_generator_per_frame():
    x = data_frames(np.random.default_rng(4), 3)
    gains = np.ones((3,) + GRID.shape, dtype=complex)
    rngs = [np.random.default_rng(i) for i in range(2)]
    with pytest.raises(ValueError, match="one generator per frame"):
        transmit_frame(x, gains, window_pair("rect"), 0.1, rngs)


class NanEmptyNumpy:
    """numpy, but ``empty`` hands out memory filled with NaNs."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype=dtype)


@pytest.mark.parametrize("demodulate", [False, True])
@pytest.mark.parametrize("noise", ["none", "every-frame", "some-frames"])
@pytest.mark.parametrize("frames", (0,) + STACKS, ids=lambda f: f"frames={f or 'single'}")
@pytest.mark.parametrize("kind", WINDOWS + ("tx-grid",))
def test_transmit_frame_equals_the_multiply_chain(kind, frames, noise, demodulate, monkeypatch):
    # a side built all ones skips its multiply and a chunk whose frames all
    # draw noise skips the zero fill; neither moves a bit of the output or
    # of the windowed gains
    rng = np.random.default_rng([12, frames])
    count = max(frames, 1)
    gains = tf_channel(channels(rng, count))
    x = data_frames(rng, count)
    if kind == "tx-grid":
        windows = WindowPair.from_tx_grid(np.abs(complex_stack(rng, count)))
    else:
        windows = window_pair(kind)
    n0 = {"none": np.zeros(count), "every-frame": mixed_n0(count),
          "some-frames": np.where(np.arange(count) % 3 == 1, 0.0, 1e-2)}[noise]
    generators = [np.random.default_rng([9, i]) for i in range(count)]
    if not frames:
        x, gains, n0, generators = x[0], gains[0], float(n0[0]), generators[0]
        windows = WindowPair.from_tx_grid(windows.tx[0]) if kind == "tx-grid" else windows
    twins = [np.random.default_rng([9, i]) for i in range(count)]
    # unfilled memory that holds NaNs: a frame that draws nothing must still
    # add zeros, and a frame that draws must overwrite all of it
    monkeypatch.setattr(ch_mod, "np", NanEmptyNumpy())
    got = transmit_frame(x, gains, windows, n0, generators, demodulate=demodulate)
    monkeypatch.undo()
    want = oracles.multiply_chain_transmit(x, gains, windows, n0,
                                           twins if frames else twins[0], demodulate)
    assert_same_bits(got, want)
    assert_same_bits(windows.windowed(gains), (windows.rx * windows.tx) * gains)


@pytest.mark.parametrize("frames", STACKS)
@pytest.mark.parametrize("kind", WINDOWS)
def test_estimate_channel_and_measured_ce_mse(kind, frames):
    n0 = 1e-3
    r, _, windows = _received(kind, frames, n0, demodulate=False)
    est = estimate_channel(r, LAYOUT, n0)
    assert_framewise(est, (estimate_channel(f, LAYOUT, n0) for f in r))
    rng = np.random.default_rng(frames)
    truth = _dd_response(windows.joint * tf_channel(channels(rng, frames)))
    sse = measured_ce_mse(truth, est, LAYOUT)
    assert sse.shape == (frames,)
    assert np.array_equal(sse, [measured_ce_mse(t, e, LAYOUT) for t, e in zip(truth, est)])
    assert isinstance(measured_ce_mse(truth[0], est[0], LAYOUT), float)


# --- per-frame noise powers: a chunk that spans SNR points

def mixed_n0(frames: int) -> np.ndarray:
    """Noise powers of two SNR points, 10 and 30 dB, interleaved over a stack."""
    return np.where(np.arange(frames) % 2 == 0, 1e-1, 1e-3)


def _received_at_mixed_snr(kind: str, frames: int, demodulate: bool = True):
    """A stack sent through ``transmit_frame`` at per-frame noise powers,
    and each frame sent alone at its own power with a generator seeded
    alike: DD frames, or with ``demodulate=False`` RX-windowed TF grids."""
    rng = np.random.default_rng(frames)
    gains = tf_channel(channels(rng, frames))
    x = data_frames(rng, frames)
    windows, n0 = window_pair(kind), mixed_n0(frames)
    stacked = transmit_frame(x, gains, windows, n0,
                             [np.random.default_rng([9, i]) for i in range(frames)],
                             demodulate=demodulate)
    alone = [transmit_frame(x[i], gains[i], windows, float(n0[i]), np.random.default_rng([9, i]),
                            demodulate=demodulate)
             for i in range(frames)]
    return stacked, alone, gains, windows, n0


@pytest.mark.parametrize("frames", STACKS)
@pytest.mark.parametrize("kind", WINDOWS)
def test_transmit_frame_at_per_frame_noise(kind, frames):
    stacked, alone, _, _, _ = _received_at_mixed_snr(kind, frames)
    assert_framewise(stacked, alone)


@pytest.mark.parametrize("n0", [np.full(3, 0.1), np.full((2, 1), 0.1)],
                         ids=["three-values", "column"])
def test_noise_power_of_another_shape_refused(n0):
    # a 2-frame stack takes one noise power or one per frame, in the channel
    # and the estimator as in the detectors
    frames = np.zeros((2,) + GRID.shape, dtype=complex)
    match = rf"{re.escape(str(n0.shape))} is neither.*\(2,\)"
    with pytest.raises(ValueError, match=match):
        transmit_frame(frames, np.ones(GRID.shape), window_pair("rect"), n0,
                       [np.random.default_rng(i) for i in range(2)])
    with pytest.raises(ValueError, match=match):
        estimate_channel(frames, LAYOUT, n0)


def _spa_one_tap(frames: np.ndarray, n0):
    taps = np.zeros(frames.shape, dtype=complex)
    taps[:, 0, 0] = 1.0
    channel = EffectiveDDChannel(taps=taps, truncation=largest_taps(taps, 1))
    return spa_detect(frames, channel, n0, QPSK)


# every layer of a trial that takes a noise power, on a 2-frame stack
NOISE_LAYERS = {
    "transmit_frame": lambda frames, n0: transmit_frame(
        frames, np.ones(GRID.shape), window_pair("rect"), n0,
        [np.random.default_rng(i) for i in range(2)]),
    "estimate_channel": lambda frames, n0: estimate_channel(frames, LAYOUT, n0),
    "tf_lmmse_detect": lambda frames, n0: tf_lmmse_detect(
        frames, np.ones(frames.shape), np.ones(frames.shape), n0, QPSK),
    "spa_detect": _spa_one_tap,
}


@pytest.mark.parametrize("stack", [False, True], ids=["scalar", "one-frame"])
@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("layer", sorted(NOISE_LAYERS))
def test_noise_power_that_is_not_finite_and_nonnegative_refused(layer, value, stack):
    # one bad value, alone or beside a good one, is named, not run as a NaN
    # frame or as no noise
    frames = np.ones((2,) + GRID.shape, dtype=complex)
    n0 = np.array([0.1, value]) if stack else value
    with pytest.raises(ValueError, match=rf"finite and nonnegative, got {re.escape(str([value]))}"):
        NOISE_LAYERS[layer](frames, n0)


@pytest.mark.parametrize("stack", [False, True], ids=["scalar", "one-frame"])
@pytest.mark.parametrize("layer", sorted(NOISE_LAYERS))
def test_zero_noise_power_runs(layer, stack):
    frames = np.ones((2,) + GRID.shape, dtype=complex)
    out = NOISE_LAYERS[layer](frames, np.array([0.1, 0.0]) if stack else 0.0)
    soft = getattr(out, "soft", out)
    assert np.all(np.isfinite(soft))


@pytest.mark.parametrize("frames", STACKS)
@pytest.mark.parametrize("kind", WINDOWS)
def test_estimate_channel_at_per_frame_noise(kind, frames):
    r, _, _, _, n0 = _received_at_mixed_snr(kind, frames, demodulate=False)
    assert_framewise(estimate_channel(r, LAYOUT, n0),
                     (estimate_channel(f, LAYOUT, float(p)) for f, p in zip(r, n0)))


@pytest.mark.parametrize("frames", STACKS)
@pytest.mark.parametrize("kind", WINDOWS)
def test_estimate_channel_on_the_tf_grid(kind, frames):
    # the pilot window read from the RX-windowed TF grids gives the bits of
    # the oracle's read of their DD frames, the sfft the channel would end with
    r, _, _, _, n0 = _received_at_mixed_snr(kind, frames, demodulate=False)
    assert np.array_equal(estimate_channel(r, LAYOUT, n0),
                          oracles.dd_estimate_channel(sfft(r), LAYOUT, n0))


@pytest.mark.parametrize("frames", STACKS)
def test_tf_gains_from_taps(frames):
    taps = complex_stack(np.random.default_rng(frames), frames)
    assert_framewise(tf_gains_from_taps(taps), (tf_gains_from_taps(t) for t in taps))


@pytest.mark.parametrize("frames", STACKS)
def test_tf_gains_from_taps_of_the_first_delays(frames):
    # taps that end at delay l_max, as a pilot estimate's: the transform of
    # those columns, zero-padded, gives the full transform's bits
    taps = complex_stack(np.random.default_rng(frames), frames)
    taps[..., LAYOUT.l_max + 1:] = 0.0
    short = tf_gains_from_taps(taps, LAYOUT.l_max + 1)
    assert np.array_equal(short, tf_gains_from_taps(taps))
    assert_framewise(short, (tf_gains_from_taps(t, LAYOUT.l_max + 1) for t in taps))


@pytest.mark.parametrize("frames", STACKS)
def test_pilot_tf_is_the_isfft_of_pilot_frames(frames):
    pilots = embed_pilot(np.zeros((frames,) + GRID.shape), LAYOUT)
    assert np.array_equal(isfft(pilots), np.broadcast_to(LAYOUT.pilot_tf, pilots.shape))
    assert not LAYOUT.pilot_tf.flags.writeable


@pytest.mark.parametrize("frames", STACKS)
@pytest.mark.parametrize("kind", ("rect", "dc-rx"))
@pytest.mark.parametrize("pilot", [False, True], ids=["full-data", "pilot"])
def test_tf_lmmse_detect_at_per_frame_noise(pilot, kind, frames):
    # the RX-windowed TF grids of a stack, and of each frame sent alone
    r, alone, true_gains, windows, n0 = _received_at_mixed_snr(kind, frames, demodulate=False)
    layout = LAYOUT if pilot else None

    def detect(r, gains, n0):
        if pilot:
            # as the harness does: estimate the taps, cancel the pilot per
            # TF bin, detect with the gains of the estimate
            gains = tf_gains_from_taps(estimate_channel(r, LAYOUT, n0), LAYOUT.l_max + 1)
            r = r - gains * LAYOUT.pilot_tf
        return tf_lmmse_detect(r, gains, windows.rx, n0, QPSK, layout)

    gains = windows.joint * true_gains
    stacked = detect(r, gains, n0)
    alone = [detect(f, g, float(p)) for f, g, p in zip(alone, gains, n0)]
    cells = int(LAYOUT.data_mask.sum()) if pilot else GRID.size
    assert stacked.soft.shape == stacked.hard_indices.shape == (frames, cells)
    assert_framewise(stacked.soft, (r.soft for r in alone))
    assert_framewise(stacked.hard_indices, (r.hard_indices for r in alone))


# --- sum-product detection: one call on a stack against one call per frame

SPA_GRID = FrameGrid(M=8, N=16)
SPA_MASK = PilotLayout.centered(SPA_GRID, k_max=2, l_max=2, k_hat=1).data_mask
CONSTELLATIONS = [Constellation.bpsk(), QPSK]


def spa_frames(rng, constellation, degrees, n0):
    """Frames sent over random DC-TX-windowed channels at noise power ``n0``
    (one, or one per frame), and the stacked effective channel truncated to
    the given degrees; degree 0 is an all-zero estimate."""
    windows = WindowPair.separable(SPA_GRID, tx_doppler=dc_window(SPA_GRID.N, -30.0).coeffs)
    points = constellation.points
    frames, taps = [], []
    for degree, frame_n0 in zip(degrees, np.broadcast_to(n0, len(degrees)).tolist()):
        ch = sample_channel(SPA_GRID, 3, 2, 2, rng)
        x = points[rng.integers(0, points.size, SPA_GRID.shape)]
        frames.append(transmit_frame(x, tf_channel(ch), windows, frame_n0, rng))
        taps.append(effective_dd_channel(ch, windows).taps * (degree > 0))
    taps = np.array(taps)
    truncation = largest_taps(taps, max(degrees))
    truncation[np.arange(max(degrees)) >= np.array(degrees)[:, None]] = -1
    channel = EffectiveDDChannel(taps=taps, truncation=truncation)
    assert [ch.truncation.size for ch in frame_channels(channel)] == list(degrees)
    return np.array(frames), channel


def frame_channels(channel):
    """The single-frame channels of a stack, their -1 pads dropped."""
    return [EffectiveDDChannel(taps=taps, truncation=row[row >= 0])
            for taps, row in zip(channel.taps, channel.truncation)]


def spa_stack_vs_frames(y, channel, n0, constellation, **kwargs):
    """Detect ``y`` as one stack and frame by frame, require equal arrays,
    and return the per-frame reports."""
    stack = spa_detect(y, channel, n0, constellation, **kwargs)
    alone = [spa_detect(frame, ch, frame_n0, constellation, **kwargs)
             for frame, ch, frame_n0 in zip(y, frame_channels(channel),
                                            np.broadcast_to(n0, len(y)).tolist())]
    mask = kwargs.get("data_mask")
    cells = SPA_GRID.size if mask is None else int(mask.sum())
    assert stack.marginals.shape == (len(y), cells, constellation.points.size)
    assert_framewise(stack.marginals, (r.marginals for r in alone))
    assert_framewise(stack.hard_indices, (r.hard_indices for r in alone))
    assert_framewise(stack.soft, (r.soft for r in alone))
    assert type(stack.iterations) is int
    return stack, alone


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("constellation", CONSTELLATIONS, ids=lambda c: c.name)
def test_spa_mixed_degrees(constellation, masked):
    degrees = (3, 0, 3, 5, 3, 5, 1, 4) if constellation.points.size == 2 else (2, 0, 2, 3, 2, 3, 1)
    y, channel = spa_frames(np.random.default_rng(40 + masked), constellation, degrees, 0.1)
    iters = 10
    stack, alone = spa_stack_vs_frames(
        y, channel, 0.1, constellation, iters=iters, damping=1.0,
        data_mask=SPA_MASK if masked else None)
    runs = {}
    for degree, report in zip(degrees, alone):
        runs.setdefault(degree, []).append(report.iterations)
    # a flooding loop where a frame that converged early freezes beside one
    # that stops at the sweep limit
    assert any(iters in group and min(group) < iters for group in runs.values()), runs
    # one flood for all degrees: it runs as long as its slowest frame
    assert stack.iterations == max(report.iterations for report in alone)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("n0, damping", [(0.02, 0.5), (0.3, 1.0), (1.0, 0.3)])
@pytest.mark.parametrize("constellation", CONSTELLATIONS, ids=lambda c: c.name)
def test_spa_matches_the_full_graph(constellation, n0, damping, masked):
    # the data-only graph with padded degrees against the stacked flood on
    # the full graph, one loop per degree: on BPSK a known symbol's messages
    # are exactly 1/2 there, so every number agrees bit for bit
    bpsk = constellation.points.size == 2
    degrees = (4, 0, 2, 5, 3, 1, 5) if bpsk else (3, 0, 2, 1, 3)
    y, channel = spa_frames(np.random.default_rng(42), constellation, degrees, n0)
    channels = frame_channels(channel)
    kwargs = dict(damping=damping, data_mask=SPA_MASK if masked else None)
    fast = spa_detect(y, channel, n0, constellation, **kwargs)
    slow = oracles.full_graph_spa(y, channels, n0, constellation, **kwargs)
    if bpsk:
        assert np.array_equal(fast.marginals, slow.marginals)
        assert np.array_equal(fast.soft, slow.soft)
    else:
        assert np.max(np.abs(fast.marginals - slow.marginals)) <= 1e-12
    assert np.array_equal(fast.hard_indices, slow.hard_indices)
    for frame, ch in zip(y, channels):
        assert (spa_detect(frame, ch, n0, constellation, **kwargs).iterations
                == oracles.full_graph_spa(frame, ch, n0, constellation, **kwargs).iterations)


@pytest.mark.parametrize("constellation", CONSTELLATIONS, ids=lambda c: c.name)
def test_spa_at_per_frame_noise(constellation):
    # frames of one degree at two SNRs share a flooding loop, each with its
    # own likelihood width
    degrees = (3, 3, 2, 3, 2, 3) if constellation.points.size == 2 else (2, 2, 3, 2, 3)
    n0 = mixed_n0(len(degrees))
    y, channel = spa_frames(np.random.default_rng(41), constellation, degrees, n0)
    stack, _ = spa_stack_vs_frames(y, channel, n0, constellation, iters=10,
                                   data_mask=SPA_MASK)
    shared = spa_detect(y, channel, float(n0[0]), constellation, iters=10, data_mask=SPA_MASK)
    assert not np.array_equal(stack.marginals, shared.marginals)


@pytest.mark.parametrize("constellation", CONSTELLATIONS, ids=lambda c: c.name)
def test_spa_zero_total_fallback_beside_normal_frames(constellation, monkeypatch):
    # frame 1 keeps all its taps, so its likelihood is noiseless, and no
    # symbol word explains its observation: messages reach exact zeros and,
    # with damping 1, fall back to uniform; the truncated frames keep their
    # residual tap energy as noise
    rng = np.random.default_rng(5)
    y, channel = spa_frames(rng, constellation, (2, 3, 2), 0.0)
    taps = channel.taps[1]
    taps[:] = 0.0
    taps[0, 0], taps[1, 2], taps[3, 1] = 1.0, 0.9j, -0.8
    channel.truncation[1] = largest_taps(taps, 3)
    y[1] = 3.0 * (rng.standard_normal(SPA_GRID.shape) + 1j * rng.standard_normal(SPA_GRID.shape))
    residual = channel.residual_power()
    assert residual[1] == 0 < residual[0]

    zero_totals = []
    normalize = detection._normalize

    def spy(msgs, axis):
        zero_totals.append(bool(np.any(msgs.sum(axis=axis) <= 0)))
        return normalize(msgs, axis)

    monkeypatch.setattr(detection, "_normalize", spy)
    spa_stack_vs_frames(y, channel, 0.0, constellation, iters=5, damping=1.0)
    assert any(zero_totals)


def test_spa_stack_is_split_by_the_configuration_budget(monkeypatch):
    # QPSK with 6 taps has 4^6 = 4096 configurations: at most
    # 8192 // 4096 = 2 frames share a flood, the degree-2 frame padded to 6
    degrees = (6, 6, 2, 6, 6, 6)
    y, channel = spa_frames(np.random.default_rng(6), QPSK, degrees, 0.1)
    spa_stack_vs_frames(y, channel, 0.1, QPSK, iters=4, data_mask=SPA_MASK)
    batches = []
    build = detection._spa_graph

    def spy(y, taps, truncation, *args):
        batches.append(np.count_nonzero(truncation >= 0, axis=1).tolist())
        return build(y, taps, truncation, *args)

    monkeypatch.setattr(detection, "_spa_graph", spy)
    spa_detect(y, channel, 0.1, QPSK, iters=4, data_mask=SPA_MASK)
    assert batches == [[6, 6], [2, 6], [6, 6]]


def test_spa_graph_reads_the_literal_graph(monkeypatch):
    # every gather entry decodes to the (slot, value, column) the factor
    # graph of the truncated taps names, and the likelihood is each live
    # factor's Gaussian, constant along its frame's pad axes
    degrees = (3, 1, 0, 2, 3)
    y, channel = spa_frames(np.random.default_rng(8), QPSK, degrees, 0.1)
    calls = []
    build = detection._spa_graph

    def spy(*args):
        calls.append((args, build(*args)))
        return calls[-1][1]

    monkeypatch.setattr(detection, "_spa_graph", spy)
    spa_detect(y, channel, 0.1, QPSK, iters=2, data_mask=SPA_MASK)
    [((y, taps, truncation, sigma2, points, data), graph)] = calls
    n, m = SPA_GRID.N, SPA_GRID.M
    q, width, cells = points.size, int(graph.counts.sum()), np.flatnonzero(data)
    degree = max(degrees)
    assert graph.likelihood.shape == (q,) * degree + (width,)
    assert graph.at_factors.shape == (degree, q, width)
    assert graph.at_symbols.shape == (degree, q, len(taps) * cells.size)

    def decode(index, columns):
        slot, rest = np.divmod(index, q * columns)
        value, column = np.divmod(rest, columns)
        assert np.array_equal(value, np.broadcast_to(np.arange(q)[:, None], value.shape))
        assert np.all((0 <= column) & (column < columns))
        return slot[:, 0], column[:, 0]

    fac_slot, fac_col = decode(graph.at_factors, len(taps) * cells.size)
    sym_slot, sym_col = decode(graph.at_symbols, width)
    configs = np.array(np.meshgrid(*[np.arange(q)] * degree, indexing="ij")).reshape(degree, -1)
    doppler, delay = np.divmod(np.arange(n * m), m)
    factor = 0
    for b, row in enumerate(truncation):
        kept = row[row >= 0]
        pad = degree - kept.size
        # on real slot t, factor i meets symbol sym_of[t][i] and symbol j
        # meets factor obs_of[t][j]
        sym_of = [((doppler - tap // m) % n) * m + (delay - tap % m) % m for tap in kept]
        obs_of = [((doppler + tap // m) % n) * m + (delay + tap % m) % m for tap in kept]
        live = [i for i in range(n * m) if any(data[sym[i]] for sym in sym_of)]
        assert graph.counts[b] == len(live)
        for f, i in enumerate(live, start=factor):
            mean = 0j
            for t in range(degree):
                if t < pad:
                    assert fac_slot[t, f] == degree + 1
                    continue
                j = sym_of[t - pad][i]
                if data[j]:
                    assert fac_slot[t, f] == t
                    assert fac_col[t, f] == b * cells.size + np.searchsorted(cells, j)
                    mean = mean + taps[b].reshape(-1)[kept[t - pad]] * points[configs[t]]
                else:
                    assert fac_slot[t, f] == degree
            dist = np.abs(y[b, i] - mean) ** 2
            want = np.exp(-(dist - dist.min()) / sigma2[b])
            assert np.allclose(graph.likelihood.reshape(-1, width)[:, f], want, rtol=1e-12)
            # constant along the pad axes
            tensor = graph.likelihood[..., f]
            assert np.array_equal(tensor, np.broadcast_to(tensor[(0,) * pad], tensor.shape))
        for k, j in enumerate(cells):
            s = b * cells.size + k
            for t in range(degree):
                if t < pad:
                    assert sym_slot[t, s] == degree + 1
                else:
                    assert sym_slot[t, s] == t
                    assert sym_col[t, s] == factor + live.index(obs_of[t - pad][j])
        factor += len(live)
    assert factor == width


@pytest.mark.parametrize("masked", [False, True], ids=["all-data", "guard"])
@pytest.mark.parametrize("constellation, degrees", [
    (Constellation.bpsk(), (3, 0, 3, 5, 1, 4)),
    (QPSK, (2, 0, 2, 3, 1)),
    # three floods of two frames, the degree-2 frame padded to 6
    (QPSK, (6, 6, 2, 6, 0, 6, 6)),
], ids=["bpsk", "qpsk", "qpsk-split"])
def test_spa_gathers_equal_the_inverse_permutation_tables(constellation, degrees, masked,
                                                          monkeypatch):
    # each graph's gather tables, built from the live factors' symbol
    # columns, equal those built through each slot's inverse permutation;
    # the degree-0 frame never reaches a graph
    y, channel = spa_frames(np.random.default_rng(9), constellation, degrees, 0.1)
    mask = SPA_MASK if masked else np.ones(SPA_GRID.shape, dtype=bool)
    frames = []
    build = detection._spa_graph

    def spy(y, taps, truncation, sigma2, points, data):
        graph = build(y, taps, truncation, sigma2, points, data)
        assert np.all(np.count_nonzero(truncation >= 0, axis=1) > 0)
        at_factors, at_symbols = oracles.inverse_permutation_spa_gathers(
            taps.shape, truncation, data, points.size)
        assert np.array_equal(graph.at_factors, at_factors)
        assert np.array_equal(graph.at_symbols, at_symbols)
        frames.append(len(taps))
        return graph

    monkeypatch.setattr(detection, "_spa_graph", spy)
    spa_detect(y, channel, 0.1, constellation, iters=2, data_mask=mask)
    assert sum(frames) == len(degrees) - 1


def test_spa_stack_matches_enumeration():
    bpsk = Constellation.bpsk()
    y, channel = spa_frames(np.random.default_rng(7), bpsk, (4, 0, 2, 4, 3), 0.02)
    stack = spa_detect(y, channel, 0.02, bpsk, data_mask=SPA_MASK)
    for frame, ch, marginals, hard in zip(y, frame_channels(channel), stack.marginals,
                                          stack.hard_indices):
        slow = oracles.enumeration_spa_detect(frame, ch, 0.02, bpsk, data_mask=SPA_MASK)
        assert np.array_equal(hard, slow.hard_indices)
        assert np.max(np.abs(marginals - slow.marginals)) <= 1e-12


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("constellation, degrees", [
    (Constellation.bpsk(), (3, 0, 3, 5, 3, 5, 1, 4)),
    (QPSK, (2, 0, 2, 3, 2, 3, 1)),
    # 4^6 configurations: three floods of two frames each
    (QPSK, (6, 6, 2, 6, 6, 6)),
], ids=["bpsk", "qpsk", "qpsk-split"])
def test_spa_frame_iterations_are_each_frames_alone(constellation, degrees, masked):
    y, channel = spa_frames(np.random.default_rng(40 + masked), constellation, degrees, 0.1)
    split = 0 not in degrees
    kwargs = dict(iters=4 if split else 10, damping=1.0, data_mask=SPA_MASK if masked else None)
    stack, alone = spa_stack_vs_frames(y, channel, 0.1, constellation, **kwargs)
    counts = [report.iterations for report in alone]
    assert stack.frame_iterations.shape == (len(degrees),)
    assert stack.frame_iterations.tolist() == counts
    assert [int(report.frame_iterations) for report in alone] == counts
    assert all(count == 0 for count, degree in zip(counts, degrees) if degree == 0)
    if split:
        # three floods of two frames, one after the other
        assert stack.iterations == sum(max(counts[i:i + 2]) for i in range(0, 6, 2))
    else:
        # one flood, in which frames stop at different sweeps
        assert len(set(counts) - {0}) > 1, counts
        assert stack.iterations == max(counts)


# --- the sum-product flood across calls: each call's arrays are its own

BPSK = Constellation.bpsk()


def spa_stacks():
    """Stacks of both constellations and of several sizes, each with its
    detection arguments."""
    rng = np.random.default_rng(44)
    cases = {"bpsk": (BPSK, (3, 1, 4, 2)), "bpsk-large": (BPSK, (5, 4, 5, 5, 3, 5, 5, 5)),
             "bpsk-small": (BPSK, (2,)), "qpsk": (QPSK, (2, 3, 1)),
             "qpsk-large": (QPSK, (4, 3, 4, 4, 4)), "qpsk-small": (QPSK, (1, 2))}
    return {name: (*spa_frames(rng, constellation, degrees, 0.1), constellation)
            for name, (constellation, degrees) in cases.items()}


def spa_report(y, channel, constellation):
    return spa_detect(y, channel, 0.1, constellation, iters=6, data_mask=SPA_MASK)


_REPORT_FIELDS = ("soft", "hard_indices", "marginals", "frame_iterations")


def assert_same_spa_report(got, want) -> None:
    for field in _REPORT_FIELDS:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.iterations == want.iterations


def test_spa_reports_do_not_depend_on_earlier_stacks(monkeypatch):
    # a stack detected right after a larger or a smaller one, of either
    # constellation, gives its report in a fresh process's order, and so it
    # does when np.empty hands out NaN bytes: it reads no byte it did not
    # write
    stacks = spa_stacks()
    fresh = {name: spa_report(*stacks[name]) for name in ("bpsk", "qpsk")}
    empty = np.empty

    def nan_filled(*args, **kwargs):
        array = empty(*args, **kwargs)
        array.reshape(-1).view(np.uint8)[...] = 0xFF
        return array

    for before, name in [("qpsk-large", "bpsk"), ("qpsk-small", "bpsk"), ("bpsk", "bpsk"),
                         ("bpsk-large", "qpsk"), ("bpsk-small", "qpsk"), ("qpsk", "qpsk")]:
        spa_report(*stacks[before])
        assert_same_spa_report(spa_report(*stacks[name]), fresh[name])
        monkeypatch.setattr(np, "empty", nan_filled)
        assert_same_spa_report(spa_report(*stacks[name]), fresh[name])
        monkeypatch.undo()


def test_spa_call_after_a_failing_flood_gives_its_fresh_report(monkeypatch):
    # a flood that raises after its sweeps leaves nothing behind: the next
    # call gives the report of the first
    y, channel, constellation = spa_stacks()["qpsk-large"]
    fresh = spa_report(y, channel, constellation)
    flood = detection._flood

    def failing(graph, iters, damping):
        flood(graph, iters, damping)
        raise RuntimeError("flood failed")

    monkeypatch.setattr(detection, "_flood", failing)
    with pytest.raises(RuntimeError, match="flood failed"):
        spa_report(y, channel, constellation)
    monkeypatch.undo()
    assert_same_spa_report(spa_report(y, channel, constellation), fresh)


def test_spa_threads_detect_alone():
    # more threads than cores detect different stacks at once, each many
    # times over, switching often: any buffer they shared would mix them
    stacks = spa_stacks()
    names = ("bpsk-large", "qpsk-large", "bpsk", "qpsk")
    alone = {name: spa_report(*stacks[name]) for name in names}
    start = threading.Barrier(len(names))

    def detect(name):
        start.wait(timeout=60)
        return [spa_report(*stacks[name]) for _ in range(6)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(names)) as pool:
            results = list(pool.map(detect, names, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for name, reports in zip(names, results):
        for report in reports:
            assert_same_spa_report(report, alone[name])


def test_spa_reports_share_no_memory_with_the_graph_or_a_later_call(monkeypatch):
    # a report's arrays are its own: they hold their bytes through later
    # calls on the same shapes, and none of them is a view of the flood's
    # graph or of another call's report
    y, channel, constellation = spa_stacks()["bpsk-large"]
    graphs = []
    build = detection._spa_graph

    def spy(*args):
        graphs.append(build(*args))
        return graphs[-1]

    monkeypatch.setattr(detection, "_spa_graph", spy)
    first = spa_report(y, channel, constellation)
    kept = {field: getattr(first, field).copy() for field in _REPORT_FIELDS}
    second = spa_report(y, channel, constellation)
    spa_report(*spa_stacks()["qpsk-large"])
    for field in _REPORT_FIELDS:
        assert getattr(first, field).tobytes() == kept[field].tobytes(), field
        assert not np.shares_memory(getattr(first, field), getattr(second, field)), field
        for graph in graphs:
            assert not np.shares_memory(getattr(first, field), graph.likelihood), field
    assert_same_spa_report(second, first)
