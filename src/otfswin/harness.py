"""Monte Carlo experiment engine, configuration, and deterministic seeding.

Experiments are described by a flat key/value config (file or mapping); every
field is echoed into the run metadata together with a hash of the canonical
config text.  Each trial draws its RNG stream from (master seed, snr index,
trial index), so results are bit-identical for a given config and seed, and
any single trial can be rerun on its own.

Output rows follow one CSV schema (header mandatory)::

    experiment,config_hash,snr_db,metric,value,ci_lo,ci_hi,trials

JSON output mirrors the rows as an array of objects.  Channel-estimation
runs can additionally be summarized in the compact CE row format
``snr_db,pilot_dbw,window,khat,mse_measured,mse_predicted``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import channel as ch_mod
from . import detection as det_mod
from . import estimation as est_mod
from . import windows as win_mod
from .errors import ConfigurationError, NumericalFailure
from .grid import Constellation, FrameGrid, map_symbols
# perfbench/run.py runs the self-check as harness.run_selfcheck
from .selfcheck import run_selfcheck
from .transforms import sfft

# Beyond a pilot-to-data amplitude ratio of 1/eps (or below eps), the pilot and
# the unit-power data cells cannot share one frame in double precision.
_MAX_PILOT_DB = 20.0 * math.log10(1.0 / sys.float_info.epsilon)


def _number(kind: type, rule: str, holds):
    """The check of a field of numeric type ``kind`` whose values satisfy
    ``holds``, which ``rule`` states in words.  An int field takes only an
    integral value; one type per field makes equal configs print, and
    hash, alike."""
    def check(name: str, value):
        try:
            typed = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"bad value for {name!r}: {value!r}") from exc
        if kind is int and not isinstance(value, str) and typed != value:
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not holds(typed):
            raise ConfigurationError(f"{name} must be {rule}, got {typed!r}")
        return typed
    return check


def _at_least(low: int):
    return _number(int, f"at least {low}", lambda v: v >= low)


def _choice(*options: str, fold: bool = False):
    """The check of a text field that takes one of ``options``, lower-cased
    first when ``fold`` is set: one spelling per run, which the hash, the
    echo and the link cache see."""
    def check(name: str, value) -> str:
        text = str(value).strip().lower() if fold else str(value).strip()
        if text not in options:
            raise ConfigurationError(f"{name} must be one of {options}, got {value!r}")
        return text
    return check


def _snr_points(name: str, value) -> tuple[float, ...]:
    """The check of the SNR list: a sequence or a comma/space separated
    text of dB values, each with a normal, finite noise power."""
    points = value.replace(",", " ").split() if isinstance(value, str) else value
    try:
        points = tuple(float(v) for v in points)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad value for {name!r}: {value!r}") from exc
    if not points:
        raise ConfigurationError(f"{name} must list at least one SNR point, got {value!r}")
    for v in points:
        try:
            n0 = noise_power(v)
        except OverflowError:
            n0 = math.inf
        if not sys.float_info.min <= n0 < math.inf:
            raise ConfigurationError(
                f"SNR point {v:g} dB in {name} gives a noise power of {n0:g}, outside "
                "the normal floating-point range"
            )
    return points


def _field(default, check):
    """A config field with its own check: ``check(name, value)`` returns the
    value as the config stores it, or raises ``ConfigurationError``."""
    return dataclasses.field(default=default, metadata={"check": check})


_POSITIVE_FINITE = _number(float, "finite and positive", lambda v: 0.0 < v < math.inf)

# The fields of every config hash so far, in their order: each is hashed
# always.  A field added later is hashed only when set away from its
# default, so adding one moves no existing hash.
_HASHED_ALWAYS = (
    "M", "N", "delta_f", "fc", "constellation", "paths", "k_max", "l_max", "k_hat",
    "pilot_power_dbw", "tx_window", "rx_window", "dc_sl_db", "detector", "spa_taps",
    "spa_iters", "spa_damping", "csi", "snr_db", "trials", "seed",
)
_HASHED_ALWAYS_SET = frozenset(_HASHED_ALWAYS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; unknown keys are rejected on parse.

    Each field declares its own check beside it; ``__post_init__`` runs
    them all, then the rules that tie fields together.
    """

    M: int = _field(30, _at_least(2))
    N: int = _field(20, _at_least(2))
    delta_f: float = _field(5e3, _POSITIVE_FINITE)
    fc: float = _field(3e9, _POSITIVE_FINITE)
    constellation: str = _field("qpsk", _choice("bpsk", "qpsk", fold=True))
    paths: int = _field(5, _at_least(1))
    k_max: int = _field(3, _at_least(0))
    l_max: int = _field(4, _at_least(0))
    k_hat: int = _field(1, _at_least(0))
    pilot_power_dbw: float = _field(30.0, _number(float, f"within +-{_MAX_PILOT_DB:.1f} dB",
                                                  lambda v: abs(v) <= _MAX_PILOT_DB))
    tx_window: str = _field("rect", _choice("rect", "dc", "optimal"))
    rx_window: str = _field("rect", _choice("rect", "dc"))
    dc_sl_db: float = _field(-40.0, _number(float, "finite", math.isfinite))
    detector: str = _field("mmse", _choice("mmse", "spa"))
    spa_taps: int = _field(0, _at_least(0))      # 0 means the 3P-1 default
    spa_iters: int = _field(20, _at_least(1))
    spa_damping: float = _field(0.5, _number(float, "in (0, 1]", lambda v: 0.0 < v <= 1.0))
    csi: str = _field("perfect-csir", _choice("perfect-csir", "estimated-csir", "csit-csir"))
    snr_db: tuple[float, ...] = _field((10.0, 20.0, 30.0), _snr_points)
    trials: int = _field(1000, _at_least(1))
    seed: int = _field(0, _at_least(0))

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, f.metadata["check"](f.name, getattr(self, f.name)))
        # the rules that tie two or more fields together
        if self.tx_window == "optimal" and self.csi != "csit-csir":
            raise ConfigurationError("the optimal TX window needs csi = csit-csir")
        if self.tx_window == "optimal" and self.rx_window != "rect":
            raise ConfigurationError(
                "the optimal TX window is designed for a rect RX window; use rx_window = rect")
        if self.tx_window == "dc" and self.rx_window == "dc":
            raise ConfigurationError(
                "shaping windows go on one side only; keep the other side rect")
        if self.detector == "spa" and self.rx_window != "rect":
            raise ConfigurationError(
                "the sum-product detector models white noise; use rx_window = rect")
        grid = self.grid()
        if self.k_max > (grid.N - 1) // 2:
            raise ConfigurationError(f"k_max must lie in [0, {(grid.N - 1) // 2}] for N={grid.N}")
        if self.l_max > grid.M - 1:
            raise ConfigurationError(f"l_max must lie in [0, {grid.M - 1}] for M={grid.M}")
        if not math.isfinite(self.implied_max_speed_kmh()):
            raise ConfigurationError("delta_f / fc is too large for a finite implied speed")
        if 16 * grid.size > _FRAME_BYTES:
            raise ConfigurationError(
                f"M = {self.M}, N = {self.N}: one complex frame would take "
                f"{16 * grid.size} bytes, past the {_FRAME_BYTES >> 20} MiB of memory "
                "allowed for a frame")
        chunk = min(_chunk_size(grid, _LEAST_CHUNK_BYTES), len(self.snr_db) * self.trials)
        fits = ch_mod.paths_that_fit(grid, chunk, _PATH_BYTES, self.l_max + 1)
        if self.paths > fits:
            raise ConfigurationError(
                f"paths = {self.paths}: the channel draws and phases of one {chunk}-frame "
                f"chunk would not fit in {_PATH_BYTES >> 20} MiB of memory; at most {fits} "
                "paths do")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        unknown = sorted(set(mapping) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        # each field's check parses its text
        return cls(**mapping)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        mapping: dict[str, str] = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        for line_no, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in mapping:
                raise ConfigurationError(f"{path}:{line_no}: duplicate key {key!r}")
            mapping[key] = value
        return cls.from_mapping(mapping)

    # -- derived views -----------------------------------------------------

    def grid(self) -> FrameGrid:
        return FrameGrid(M=self.M, N=self.N, delta_f=self.delta_f, fc=self.fc)

    def spa_tap_count(self) -> int:
        return self.spa_taps if self.spa_taps > 0 else 3 * self.paths - 1

    def canonical_text(self) -> str:
        names = _HASHED_ALWAYS + tuple(
            f.name for f in dataclasses.fields(self)
            if f.name not in _HASHED_ALWAYS_SET and getattr(self, f.name) != f.default)
        items = []
        for name in names:
            value = getattr(self, name)
            if name == "snr_db":
                value = ",".join(f"{v:.10g}" for v in value)
            items.append(f"{name}={value}")
        return "\n".join(items)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]

    def metadata(self) -> dict:
        meta = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        meta["snr_db"] = list(self.snr_db)
        meta["config_hash"] = self.config_hash()
        meta["implied_max_speed_kmh"] = self.implied_max_speed_kmh()
        return meta

    def implied_max_speed_kmh(self) -> float:
        # the grid parameters decide the speed this setup actually supports
        return 3.6 * self.k_max * self.grid().speed_resolution


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    config_hash: str
    snr_db: float
    metric: str
    value: float
    ci_lo: float
    ci_hi: float
    trials: int


CSV_HEADER = "experiment,config_hash,snr_db,metric,value,ci_lo,ci_hi,trials"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.experiment},{r.config_hash},{_fmt(r.snr_db)},{r.metric},"
            f"{_fmt(r.value)},{_fmt(r.ci_lo)},{_fmt(r.ci_hi)},{r.trials}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ResultRow]) -> str:
    return json.dumps([dataclasses.asdict(r) for r in rows], indent=2) + "\n"


def write_metadata(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.metadata(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _shaping_window(config: ExperimentConfig) -> str:
    """The window kind of a ce-mse link: whichever side is not rect."""
    return config.tx_window if config.tx_window != "rect" else config.rx_window


def ce_rows_csv(rows: list[ResultRow], config: ExperimentConfig) -> str:
    """Compact channel-estimation summary, one line per SNR point in config order."""
    measured = [r for r in rows if r.metric == "ce_mse"]
    predicted = [r.value for r in rows if r.metric == "ce_mse_predicted"]
    window = _shaping_window(config)
    lines = ["snr_db,pilot_dbw,window,khat,mse_measured,mse_predicted"]
    for row, mse_predicted in zip(measured, predicted):
        lines.append(
            f"{_fmt(row.snr_db)},{_fmt(config.pilot_power_dbw)},{window},{config.k_hat},"
            f"{_fmt(row.value)},{_fmt(mse_predicted)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def _db(x: float) -> float:
    return 10.0 * math.log10(max(x, 1e-300))


# Standard normal quantile of the two-sided 95% intervals.
_Z = 1.96


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    z = _Z
    if trials < 1:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - spread, 0.0), min(center + spread, 1.0)


def mean_interval(samples: np.ndarray) -> tuple[float, float, float]:
    """Sample mean with a normal-approximation 95% interval."""
    samples = np.asarray(samples, dtype=float)
    mean = float(samples.mean())
    if samples.size < 2:
        return mean, mean, mean
    half = _Z * float(samples.std(ddof=1)) / math.sqrt(samples.size)
    return mean, mean - half, mean + half


# ---------------------------------------------------------------------------
# window construction per config
# ---------------------------------------------------------------------------

def build_windows(config: ExperimentConfig, grid: FrameGrid) -> win_mod.WindowPair:
    """Window pair for non-adaptive (rect/dc) selections."""
    if config.tx_window == "optimal":
        raise ValueError("the optimal TX window is built per channel realization")
    tx_dop = rx_dop = None
    if config.tx_window == "dc":
        tx_dop = win_mod.dc_window(grid.N, config.dc_sl_db).coeffs
    if config.rx_window == "dc":
        rx_dop = win_mod.dc_window(grid.N, config.dc_sl_db).coeffs
    return win_mod.WindowPair.separable(grid, tx_doppler=tx_dop, rx_doppler=rx_dop)


def noise_power(snr_db: float) -> float:
    """Noise power N0 = 10^(-SNR/10) at unit signal power."""
    return 10.0 ** (-snr_db / 10.0)


def _seed_words(value: int) -> list[int]:
    """The 32-bit little-endian words of a nonnegative integer, at least
    one: the words numpy's ``SeedSequence`` makes of a Python int."""
    if value < 0:
        raise ValueError(f"seeds and indices must be nonnegative, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


# SeedSequence's mixing of its entropy words into a pool of _POOL words, all
# mod 2**32.  Its j-th hashmix of a word xors in INIT_A * MULT_A**j,
# multiplies by INIT_A * MULT_A**(j + 1) and xor-shifts by 16; mix(x, y) is
# MIX_L x - MIX_R y, xor-shifted by 16.  Pool word i starts as the hashmix
# of entropy word i (of 0 past the entropy); then each pool word, in turn,
# is hashmixed into every other by mix, and each entropy word past the pool
# into every pool word.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = (np.array([m], dtype=np.uint32) for m in (0xCA01F9DD, 0x4973F715))
_POOL = 4
_XSHIFT = np.uint32(16)

# SeedSequence.generate_state's hash of the entropy pool: output word i takes
# pool word i mod 4, xors in INIT_B * MULT_B**i, multiplies by INIT_B *
# MULT_B**(i + 1) and xor-shifts by 16, all mod 2**32.  PCG64 seeds from
# generate_state(4, uint64), 8 such words read as little-endian pairs.
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_STATE_WORDS = 8
_HASH = np.array([_INIT_B * _MULT_B**i % 2**32 for i in range(_STATE_WORDS + 1)],
                 dtype=np.uint32)

# A chunk of at least this many cells mixes its pools as one array
# (_mixed_pools), a smaller one cell by cell through SeedSequence.  Measured
# for all of _trial_rng (best of 7, 2-core AVX-512 host, numpy 2.4): the
# array pass costs about 25 us more on a 4-cell chunk (51 against 27 us),
# draws level at 12-14 cells, and takes 70 against 81 us at 16 cells and 127
# against 247 us on a 54-cell chunk.  Sum-product chunks of 15 cells and the
# 4-cell MMSE chunks keep the loop.
_POOL_HASH_CELLS = 16


@functools.cache
def _mix_constants(width: int) -> np.ndarray:
    """The hashmix constants of ``_mixed_pools`` for ``width`` entropy
    words, one (xor, multiplier) pair of (_POOL, 1) columns per round: the
    first round fills the pool, round 1 + i mixes in word i (a pool word
    for i < _POOL, whose own row is left as it was)."""
    table = np.zeros((1 + max(width, _POOL), 2, _POOL, 1), dtype=np.uint32)
    calls = [(0, i) for i in range(_POOL)]
    calls += [(1 + src, dst) for src in range(max(width, _POOL)) for dst in range(_POOL)
              if dst != src]
    for j, (round_, row) in enumerate(calls):
        table[round_, :, row] = [[_INIT_A * _MULT_A**j % 2**32],
                                 [_INIT_A * _MULT_A**(j + 1) % 2**32]]
    # every call of one width shares the table
    table.flags.writeable = False
    return table


def _mixed_pools(entropy: np.ndarray) -> np.ndarray:
    """The entropy pools of (width, B) uint32 ``entropy``, one cell per
    column, as a (_POOL, B) array: column b is ``SeedSequence(entropy[:,
    b]).pool``.  Each step of SeedSequence's mixing runs once for all
    columns, and the three updates of one pool word's round as one block."""
    width, cells = entropy.shape
    constants = _mix_constants(width)
    pool = np.zeros((_POOL, cells), dtype=np.uint32)
    pool[:min(width, _POOL)] = entropy[:_POOL]
    mixed, shifted = np.empty_like(pool), np.empty_like(pool)

    def hashmix(words: np.ndarray, round_: int, out: np.ndarray) -> None:
        np.bitwise_xor(words, constants[round_, 0], out=out)
        out *= constants[round_, 1]
        out ^= np.right_shift(out, _XSHIFT, out=shifted)

    hashmix(pool, 0, pool)
    for src in range(max(width, _POOL)):
        word = pool[src].copy() if src < _POOL else entropy[src]
        hashmix(word, 1 + src, mixed)
        # mix(pool, mixed)
        mixed *= _MIX_R
        np.subtract(np.multiply(pool, _MIX_L, out=shifted), mixed, out=pool)
        pool ^= np.right_shift(pool, _XSHIFT, out=shifted)
        if src < _POOL:
            # a pool word's round leaves that word as it was
            pool[src] = word
    return pool


class _SeedState(ISeedSequence):
    """The state words a ``SeedSequence`` would generate for ``PCG64``,
    computed beforehand: ``PCG64(_SeedState(words))`` is seeded as
    ``PCG64`` of that ``SeedSequence``."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (_STATE_WORDS // 2, np.uint64):
            raise ValueError(f"holds 4 uint64 words, not {n_words} of {dtype}")
        return self.words


def _one_word_entropy(seed: list[int], cells: list[tuple[int, int]]) -> np.ndarray | None:
    """The entropy words of every cell, the seed's words and then its SNR
    and trial index, as a (width, B) uint32 array; None when an index is
    negative or takes more than one 32-bit word."""
    try:
        index = np.array(cells, dtype=np.int64).T
    except OverflowError:
        return None
    if index.min() < 0 or index.max() >= 2**32:
        return None
    entropy = np.empty((len(seed) + 2, len(cells)), dtype=np.uint32)
    entropy[:len(seed)] = np.array(seed, dtype=np.uint32)[:, None]
    entropy[len(seed):] = index
    return entropy


def _trial_rng(config: ExperimentConfig,
               cells: list[tuple[int, int]]) -> list[np.random.Generator]:
    """The PCG64 streams of a chunk's (snr index, trial) cells, in order.
    Each is seeded by the 32-bit words of the master seed, the SNR index
    and the trial index in that order.

    Those are the words numpy makes of the list ``[seed, snr_index,
    trial]``, so each stream is that of ``np.random.default_rng([seed,
    snr_index, trial])``.  A chunk of at least ``_POOL_HASH_CELLS`` cells
    whose indices are one word each mixes its cells' words into their
    entropy pools as one uint32 array (``_mixed_pools``); any other chunk
    mixes each cell's words, whatever their count, through its own
    ``SeedSequence``.  The pools of all cells then take
    ``generate_state``'s hash as one uint32 array, and each PCG64 is
    seeded from its row through ``_SeedState`` (which its ``seed_seq`` then
    is).  No stream holds a buffered 32-bit half.
    """
    seed = _seed_words(config.seed)
    entropy = _one_word_entropy(seed, cells) if len(cells) >= _POOL_HASH_CELLS else None
    if entropy is not None:
        pools = _mixed_pools(entropy).T
    else:
        pools = np.array([np.random.SeedSequence(np.array(
            seed + _seed_words(snr_index) + _seed_words(trial), dtype=np.uint32)).pool
            for snr_index, trial in cells])
    hashed = pools[:, np.arange(_STATE_WORDS) % pools.shape[1]] ^ _HASH[:-1]
    hashed *= _HASH[1:]
    hashed ^= hashed >> _XSHIFT
    # as generate_state reads uint32 pairs as uint64, on any host byte order
    words = hashed.astype("<u4", order="C").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedState(row))) for row in words]


# ---------------------------------------------------------------------------
# the link chain shared by every experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Link:
    """Per-config state of the link chain that every trial shares."""

    config: ExperimentConfig
    grid: FrameGrid
    constellation: Constellation
    windows: win_mod.WindowPair | None    # None: optimal TX window per realization
    layout: est_mod.PilotLayout | None    # None: full-data frames
    bits_per_frame: int


# The config fields of one call that its link does not read: every other
# field of the config's class, one added later included, is part of the
# link's cache key.
_PER_CALL_FIELDS = ("seed", "trials", "snr_db")
# Distinct links one process keeps: a sweep over one config needs one or two.
_LINK_CACHE_SIZE = 8


def _link(config: ExperimentConfig, pilot: bool) -> _Link:
    """The link of ``config``, with the pilot layout when ``pilot`` is set.

    A process builds each distinct link once (the DC window design, the
    pilot layout and the constellation) and shares it read-only with every
    later call whose fields differ at most in ``seed``, ``trials`` and
    ``snr_db``.  That saves a call's fixed cost in a process that makes many
    calls, as a benchmark loop, the test suite or a seed sweep through the
    API do; a single CLI run builds its link once either way.
    """
    names, values = _link_fields(type(config))
    return _Link(config, *_link_parts(type(config), tuple(zip(names, values(config))), pilot))


@functools.cache
def _link_fields(kind: type) -> tuple[tuple[str, ...], operator.attrgetter]:
    """The names of the fields of config class ``kind`` that its link
    reads, and a getter of their values."""
    names = tuple(f.name for f in dataclasses.fields(kind) if f.name not in _PER_CALL_FIELDS)
    return names, operator.attrgetter(*names)


@functools.lru_cache(maxsize=_LINK_CACHE_SIZE)
def _link_parts(kind: type, fields: tuple, pilot: bool) -> tuple:
    """The ``_Link`` fields after ``config``, built from the ``(name,
    value)`` pairs ``fields`` of a config of class ``kind``.

    A failed design raises on every call: the cache stores no exception.
    """
    # the link reads no per-call field, and one trial at one SNR point
    # passes validation whenever the caller's config does
    config = kind(**dict(fields), trials=1, snr_db=(0.0,))
    grid = config.grid()
    constellation = Constellation.by_name(config.constellation)
    windows = None if config.tx_window == "optimal" else build_windows(config, grid)
    layout = None
    n_data = grid.size
    if pilot:
        layout = est_mod.PilotLayout.centered(
            grid, config.k_max, config.l_max, config.k_hat, config.pilot_power_dbw
        )
        n_data = int(layout.data_mask.sum())
    # every call with these fields shares the arrays, so none may be written
    # in place (the constellation's and the layout's already are read-only)
    for array in () if windows is None else (windows.tx, windows.rx):
        array.flags.writeable = False
    return grid, constellation, windows, layout, n_data * constellation.bits_per_symbol


def _transmit(link: _Link, cells: list[tuple[int, int]], n0: np.ndarray):
    """A chunk of trials of the link up to the receiver: draw each trial's
    channel and bits, build the TX windows, map the bits' labels, embed the
    pilot and pass the frames through the windowed TF channel.

    ``cells`` lists the chunk's (snr index, trial) pairs and ``n0`` their
    noise powers.  Each trial keeps its own stream (``_trial_rng`` seeds
    the chunk's streams at once) and the draw order that fixes the output
    bytes: the channel (``sample_channel``), the data bits as one
    ``integers(0, 2, bits)`` call (``bounded_draws`` draws them for the
    whole chunk), then the noise.  Neither bounded draw reads a stream's
    state: the streams are fresh, and one array of flags carries the rows
    that the bin draw left to numpy's call on to the bit draw.  The pilot
    is embedded over the mapped frames in place.  The array work after the
    draws also runs once for the whole chunk (one ``sample_channel``,
    ``tf_channel`` and, for the optimal TX window, ``optimal_tx_window``
    call), and every frame of it is bit for bit the frame the trial would
    give on its own.

    Returns what the channel made: the sent labels and the RX-windowed TF
    grids r that ``transmit_frame`` would demodulate, one per frame stacked
    along a leading axis, the chunk's ``WindowPair`` (the link's, or one
    optimal pair per frame) and the TF channel gains H_tf of each frame.
    Every receiver takes r as it is; a caller that needs the windowed gains
    ``joint * H_tf``, whose DD response is the effective channel, forms them
    with ``windows.windowed(tf_gains)``.
    """
    config = link.config
    generators = _trial_rng(config, cells)
    # _trial_rng's streams are fresh PCG64 streams: none holds a buffered
    # half until a bounded draw falls back to numpy's call, which marks it
    buffered = np.zeros(len(generators), dtype=bool)
    channels = ch_mod.sample_channel(link.grid, config.paths, config.k_max, config.l_max,
                                     generators, buffered=buffered)
    # one expression, so that the bits are freed once their labels exist
    labels = link.constellation.bits_to_indices(ch_mod.bounded_draws(
        generators, np.full(link.bits_per_frame, 2), buffered=buffered).reshape(-1))
    labels = labels.reshape(len(cells), -1)
    tf_gains = ch_mod.tf_channel(channels)
    windows = link.windows if link.windows is not None else _optimal_windows(tf_gains, n0)
    mask = None if link.layout is None else link.layout.data_mask
    frames = map_symbols(labels, link.constellation, link.grid, mask=mask)
    if link.layout is not None:
        est_mod.embed_pilot(frames, link.layout, out=frames)
    r = ch_mod.transmit_frame(frames, tf_gains, windows, n0, generators, demodulate=False)
    return labels, r, windows, tf_gains


def _optimal_windows(tf_gains: np.ndarray, n0: np.ndarray) -> win_mod.WindowPair:
    """One optimal TX window per frame of the chunk's TF gains at noise
    powers ``n0``: the pair ``WindowPair.from_tx_grid`` makes of its
    ``tx_window``."""
    # |H|^2 / n0
    lam = np.true_divide(np.square(np.abs(tf_gains)), n0[:, None, None])
    try:
        allocation = win_mod.optimal_tx_window(lam)
    except ValueError as exc:
        raise NumericalFailure(f"optimal TX window: {exc}") from exc
    return win_mod.WindowPair.from_tx_grid(allocation.tx_window)


# Trials run in chunks whose (B, N, M) complex work arrays take about this
# many bytes: B = 54 on the 30x20 grid.  A chunk shares each numpy call's
# fixed cost among its frames (about 200 us a ce-mse chunk on 30x20, against
# 49 us a frame), and a warm chunk takes its arrays from heap pages that are
# already mapped (:func:`_keep_freed_heap`).
_CHUNK_BYTES = 512 * 1024
# A run whose paths' draws would not fit in _PATH_BYTES at the full chunk
# takes half chunks, down to frames of this many bytes, at which configs are
# checked.
_LEAST_CHUNK_BYTES = 128 * 1024


def _chunk_size(grid: FrameGrid, nbytes: int = _CHUNK_BYTES) -> int:
    """Frames of ``nbytes`` bytes on ``grid``: at least one."""
    return max(1, nbytes // (16 * grid.size))


def _run_chunk(config: ExperimentConfig) -> int:
    """Trials per chunk in a run of ``config``, at most the run's trials:
    the frames of ``_CHUNK_BYTES``, halved while the paths' draws and phases
    would not fit in ``_PATH_BYTES`` at that chunk, down to the frames of
    ``_LEAST_CHUNK_BYTES`` (the config was checked at that size).  On the
    30x20 grid that is 54 frames up to 1308 paths, 27 up to 2638 and 13 up
    to the config ceiling of 5502.

    A sum-product run takes the frames of ``_LEAST_CHUNK_BYTES``: its flood
    sweeps all frames of a chunk until the slowest one freezes, so a larger
    chunk costs it more per frame."""
    grid, total = config.grid(), len(config.snr_db) * config.trials
    least = min(_chunk_size(grid, _LEAST_CHUNK_BYTES), total)
    if config.detector == "spa":
        return least
    chunk = min(_chunk_size(grid), total)
    while chunk > least and (ch_mod.paths_that_fit(grid, chunk, _PATH_BYTES, config.l_max + 1)
                             < config.paths):
        chunk = max(least, chunk // 2)
    return chunk


# One complex (N, M) frame takes at most this many bytes, a million cells;
# a config with a larger grid is refused.  It leaves room under _PATH_BYTES
# for at least one path on any grid.
_FRAME_BYTES = 16 * 1024 * 1024

# One chunk's channel draws and phases (channel.paths_that_fit) take at most
# this many bytes, about 3000 paths on the 30x20 grid; a config with more
# paths is refused.
_PATH_BYTES = 64 * 1024 * 1024


@functools.cache
def _keep_freed_heap() -> None:
    """Make the C library keep the memory a chunk frees, once per process.

    glibc maps every allocation of 128 KiB or more on its own and unmaps it
    when freed, and trims a freed heap top of 128 KiB, so each chunk whose
    arrays pass that size faults their pages in anew.  Freeing one mapped
    16 MiB array invokes glibc's dynamic rule: allocations below 16 MiB then
    come from the heap, which keeps up to 32 MiB of freed memory, and a warm
    chunk reuses it.  glibc leaves the rule off in a process that has set
    its own thresholds (``mallopt``), and other C libraries need not follow
    it; this changes the allocator of the whole process, not only of
    otfswin.
    """
    np.empty(16 * 1024 * 1024, dtype=np.uint8)


def _sweep(config: ExperimentConfig, chunk):
    """Yield ``(snr index, values)`` for each run of one SNR point's cells
    in a chunk, in trial order, as the chunk finishes: it keeps no value.

    The cells run SNR-major, in chunks of at most ``_run_chunk`` cells that
    may span points: ``chunk(cells, n0)`` runs a list of (snr index, trial)
    cells at their noise powers ``n0`` and returns a ``(B,)`` array of values.
    """
    step = _run_chunk(config)
    # chunks of _LEAST_CHUNK_BYTES or more, and every sum-product flood,
    # pass glibc's 128 KiB mmap threshold; smaller ones stay below it
    if step >= _chunk_size(config.grid(), _LEAST_CHUNK_BYTES) or config.detector == "spa":
        _keep_freed_heap()
    trials = config.trials
    powers = np.array([noise_power(snr) for snr in config.snr_db])
    cells = ((snr_index, trial) for snr_index in range(len(powers)) for trial in range(trials))
    while batch := list(itertools.islice(cells, step)):
        values = chunk(batch, powers[[snr_index for snr_index, _ in batch]])
        # each run of one point's cells ends at that point's last trial
        for start in [0, *range(trials - batch[0][1], len(batch), trials)]:
            snr_index, trial = batch[start]
            yield snr_index, values[start:start + trials - trial]


# ---------------------------------------------------------------------------
# channel-estimation experiment
# ---------------------------------------------------------------------------

def run_ce_mse(config: ExperimentConfig) -> list[ResultRow]:
    """Measured CE error (summed over the pilot read window, at the received
    pilot scale) against the analytic floor, per SNR point.

    The error reads the true taps on delays 0 .. l_max only, the columns of
    the read window, so the truth's Doppler FFT runs on those columns alone.
    """
    if config.tx_window == "optimal":
        raise ConfigurationError(
            "ce-mse needs a fixed TX window (rect or dc); the optimal window "
            "assumes the transmitter already knows the channel"
        )
    link = _link(config, pilot=True)

    def chunk(cells: list[tuple[int, int]], n0: np.ndarray) -> np.ndarray:
        _, r, windows, tf_gains = _transmit(link, cells, n0)
        # the truth's work grid is freed before the estimate takes its own
        truth = ch_mod._dd_response(windows.windowed(tf_gains), config.l_max + 1)
        est = est_mod.estimate_channel(r, link.layout, n0)
        return est_mod.measured_ce_mse(truth, est, link.layout)

    return _ce_rows(config, _sweep(config, chunk))


def _ce_rows(config: ExperimentConfig, sweep) -> list[ResultRow]:
    """The ce-mse rows of a sweep's ``(snr index, squared errors)`` pieces."""
    sl_w = win_mod.nominal_sidelobe_level(_shaping_window(config), config.N, config.dc_sl_db)
    predicted = est_mod.predicted_mse_floor(config.N, config.k_max, config.l_max, config.k_hat,
                                            sl_w)
    tag = config.config_hash()
    rows: list[ResultRow] = []
    for snr_index, pieces in itertools.groupby(sweep, key=operator.itemgetter(0)):
        snr = config.snr_db[snr_index]
        mean, lo, hi = mean_interval(np.concatenate([sse for _, sse in pieces]))
        rows.append(ResultRow("ce-mse", tag, snr, "ce_mse", mean, lo, hi, config.trials))
        rows.append(ResultRow("ce-mse", tag, snr, "ce_mse_db",
                              _db(mean), _db(lo), _db(hi), config.trials))
        rows.append(ResultRow("ce-mse", tag, snr, "ce_mse_predicted",
                              predicted, predicted, predicted, config.trials))
        rows.append(ResultRow("ce-mse", tag, snr, "ce_mse_predicted_db",
                              _db(predicted), _db(predicted), _db(predicted), config.trials))
    return rows


# ---------------------------------------------------------------------------
# frame-error-rate experiment
# ---------------------------------------------------------------------------

def _detect_frames(
    link: _Link,
    r: np.ndarray,
    rx_window: np.ndarray,
    n0: float | np.ndarray,
    gains: np.ndarray | None,
) -> np.ndarray:
    """The configured detector's hard labels of the data cells, one row per
    frame, of a [B, N, M] stack of RX-windowed TF grids r from
    :func:`_transmit` at noise power ``n0`` (one, or one per frame).

    ``rx_window`` is the chunk's RX window grid, one for all frames or one
    per frame.  ``gains`` is the stack of windowed TF gain grids the
    receiver knows, or ``None`` when it estimates the channel from the
    embedded pilot.  Each stage runs once for the stack: ``estimate_channel``
    reads the pilot window from r, :func:`_cancel_pilot` removes the pilot's
    response per TF bin and :func:`_detect` decides.
    """
    taps = None
    if gains is None:
        taps = est_mod.estimate_channel(r, link.layout, n0)
        r, gains = _cancel_pilot(link.layout, r, taps)
    return _detect(link, r, gains, taps, rx_window, n0)


def _cancel_pilot(layout: est_mod.PilotLayout, r: np.ndarray,
                  taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The TF grids r less the pilot's response to the estimated DD taps,
    r - g * ``pilot_tf``, and the estimate's TF gains g."""
    # the estimate's taps end at delay l_max
    gains = ch_mod.tf_gains_from_taps(taps, layout.l_max + 1)
    # the pilot's response, then r less it in its place: a subtraction
    # rounds alike in place
    cancelled = np.multiply(gains, layout.pilot_tf)
    return np.subtract(r, cancelled, out=cancelled), gains


def _detect(link: _Link, r: np.ndarray, gains: np.ndarray, taps: np.ndarray | None,
            rx_window: np.ndarray, n0: float | np.ndarray) -> np.ndarray:
    """The hard labels of the data cells (all cells without a layout), one
    row per frame in row-major cell order, of the pilot-cancelled TF grids r
    with TF gains ``gains``: LMMSE decides on r, SPA on sfft(r) with the DD
    taps ``taps`` (those of ``gains`` when ``None``).  An estimate reaches
    SPA as read: a round trip through its gains would turn its exact zeros
    outside the read window into rounding residue that ``largest_taps``
    selects."""
    layout, config, constellation = link.layout, link.config, link.constellation
    if config.detector == "mmse":
        return det_mod.tf_lmmse_detect(r, gains, rx_window, n0, constellation, layout).hard_indices
    taps = ch_mod._dd_response(gains) if taps is None else taps
    dd_channel = ch_mod.EffectiveDDChannel(
        taps=taps, truncation=ch_mod.largest_taps(taps, config.spa_tap_count()))
    return det_mod.spa_detect(
        sfft(r), dd_channel, n0, constellation, iters=config.spa_iters,
        damping=config.spa_damping, data_mask=None if layout is None else layout.data_mask,
    ).hard_indices


def run_fer(config: ExperimentConfig) -> list[ResultRow]:
    """Frame/bit error rates per SNR under the configured CSI mode.

    perfect-csir: full-data frames, detector sees the true effective channel.
    estimated-csir: embedded-pilot frames, detector sees the threshold
    estimate and the pilot is cancelled with it per TF bin.
    csit-csir: full-data frames, the TX window is rebuilt per realization
    from the TF gains (mercury/water filling) when tx_window = optimal.

    The MMSE detector models the noise after the RX window, n0 |v|^2 per TF
    bin, so it is colored in the DD domain for a shaping RX window; the
    sum-product detector models the noise as white at power N0, so shaping
    RX windows pair with MMSE, not SPA.  Frames are sent and detected a
    chunk at a time (:func:`_detect_frames`), from the RX-windowed TF grids
    the channel leaves, which SPA demodulates after any pilot cancellation.
    Only a known-CSI receiver gets the windowed gains ``joint * H_tf``; an
    estimated-CSIR chunk never forms them.  Each chunk's bit error counts
    are added to its points' totals as it finishes, so a run's memory does
    not grow with ``trials``.
    """
    link = _link(config, pilot=config.csi == "estimated-csir")
    if link.bits_per_frame == 0:
        raise ConfigurationError(
            f"the pilot guard covers the whole {config.N}x{config.M} frame: no data cells left")

    def chunk(cells: list[tuple[int, int]], n0: np.ndarray) -> np.ndarray:
        sent, r, windows, tf_gains = _transmit(link, cells, n0)
        gains = windows.windowed(tf_gains) if link.layout is None else None
        detected = _detect_frames(link, r, windows.rx, n0, gains)
        return link.constellation.popcount[sent ^ detected].sum(axis=1, dtype=np.int64)

    return _fer_rows(config, link, _sweep(config, chunk))


def _fer_rows(config: ExperimentConfig, link: _Link, sweep) -> list[ResultRow]:
    """The fer rows of a sweep's ``(snr index, bit error counts)`` pieces."""
    tag = config.config_hash()
    rows: list[ResultRow] = []
    frames = config.trials
    bits = frames * link.bits_per_frame
    counts = [[0, 0] for _ in config.snr_db]
    for snr_index, piece in sweep:
        # as Python ints, which a short piece sums faster than numpy
        bit_errors = piece.tolist()
        counts[snr_index][0] += sum(bit_errors)
        counts[snr_index][1] += len(bit_errors) - bit_errors.count(0)
    for snr, (errors, frame_errors) in zip(config.snr_db, counts):
        flo, fhi = wilson_interval(frame_errors, frames)
        blo, bhi = wilson_interval(errors, bits)
        rows.append(ResultRow("fer", tag, snr, "fer", frame_errors / frames, flo, fhi, frames))
        rows.append(ResultRow("fer", tag, snr, "ber", errors / bits, blo, bhi, frames))
    return rows
