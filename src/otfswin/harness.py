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
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import channel as ch_mod
from . import detection as det_mod
from . import estimation as est_mod
from . import windows as win_mod
from .errors import ConfigurationError, NumericalFailure
from .grid import Constellation, FrameGrid, map_symbols
# perfbench/run.py runs the self-check as harness.run_selfcheck
from .selfcheck import run_selfcheck

_WINDOW_KINDS_TX = ("rect", "dc", "optimal")
_WINDOW_KINDS_RX = ("rect", "dc")
_DETECTORS = ("mmse", "spa")
_CSI_MODES = ("perfect-csir", "estimated-csir", "csit-csir")


# Beyond a pilot-to-data amplitude ratio of 1/eps (or below eps), the pilot and
# the unit-power data cells cannot share one frame in double precision.
_MAX_PILOT_DB = 20.0 * math.log10(1.0 / sys.float_info.epsilon)


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; unknown keys are rejected on parse."""

    M: int = 30
    N: int = 20
    delta_f: float = 5e3
    fc: float = 3e9
    constellation: str = "qpsk"
    paths: int = 5
    k_max: int = 3
    l_max: int = 4
    k_hat: int = 1
    pilot_power_dbw: float = 30.0
    tx_window: str = "rect"
    rx_window: str = "rect"
    dc_sl_db: float = -40.0
    detector: str = "mmse"
    spa_taps: int = 0            # 0 means the 3P-1 default
    spa_iters: int = 20
    spa_damping: float = 0.5
    csi: str = "perfect-csir"
    snr_db: tuple[float, ...] = (10.0, 20.0, 30.0)
    trials: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.constellation.lower() not in ("bpsk", "qpsk"):
            raise ConfigurationError(f"unknown constellation {self.constellation!r}")
        if self.tx_window not in _WINDOW_KINDS_TX:
            raise ConfigurationError(f"tx_window must be one of {_WINDOW_KINDS_TX}")
        if self.rx_window not in _WINDOW_KINDS_RX:
            raise ConfigurationError(f"rx_window must be one of {_WINDOW_KINDS_RX}")
        if self.detector not in _DETECTORS:
            raise ConfigurationError(f"detector must be one of {_DETECTORS}")
        if self.csi not in _CSI_MODES:
            raise ConfigurationError(f"csi must be one of {_CSI_MODES}")
        if self.trials < 1:
            raise ConfigurationError("trials must be positive")
        if self.tx_window == "optimal" and self.csi != "csit-csir":
            raise ConfigurationError("the optimal TX window needs csi = csit-csir")
        if self.tx_window == "optimal" and self.rx_window != "rect":
            raise ConfigurationError(
                "the optimal TX window is designed for a rect RX window; use rx_window = rect"
            )
        if self.tx_window == "dc" and self.rx_window == "dc":
            raise ConfigurationError(
                "shaping windows go on one side only; keep the other side rect"
            )
        try:
            grid = FrameGrid(M=self.M, N=self.N, delta_f=self.delta_f, fc=self.fc)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if not 0 <= self.k_max <= (grid.N - 1) // 2:
            raise ConfigurationError(
                f"k_max must lie in [0, {(grid.N - 1) // 2}] for N={grid.N}"
            )
        if not 0 <= self.l_max <= grid.M - 1:
            raise ConfigurationError(f"l_max must lie in [0, {grid.M - 1}] for M={grid.M}")
        if self.paths < 1:
            raise ConfigurationError("paths must be positive")
        if self.seed < 0 or self.k_hat < 0:
            raise ConfigurationError("seed and k_hat must be nonnegative")
        if self.spa_taps < 0:
            raise ConfigurationError("spa_taps must be nonnegative (0 means 3*paths - 1)")
        if not math.isfinite(self.dc_sl_db):
            raise ConfigurationError(f"dc_sl_db must be finite: {self.dc_sl_db!r}")
        if not abs(self.pilot_power_dbw) <= _MAX_PILOT_DB:
            raise ConfigurationError(
                f"pilot_power_dbw = {self.pilot_power_dbw!r} lies outside "
                f"[-{_MAX_PILOT_DB:.1f}, {_MAX_PILOT_DB:.1f}] dB"
            )
        if not math.isfinite(self.implied_max_speed_kmh()):
            raise ConfigurationError("delta_f / fc is too large for a finite implied speed")
        if self.spa_iters < 1:
            raise ConfigurationError("spa_iters must be positive")
        if not 0.0 < self.spa_damping <= 1.0:
            raise ConfigurationError("spa_damping must lie in (0, 1]")
        snrs = self.snr_db
        if isinstance(snrs, str):
            snrs = [p for p in snrs.replace(",", " ").split() if p]
        try:
            snrs = tuple(float(s) for s in snrs)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad snr_db list: {self.snr_db!r}") from exc
        if not snrs:
            raise ConfigurationError("at least one SNR point is required")
        if not all(math.isfinite(v) for v in snrs):
            raise ConfigurationError(f"SNR points must be finite: {self.snr_db!r}")
        for v in snrs:
            try:
                n0 = noise_power(v)
            except OverflowError:
                n0 = math.inf
            if not sys.float_info.min <= n0 < math.inf:
                raise ConfigurationError(
                    f"SNR point {v:g} dB gives a noise power of {n0:g}, outside "
                    "the normal floating-point range"
                )
        if self.detector == "spa" and self.rx_window != "rect":
            raise ConfigurationError(
                "the sum-product detector models white noise; use rx_window = rect"
            )
        object.__setattr__(self, "snr_db", snrs)

    # -- construction ------------------------------------------------------

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = cls.field_names()
        unknown = sorted(set(mapping) - set(known))
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name not in mapping:
                continue
            raw = mapping[f.name]
            try:
                if f.name == "snr_db":
                    kwargs[f.name] = raw  # parsed and checked by __post_init__
                elif f.type in ("int", int):
                    kwargs[f.name] = int(raw)
                elif f.type in ("float", float):
                    kwargs[f.name] = float(raw)
                else:
                    kwargs[f.name] = str(raw).strip()
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad value for {f.name!r}: {raw!r}") from exc
        return cls(**kwargs)

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

    def constellation_obj(self) -> Constellation:
        return Constellation.by_name(self.constellation)

    def spa_tap_count(self) -> int:
        return self.spa_taps if self.spa_taps > 0 else 3 * self.paths - 1

    def canonical_text(self) -> str:
        items = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "snr_db":
                value = ",".join(f"{v:.10g}" for v in value)
            items.append(f"{f.name}={value}")
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


def ce_rows_csv(rows: list[ResultRow], config: ExperimentConfig) -> str:
    """Compact channel-estimation summary, one line per SNR point."""
    measured = {r.snr_db: r.value for r in rows if r.metric == "ce_mse"}
    predicted = {r.snr_db: r.value for r in rows if r.metric == "ce_mse_predicted"}
    window = config.tx_window if config.tx_window != "rect" else config.rx_window
    lines = ["snr_db,pilot_dbw,window,khat,mse_measured,mse_predicted"]
    for snr in sorted(measured):
        lines.append(
            f"{_fmt(snr)},{_fmt(config.pilot_power_dbw)},{window},{config.k_hat},"
            f"{_fmt(measured[snr])},{_fmt(predicted[snr])}"
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


def config_sidelobe_level(config: ExperimentConfig, grid: FrameGrid) -> float:
    """Nominal sidelobe level of the shaping window for the floor predictor."""
    if config.tx_window == "dc" or config.rx_window == "dc":
        return win_mod.nominal_sidelobe_level("dc", grid.N, config.dc_sl_db)
    return win_mod.nominal_sidelobe_level("rect", grid.N)


def noise_power(snr_db: float) -> float:
    """Noise power N0 = 10^(-SNR/10) at unit signal power."""
    return 10.0 ** (-snr_db / 10.0)


def _trial_rng(config: ExperimentConfig, snr_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, snr_index, trial])


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


def _link(config: ExperimentConfig, pilot: bool) -> _Link:
    grid = config.grid()
    constellation = config.constellation_obj()
    windows = None if config.tx_window == "optimal" else build_windows(config, grid)
    layout = None
    n_data = grid.size
    if pilot:
        layout = est_mod.PilotLayout.centered(
            grid, config.k_max, config.l_max, config.k_hat, config.pilot_power_dbw
        )
        n_data = int(layout.data_mask.sum())
    return _Link(config, grid, constellation, windows, layout,
                 n_data * constellation.bits_per_symbol)


def _transmit(link: _Link, cells: list[tuple[int, int]], n0: np.ndarray):
    """A chunk of trials of the link up to the receiver: draw each trial's
    channel and bits, build the TX windows, map the bits, embed the pilot and
    pass the frames through the windowed TF channel.

    ``cells`` lists the chunk's (snr index, trial) pairs and ``n0`` their
    noise powers.  Each trial keeps its own stream ``_trial_rng(config,
    snr_index, t)`` and the draw order (channel, bits, noise) that fixes the
    output bytes; only the array work after the draws runs once for the
    whole chunk (one ``sample_channel``, ``tf_channel`` and, for the optimal
    TX window, ``optimal_tx_window`` call), and every frame of it is bit for
    bit the frame the trial would give on its own.

    Returns per frame, stacked along a leading axis: the data bits, the
    received DD frame, the RX window and the windowed TF gains
    ``joint * H_tf``, whose DD response is the effective channel.
    """
    config = link.config
    generators = [_trial_rng(config, snr_index, t) for snr_index, t in cells]
    channels = ch_mod.sample_channel(link.grid, config.paths, config.k_max, config.l_max,
                                     generators)
    bits = np.array([rng.integers(0, 2, link.bits_per_frame) for rng in generators])
    tf_gains = ch_mod.tf_channel(channels)
    windows = link.windows
    if windows is None:
        try:
            allocation = win_mod.optimal_tx_window(np.abs(tf_gains) ** 2 / n0[:, None, None])
        except ValueError as exc:
            raise NumericalFailure(f"optimal TX window: {exc}") from exc
        windows = win_mod.WindowPair.from_tx_grid(allocation.tx_window)
    if link.layout is None:
        frames = map_symbols(bits, link.constellation, link.grid)
    else:
        frames = map_symbols(bits, link.constellation, link.grid, mask=link.layout.data_mask)
        frames = est_mod.embed_pilot(frames, link.layout)
    y = ch_mod.transmit_frame(frames, tf_gains, windows, n0, generators)
    return bits, y, np.broadcast_to(windows.rx, y.shape), windows.joint * tf_gains


# Trials run in chunks whose (B, N, M) complex work arrays take about this
# many bytes: B = 13 on the 30x20 grid.  Past a few frames per chunk the
# numpy call overhead is already shared, and larger chunks only add memory.
_CHUNK_BYTES = 128 * 1024


def _chunk_size(grid: FrameGrid) -> int:
    """Trials per chunk on ``grid``: at least one."""
    return max(1, _CHUNK_BYTES // (16 * grid.size))


def _sweep(config: ExperimentConfig, chunk):
    """Yield each SNR point with the per-trial values of every trial, in
    trial order.

    The (snr index, trial) cells run in SNR-major order, in chunks of at
    most ``_chunk_size`` cells that may span SNR points: ``chunk(cells, n0)``
    runs a list of (snr index, trial) pairs at their noise powers ``n0``, one
    per cell, and returns one value per cell.  A point is yielded as soon as
    its last trial has run.
    """
    step = _chunk_size(config.grid())
    snrs, trials = config.snr_db, config.trials
    powers = np.array([noise_power(snr) for snr in snrs])
    cells = itertools.product(range(len(snrs)), range(trials))
    values: list = []
    point = 0
    while batch := list(itertools.islice(cells, step)):
        values.extend(chunk(batch, powers[[snr_index for snr_index, _ in batch]]))
        while len(values) >= trials:
            yield snrs[point], values[:trials]
            del values[:trials]
            point += 1


# ---------------------------------------------------------------------------
# channel-estimation experiment
# ---------------------------------------------------------------------------

def run_ce_mse(config: ExperimentConfig) -> list[ResultRow]:
    """Measured CE error (summed over the pilot read window, at the received
    pilot scale) against the analytic floor, per SNR point."""
    if config.tx_window == "optimal":
        raise ConfigurationError(
            "ce-mse needs a fixed TX window (rect or dc); the optimal window "
            "assumes the transmitter already knows the channel"
        )
    link = _link(config, pilot=True)

    def chunk(cells: list[tuple[int, int]], n0: np.ndarray) -> np.ndarray:
        _, y, _, gains = _transmit(link, cells, n0)
        est = est_mod.estimate_channel(y, link.layout, n0)
        return est_mod.measured_ce_mse(ch_mod._dd_response(gains), est, link.layout)

    return _ce_rows(config, link, _sweep(config, chunk))


def _ce_rows(config: ExperimentConfig, link: _Link, sweep) -> list[ResultRow]:
    """The ce-mse rows of ``(snr, per-trial squared errors)`` pairs."""
    predicted = est_mod.predicted_mse_floor(link.layout, config_sidelobe_level(config, link.grid))
    tag = config.config_hash()
    rows: list[ResultRow] = []
    for snr, sse in sweep:
        mean, lo, hi = mean_interval(np.array(sse))
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
    y: np.ndarray,
    rx_window: np.ndarray,
    n0: float | np.ndarray,
    gains: np.ndarray | None,
) -> np.ndarray:
    """Run the configured detector on a [B, N, M] stack of received frames
    at noise power ``n0`` (one for all frames, or one per frame) and return
    the hard bits of their data cells, one row per frame.

    ``gains`` is the stack of windowed TF gain grids the receiver knows, or
    ``None`` when it estimates the channel from the embedded pilot as a DD
    tap grid.  The pilot cancellation and SPA use the taps, the LMMSE
    detector the gains; either comes from the other by one 2-D FFT.  The
    pilot is estimated and cancelled, and either detector runs, once for
    the stack.
    """
    layout, taps = link.layout, None
    if gains is None:
        taps = est_mod.estimate_channel(y, layout, n0)
        # remove the pilot's estimated contribution before detection
        shift = np.roll(taps, (layout.pilot_doppler, layout.pilot_delay), axis=(1, 2))
        y = y - layout.pilot_value * shift

    config, constellation = link.config, link.constellation
    if config.detector == "mmse":
        if gains is None:
            gains = ch_mod.tf_gains_from_taps(taps)
        idx = det_mod.tf_lmmse_detect(y, gains, rx_window, n0, constellation,
                                      layout).hard_indices
    else:
        if taps is None:
            taps = ch_mod._dd_response(gains)
        count = config.spa_tap_count()
        channels = [ch_mod.EffectiveDDChannel(taps=frame_taps,
                                              truncation=ch_mod.largest_taps(frame_taps, count))
                    for frame_taps in taps]
        data_mask = None if layout is None else layout.data_mask
        idx = det_mod.spa_detect(
            y, channels, n0, constellation,
            iters=config.spa_iters, damping=config.spa_damping, data_mask=data_mask,
        ).hard_indices
        if layout is not None:
            idx = idx.reshape((-1,) + link.grid.shape)[:, data_mask]
    return constellation.indices_to_bits(idx.reshape(-1)).reshape(len(idx), -1)


def run_fer(config: ExperimentConfig) -> list[ResultRow]:
    """Frame/bit error rates per SNR under the configured CSI mode.

    perfect-csir: full-data frames, detector sees the true effective channel.
    estimated-csir: embedded-pilot frames, detector sees the threshold
    estimate and the pilot is cancelled with it.
    csit-csir: full-data frames, the TX window is rebuilt per realization
    from the TF gains (mercury/water filling) when tx_window = optimal.

    The MMSE detector models the noise after the RX window, n0 |v|^2 per TF
    bin, so it is colored in the DD domain for a shaping RX window; the
    sum-product detector models the noise as white at power N0, so shaping
    RX windows pair with MMSE, not SPA.  Frames are sent and detected a
    chunk at a time (:func:`_detect_frames`); each trial keeps only its
    frame's bit error count, so memory does not grow with the trial count.
    """
    link = _link(config, pilot=config.csi == "estimated-csir")
    if link.bits_per_frame == 0:
        raise ConfigurationError(
            f"the pilot guard covers the whole {config.N}x{config.M} frame: no data cells left")

    def chunk(cells: list[tuple[int, int]], n0: np.ndarray) -> list[int]:
        bits, y, rx_window, gains = _transmit(link, cells, n0)
        known = gains if link.layout is None else None
        detected = _detect_frames(link, y, rx_window, n0, known)
        return np.count_nonzero(detected != bits, axis=1).tolist()

    return _fer_rows(config, link, _sweep(config, chunk))


def _fer_rows(config: ExperimentConfig, link: _Link, sweep) -> list[ResultRow]:
    """The fer rows of ``(snr, per-trial bit error counts)`` pairs."""
    tag = config.config_hash()
    rows: list[ResultRow] = []
    frames = config.trials
    bits = frames * link.bits_per_frame
    for snr, bit_errors in sweep:
        errors, frame_errors = sum(bit_errors), sum(e > 0 for e in bit_errors)
        flo, fhi = wilson_interval(frame_errors, frames)
        blo, bhi = wilson_interval(errors, bits)
        rows.append(ResultRow("fer", tag, snr, "fer", frame_errors / frames, flo, fhi, frames))
        rows.append(ResultRow("fer", tag, snr, "ber", errors / bits, blo, bhi, frames))
    return rows
