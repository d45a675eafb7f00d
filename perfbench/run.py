"""Monte Carlo trial-throughput benchmark for otfswin.

Run from the repository root:

    python3 perfbench/run.py --workload ce-fig6 --seed 0 --seconds 16 --trace 0

The load is a closed loop from one process: one caller, ``threads=1``, and
each harness call starts after the previous one returns.  BLAS keeps its
default thread count, which is recorded in the environment block.

Every run makes one warm-up call (the workload config with one trial per SNR
point), then a fixed number of timed harness calls: as many as fill
``--seconds`` seconds at the seed commit, so the inputs depend on ``--seed``
and ``--seconds`` only, never on the program's speed.  Call i runs with
``ExperimentConfig.seed = call_seed(--seed, i)``, so a run averages over many
channel draws.  Each call's rows are checked; a call that raises or whose rows
fail the check counts as failed.  ``--trace 0`` reports the end-to-end
metrics, with ``trials_per_s`` scaled to a nominal host speed
(``reference_seconds``); ``--trace 1`` makes the same number of calls as
pairs, an untraced call and then the same call with every layer wrapped, and
reports the per-layer metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The spans of a traced run
and the full result go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

from tracing import Tracer

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

_GRID_30X20 = dict(M=30, N=20, constellation="qpsk", paths=5, k_max=3, l_max=4,
                   k_hat=1, pilot_power_dbw=30.0)

# name -> (harness entry point, config fields, seconds per call, host-speed
# reference, see ``reference_seconds``).  Trial counts make one call last
# about 0.2-0.3 s, so that a run makes 50-80 calls and the median call misses
# the short stretches in which a shared machine takes the CPU away (a few
# calls in ten), which a mean or a few long calls would average in.  The
# seconds per call are the seed commit's medians on the machine in
# BASELINE.md; they fix how many calls a run makes (see ``calls_per_run``)
# and stay fixed when the program gets faster or slower.
WORKLOADS = {
    # The paper's Fig-6 estimation floor; channel and harness overhead, no
    # detector.  The floor check pools the 50-dB point over all calls of a
    # run, thousands of trials (acceptance criterion 1 uses 1000).
    "ce-fig6": ("run_ce_mse", dict(
        _GRID_30X20, tx_window="rect", rx_window="rect",
        snr_db=(20.0, 35.0, 50.0), trials=50), 0.19, "interp"),
    # Pilot-masked dense LMMSE under colored noise (DC RX window).
    "fer-mmse-pilot-dc": ("run_fer", dict(
        _GRID_30X20, csi="estimated-csir", tx_window="rect", rx_window="dc",
        detector="mmse", snr_db=(10.0, 20.0), trials=2), 0.29, "blas"),
    # Full-data LMMSE with white noise plus the per-trial optimal TX window.
    # rx_window stays rect: WindowPair.from_tx_grid forces a rect RX window.
    "fer-mmse-csit": ("run_fer", dict(
        _GRID_30X20, csi="csit-csir", tx_window="optimal", rx_window="rect",
        detector="mmse", snr_db=(10.0, 20.0), trials=2), 0.26, "blas"),
    # Acceptance 9b's sum-product config; SPA iterations depend on SNR.
    "fer-spa-9b": ("run_fer", dict(
        M=8, N=16, constellation="bpsk", paths=2, k_max=2, l_max=2, k_hat=1,
        pilot_power_dbw=30.0, tx_window="dc", detector="spa",
        csi="estimated-csir", snr_db=(15.0, 25.0, 40.0), trials=5), 0.18, "interp"),
}

SETUP_PROBES = 11
# Seconds that each ``reference_seconds`` kind takes, timed on its own, on
# the machine in BASELINE.md at its usual speed.  ``trials_per_s`` is
# reported at this host speed.
REF_NOMINAL_S = {"interp": 0.017, "blas": 0.015}
# Timed calls stop this long after the process started, so that a run on a
# much slower machine still ends in time; the report then says so.
CALL_DEADLINE_S = 150.0
CE_FLOOR_SNR_DB = 50.0
CE_FLOOR_BAND_DB = 1.5


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import otfswin from this checkout's ``src`` and nowhere else."""
    if not (SRC / "otfswin" / "__init__.py").is_file():
        raise BenchmarkError(f"no otfswin package under {SRC}")
    sys.path.insert(0, str(SRC))
    import otfswin
    import otfswin.harness

    if Path(otfswin.__file__).resolve().parent != (SRC / "otfswin").resolve():
        raise BenchmarkError(f"otfswin was imported from {otfswin.__file__}, not {SRC}")
    return otfswin


def make_config(package, workload: str, seed: int, trials: int | None = None):
    fields = WORKLOADS[workload][1]
    fields = dict(fields, seed=seed)
    if trials is not None:
        fields["trials"] = trials
    return package.harness.ExperimentConfig(**fields)


def entry_point(package, workload: str):
    return getattr(package.harness, WORKLOADS[workload][0])


def warm_up(package, workload: str, seed: int) -> tuple[list[str], bool]:
    """One call with one trial per SNR point, so lazy set-up (window design,
    FFT and BLAS start-up) is done before timing.  Returns the warnings it
    raised, which are recorded, not silenced, and whether it raised."""
    config = make_config(package, workload, seed, trials=1)
    raised = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            entry_point(package, workload)(config)
        except Exception:  # counted as a failed call by the caller
            traceback.print_exc()
            raised = True
    lines = [f"{w.category.__name__}: {w.message} ({Path(w.filename).name}:{w.lineno})"
             for w in caught]
    return lines, raised


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

# Interval ends are compared with a tolerance of a few float64 ulps.  The
# Wilson lower end of a zero rate is 0 in exact arithmetic but can round to
# about 5e-20; such rows are counted in ``ci_rounding_rows``, not failed.
CI_ULPS = 8 * np.finfo(float).eps


def check_rows(rows, config, workload: str) -> tuple[list[str], int, tuple | None]:
    """Problems with one call's rows (empty when they are correct), the
    number of rows whose interval misses the value by rounding only, and on
    ``ce-fig6`` the measured and predicted ``ce_mse`` at the floor SNR, which
    ``floor_gap_db`` pools over the run's calls."""
    problems = []
    floor = None
    rounding = 0
    for r in rows:
        values = (r.snr_db, r.value, r.ci_lo, r.ci_hi)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite row {r}")
            continue
        if not r.ci_lo <= r.value <= r.ci_hi:
            tol = CI_ULPS * max(1.0, abs(r.value))
            if r.ci_lo - tol <= r.value <= r.ci_hi + tol:
                rounding += 1
            else:
                problems.append(f"value outside its interval {r}")
        if r.metric in ("fer", "ber") and not all(0.0 <= v <= 1.0 for v in values[1:]):
            problems.append(f"rate outside [0, 1] {r}")
        if r.trials != config.trials:
            problems.append(f"trials {r.trials} != {config.trials} in {r}")
    expected = len(config.snr_db) * (4 if WORKLOADS[workload][0] == "run_ce_mse" else 2)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    if workload == "ce-fig6":
        at = {r.metric: r.value for r in rows if r.snr_db == CE_FLOOR_SNR_DB}
        measured = at.get("ce_mse", math.nan)
        predicted = at.get("ce_mse_predicted", math.nan)
        if measured > 0.0 and predicted > 0.0:
            floor = (measured, predicted)
        else:
            problems.append(f"no positive ce_mse and ce_mse_predicted rows at "
                            f"{CE_FLOOR_SNR_DB:g} dB")
    return problems, rounding, floor


def floor_gap_db(floors: list[tuple]) -> float | None:
    """Pooled measured ``ce_mse`` at the floor SNR over the predicted floor,
    in dB.  Every call has the same trial count, so the mean of the calls'
    means is the mean over all their trials."""
    if not floors:
        return None
    measured = statistics.fmean(m for m, _ in floors)
    predicted = statistics.fmean(p for _, p in floors)
    return 10.0 * math.log10(measured / predicted)


def reference_digest(workload: str, seed: int) -> str | None:
    path = BENCH_DIR / "reference_digests.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def calls_per_run(workload: str, seconds: float) -> int:
    """Timed calls of a run: as many as fill ``seconds`` at the seed commit,
    each with the reference timed before it."""
    _, _, call_s, kind = WORKLOADS[workload]
    return max(1, round(seconds / (call_s + REF_NOMINAL_S[kind])))


def call_seed(seed: int, index: int) -> int:
    """``ExperimentConfig.seed`` of a run's ``index``-th call: every call
    simulates other frames, and ``--seed`` fixes them all."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def rows_digest(package, rows) -> str:
    return hashlib.sha256(package.harness.rows_to_csv(rows).encode()).hexdigest()


class CallLog:
    """Outcome of the harness calls of one run."""

    def __init__(self, package, workload: str, seed: int) -> None:
        self.package, self.workload, self.seed = package, workload, seed
        self.attempted = 0
        self.failed = 0
        self.digests: list[str | None] = []  # rows of each index's first call
        self.problems: list[str] = []
        self.ci_rounding_rows = 0          # in the last checked call
        self.floors: list[tuple] = []      # ce-fig6 floor rows of each index
        self.cut = False                   # timed calls stopped at the deadline

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def warm_up(self) -> list[str]:
        """The warm-up call, counted as an attempted call; its warnings."""
        lines, raised = warm_up(self.package, self.workload, self.seed)
        self.attempted += 1
        if raised:
            self.fail(["warm-up call raised"])
        return lines

    def run(self, fn, index: int) -> float | None:
        """Time call ``index`` of ``fn(config)`` and check its rows; return its
        wall time, or None if it failed.  A call that repeats an earlier index
        must reproduce its rows exactly."""
        config = make_config(self.package, self.workload, call_seed(self.seed, index))
        self.attempted += 1
        digest = None
        start = time.perf_counter()
        try:
            rows = fn(config)
            elapsed = time.perf_counter() - start
            problems, self.ci_rounding_rows, floor = check_rows(rows, config, self.workload)
            digest = rows_digest(self.package, rows)
            if floor is not None and index == len(self.digests):
                self.floors.append(floor)
        except Exception:  # a failing call is counted, and the loop goes on
            traceback.print_exc()
            problems = ["call raised"]
        if index == len(self.digests):
            self.digests.append(digest)
        elif digest != self.digests[index]:
            problems.append(f"call {index}: traced rows differ from untraced rows")
        if problems:
            self.fail(problems)
            return None
        return elapsed

    def past_deadline(self) -> bool:
        self.cut = time.perf_counter() - PROCESS_START > CALL_DEADLINE_S
        return self.cut


_REF_RNG = np.random.default_rng(0)
_REF_GRID = _REF_RNG.standard_normal((30, 20)) + 1j * _REF_RNG.standard_normal((30, 20))
_REF_MATRIX = _REF_RNG.standard_normal((300, 300)) + 1j * _REF_RNG.standard_normal((300, 300))


def reference_seconds(kind: str) -> float:
    """Wall time of fixed work that is not otfswin's.  ``interp``: small 2-D
    FFTs and interpreter loops, as in the per-trial code that dominates
    ``ce-fig6`` and ``fer-spa-9b``.  ``blas``: a dense complex product and
    solve at BLAS's default thread count, as in the MMSE detector that
    dominates the ``fer-mmse-*`` trials.

    A shared host runs the same work at speeds that differ by up to 1.8x for
    stretches of seconds to minutes (other tenants on the same cores), and
    interpreter and BLAS work speed up by different amounts.  Each timed call
    runs right after its workload's reference and is reported as its wall
    time times ``REF_NOMINAL_S[kind] / reference_seconds(kind)``: its time on
    this host at its usual speed.  The program cannot change the references,
    so a faster program still reads faster."""
    start = time.perf_counter()
    if kind == "interp":
        x = _REF_GRID
        for i in range(200):
            x = np.fft.ifft2(np.fft.fft2(x))
            sum(j * j for j in range(i % 7, 40))
    else:
        for _ in range(2):
            np.linalg.solve(_REF_MATRIX @ _REF_MATRIX.conj().T + np.eye(300), _REF_MATRIX[:, 0])
    return time.perf_counter() - start


def timed_calls(log: CallLog, calls: int) -> tuple[list[float], list[float]]:
    """Wall time of each successful call of ``calls`` untraced calls, and the
    reference time measured right before it."""
    fn = entry_point(log.package, log.workload)
    kind = WORKLOADS[log.workload][3]
    seconds, references = [], []
    for index in range(calls):
        if log.past_deadline():
            break
        reference = reference_seconds(kind)
        elapsed = log.run(fn, index)
        if elapsed is not None:
            seconds.append(elapsed)
            references.append(reference)
    return seconds, references


def traced_calls(log: CallLog, pairs: int):
    """``pairs`` pairs of an untraced call and the same call with every layer
    wrapped.  The two calls of a pair run back to back, so the ratio of their
    wall times measures the tracer rather than the machine's slower swings.
    Returns the tracer, the root span's name and the traced/untraced ratios."""
    tracer = Tracer()
    root = "harness." + WORKLOADS[log.workload][0]
    plain = entry_point(log.package, log.workload)
    traced = tracer.traced(root, plain)
    ratios = []
    for index in range(pairs):
        if log.past_deadline():
            break
        untraced_s = log.run(plain, index)
        tracer.install(log.package)
        try:
            traced_s = log.run(traced, index)
        finally:
            tracer.restore()
        if untraced_s is not None and traced_s is not None:
            ratios.append(traced_s / untraced_s)
    return tracer, root, ratios


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start to the end of the warm-up call, in fresh processes."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def setup_probe(workload: str, seed: int) -> None:
    package = import_package()
    warm_up(package, workload, seed)  # a raising warm-up is counted by the parent run
    print(repr(time.monotonic()))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """OpenBLAS's current thread count, asked of the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a
    git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args) -> dict:
    end_to_end, per_layer = declared_metrics()
    package = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    workload, seed = args.workload, args.seed
    log = CallLog(package, workload, seed)
    warning_lines = log.warm_up()
    fields = WORKLOADS[workload][1]
    trials_per_call = fields["trials"] * len(fields["snr_db"])
    calls = calls_per_run(workload, args.seconds)
    report = {
        "workload": workload,
        "environment": environment(seed),
        "trials_per_call": trials_per_call,
        "warnings": warning_lines,
    }

    metrics: dict[str, float] = {}
    if args.trace:
        pairs = (calls + 1) // 2
        tracer, root, ratios = traced_calls(log, pairs)
        report.update(calls=2 * pairs, trace_ratios=ratios)
        metrics.update(tracer.layer_metrics(root))
        metrics["trace_overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
        for name in WORKLOADS:
            metrics[f"{name}.warnings"] = len(warning_lines) if name == workload else 0
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.csv")
        declared = per_layer
    else:
        seconds, references = timed_calls(log, calls)
        report.update(calls=calls, call_seconds=seconds, call_reference_s=references)
        # each call at the host speed that the reference before it measured
        kind = WORKLOADS[workload][3]
        rates = [trials_per_call * r / (s * REF_NOMINAL_S[kind])
                 for s, r in zip(seconds, references)]
        metrics["trials_per_s"] = statistics.median(rates) if rates else 0.0
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        host_speed = REF_NOMINAL_S[kind] / statistics.median(references) if references else 1.0
        setup = measure_setup(workload, seed)
        # The MMSE workloads' set-up time moved with the host speed that their
        # calls' blas reference measured, so it is scaled by it; the others'
        # followed neither reference and stay wall-clock (NOTES.md, "Metrics").
        metrics["setup_s"] = statistics.median(setup) * (host_speed if kind == "blas" else 1.0)
        report.update(
            setup_samples_s=setup, host_speed=host_speed,
            wall_setup_s=statistics.median(setup),
            wall_trials_per_s=(statistics.median(trials_per_call / s for s in seconds)
                               if seconds else 0.0))
        declared = end_to_end

    reference = reference_digest(workload, seed)
    digest = log.digests[0] if log.digests else None
    report.update(rows_sha256=digest,
                  rows_digest_match=-1 if reference is None else int(reference == digest))
    if args.trace:
        metrics["harness.rows_digest_match"] = report["rows_digest_match"]

    problems = [f"call: {p}" for p in dict.fromkeys(log.problems)]
    gap = floor_gap_db(log.floors)
    if gap is not None:
        report["ce_floor_gap_db"] = gap
        if abs(gap) > CE_FLOOR_BAND_DB:
            problems.append(f"ce_mse at {CE_FLOOR_SNR_DB:g} dB over {len(log.floors)} calls "
                            f"is {gap:+.2f} dB from the predicted floor "
                            f"(band {CE_FLOOR_BAND_DB} dB)")
    problems += [f"run_selfcheck: {c.name}: {c.detail}"
                 for c in package.harness.run_selfcheck() if not c.passed]
    report.update(
        attempted=log.attempted,
        failed=log.failed,
        failed_frac=log.failed / log.attempted,
        ci_rounding_rows=log.ci_rounding_rows,
        cut=log.cut,
        problems=problems,
    )
    if set(metrics) != set(declared):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                             "disagree with BENCHMARK.json")
    report["metrics"] = {name: {"value": metrics[name], "unit": declared[name]}
                         for name in declared}
    report["correct"] = not problems
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {report['workload']}: {report['calls']} timed calls of "
          f"{report['trials_per_call']} trials, closed loop, threads=1"
          + (", as pairs of an untraced and a traced call" if "trace_ratios" in report else ""))
    if report["cut"]:
        print(f"  timed calls stopped {CALL_DEADLINE_S:g} s after start; "
              "the inputs differ from a full run")
    for name, m in report["metrics"].items():
        print(f"  {name:<48} {m['value']:<14.6g} {m['unit']}")
    if "host_speed" in report:
        print(f"  trials_per_s (and setup_s on the MMSE workloads) are at the host's "
              f"usual speed (see reference_seconds); this run's host speed was "
              f"{report['host_speed']:.3f} of that, and its wall-clock figures "
              f"{report['wall_trials_per_s']:.6g} 1/s and {report['wall_setup_s']:.6g} s")
    print(f"  {'failed_frac':<48} {report['failed_frac']:<14.6g} frac "
          f"({report['failed']} of {report['attempted']} calls)")
    print(f"  rows sha256 of call 0 {str(report['rows_sha256'])[:16]}... "
          f"reference match: {report['rows_digest_match']} (1 yes, 0 no, -1 none stored)")
    if "ce_floor_gap_db" in report:
        print(f"  ce_mse at {CE_FLOOR_SNR_DB:g} dB, pooled over the calls: "
              f"{report['ce_floor_gap_db']:+.3f} dB from the predicted floor "
              f"(band {CE_FLOOR_BAND_DB} dB)")
    print(f"  rows whose interval misses the value by rounding only: "
          f"{report['ci_rounding_rows']} per call")
    print(f"  warnings in the warm-up call: {len(report['warnings'])}")
    for line in dict.fromkeys(report["warnings"]):
        print(f"    {line}")
    for problem in report["problems"]:
        print(f"  FAILED CHECK {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        report = run(args)
    except (BenchmarkError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    suffix = "trace" if args.trace else "run"
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-{suffix}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
