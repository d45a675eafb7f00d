"""Command-line front end.

Subcommands::

    ce-mse        channel-estimation MSE experiment (config file driven)
    fer           frame-error-rate experiment (config file driven)
    design-window Dolph-Chebyshev coefficients as CSV plus a JSON sidecar
    floor         analytic estimation-floor table for one layout
    selfcheck     cross-oracle consistency suite

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import ConfigurationError, NumericalFailure
from .estimation import predicted_mse_floor_params
from .harness import (
    ExperimentConfig,
    ce_rows_csv,
    rows_to_csv,
    rows_to_json,
    run_ce_mse,
    run_fer,
    write_metadata,
)
from .selfcheck import run_selfcheck
from .windows import dc_window

MAX_THREADS = 64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otfswin",
        description="OTFS window-design link-level simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help=f"accepted for compatibility (1 to {MAX_THREADS}); trials "
                            "always run serially, so it does not change the run")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    ce = sub.add_parser("ce-mse", help="channel-estimation MSE experiment")
    add_run_flags(ce)
    ce.add_argument("--ce-rows", default=None,
                    help="also write the compact per-SNR CE summary CSV here")

    fer = sub.add_parser("fer", help="frame/bit error rate experiment")
    add_run_flags(fer)

    dw = sub.add_parser("design-window", help="design a Dolph-Chebyshev window")
    dw.add_argument("--N", type=int, required=True, help="window length (time slots)")
    dw.add_argument("--sl-db", type=float, required=True, help="sidelobe level, dB (negative)")
    dw.add_argument("--out", default=None, help="coefficient CSV (sidecar gets .json)")

    fl = sub.add_parser("floor", help="analytic channel-estimation floor")
    fl.add_argument("--N", type=int, required=True)
    fl.add_argument("--kmax", type=int, required=True)
    fl.add_argument("--lmax", type=int, required=True)
    fl.add_argument("--khat", type=int, default=0)
    fl.add_argument("--sl-db", type=float, required=True,
                    help="window sidelobe level in dB (rectangular: 20*log10(1/N))")
    fl.add_argument("--format", choices=("csv", "json"), default="csv")

    sc = sub.add_parser("selfcheck", help="run the cross-oracle suite")
    sc.add_argument("--seed", type=int, default=0)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_experiment(args: argparse.Namespace, runner) -> int:
    if not 1 <= args.threads <= MAX_THREADS:
        raise ConfigurationError(f"--threads must lie in [1, {MAX_THREADS}]")
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    rows = runner(config)
    _emit(rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows), args.out)
    if args.out is not None:
        write_metadata(config, args.out + ".meta.json")
    if getattr(args, "ce_rows", None):
        _emit(ce_rows_csv(rows, config), args.ce_rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("ce-mse", "fer"):
            runner = run_ce_mse if args.command == "ce-mse" else run_fer
            return _run_experiment(args, runner)

        if args.command == "design-window":
            design = dc_window(args.N, args.sl_db)
            lines = ["index,value"]
            lines += [f"{i},{float(c)!r}" for i, c in enumerate(design.coeffs)]
            _emit("\n".join(lines) + "\n", args.out)
            sidecar = {
                "SL_db_target": design.sl_db_target,
                "SL_db_measured": design.sl_db_measured,
                "k_main_measured": design.k_main,
            }
            sidecar_text = json.dumps(sidecar, indent=2) + "\n"
            if args.out is None:
                sys.stdout.write(sidecar_text)
            else:
                stem = args.out[:-4] if args.out.endswith(".csv") else args.out
                _emit(sidecar_text, stem + ".json")
            return 0

        if args.command == "floor":
            # a sidelobe level is at most the mainlobe peak
            if not (math.isfinite(args.sl_db) and args.sl_db <= 0.0):
                raise ConfigurationError(
                    f"--sl-db must be finite and at most 0, got {args.sl_db!r}")
            sl_w = 10.0 ** (args.sl_db / 20.0)
            try:
                value = predicted_mse_floor_params(args.N, args.kmax, args.lmax, args.khat, sl_w)
            except OverflowError:
                raise ConfigurationError("--N is too large for a floating-point floor") from None
            value_db = 10 * math.log10(value) if value > 0 else float("-inf")
            if args.format == "csv":
                _emit("N,k_max,l_max,k_hat,sl_db,mse_floor,mse_floor_db\n"
                      f"{args.N},{args.kmax},{args.lmax},{args.khat},"
                      f"{args.sl_db:.12g},{value:.12g},{value_db:.12g}\n",
                      None)
            else:
                _emit(json.dumps({
                    "N": args.N, "k_max": args.kmax, "l_max": args.lmax,
                    "k_hat": args.khat, "sl_db": args.sl_db, "mse_floor": value,
                    # JSON has no -Infinity: a zero floor has no dB value
                    "mse_floor_db": value_db if value > 0 else None,
                }, indent=2) + "\n", None)
            return 0

        if args.command == "selfcheck":
            results = run_selfcheck(args.seed)
            failed = [r for r in results if not r.passed]
            for r in results:
                status = "ok" if r.passed else "FAIL"
                sys.stdout.write(f"{status:4s} {r.name} ({r.detail})\n")
            if failed:
                raise NumericalFailure(f"{len(failed)} self-check(s) failed")
            return 0

        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation it refused; a bare MemoryError says nothing
        print(f"error: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
