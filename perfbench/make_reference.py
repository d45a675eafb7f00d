"""Regenerate perfbench/reference_digests.json.

Stores the SHA-256 of ``rows_to_csv`` for the first timed harness call of
each workload and each seed in ``range(SEEDS)``.  run.py reports whether a
run's rows match the stored digest (``harness.rows_digest_match``).  The
match is a diagnostic, not a gate: a change that alters output on purpose
regenerates this file and says why.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

from run import (BENCH_DIR, WORKLOADS, call_seed, entry_point, import_package,
                 make_config, rows_digest)

SEEDS = 64


def main() -> None:
    package = import_package()
    digests = {}
    for workload in WORKLOADS:
        fn = entry_point(package, workload)
        digests[workload] = {
            str(seed): rows_digest(package, fn(make_config(package, workload, call_seed(seed, 0))))
            for seed in range(SEEDS)
        }
        print(f"{workload}: {SEEDS} seeds", flush=True)
    with open(BENCH_DIR / "reference_digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
