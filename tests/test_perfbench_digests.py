"""The benchmark's reference digests against the rows the package gives now.

perfbench/reference_digests.json holds the SHA-256 of the rows of each
workload's first timed call for seeds 0-63.  A change that claims to keep
the output byte-identical must reproduce them; this checks all 64 seeds of
every workload through perfbench/run.py's own config and digest functions,
loaded unedited.  A numerical change that moves soft values in the last
digits shows here only if it flips a hard decision, so all 256 rows are
checked, not a sample.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import otfswin
import otfswin.harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = range(64)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run():
    # run.py imports its sibling module as ``tracing``
    saved = sys.modules.get("tracing")
    sys.modules["tracing"] = _load("tracing", PERFBENCH / "tracing.py")
    try:
        yield _load("perfbench_run", PERFBENCH / "run.py")
    finally:
        if saved is None:
            sys.modules.pop("tracing", None)
        else:
            sys.modules["tracing"] = saved


REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_call_zero_rows_match_the_reference_digest(run, workload, seed):
    config = run.make_config(otfswin, workload, run.call_seed(seed, 0))
    rows = run.entry_point(otfswin, workload)(config)
    assert run.rows_digest(otfswin, rows) == REFERENCE[workload][str(seed)]
