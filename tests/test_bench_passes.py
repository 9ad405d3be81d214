"""A traced pass of each benchmark workload gives what an untraced one gives.

The tracer of `perfbench/` wraps engine functions and reads their arguments
after the call (`len(rows)` of each `sparse_rank` argument), so an engine
change can pass every other test and still break a traced benchmark run; this
test runs one untraced and one traced pass of every workload on the default
seed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_engine()

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_repeats_the_untraced_pass(workload, tmp_path):
    cases = workloads.prepare(workload, run.DEFAULT_SEED, tmp_path)
    plain = run.run_pass(cases)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(cases)
    finally:
        tracer.uninstall()
    assert [name for p in (plain, traced) for name, s in p.items() if not s.ok] == []
    assert run.digests(traced) == run.digests(plain)
    ranks = [attrs for _, _, name, _, _, attrs in tracer.spans if name == "linalg.sparse_rank"]
    assert ranks and all(attrs and "rows" in attrs for attrs in ranks)
