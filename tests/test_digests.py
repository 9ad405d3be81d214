"""Byte identity of the catalog `--json` outputs that no fixture pins.

The benchmark's catalog cases without a fixture check must reproduce the
SHA-256 of their stdout recorded in `perfbench/digests.json`.  This replays
each of them through `cli.main`, with the argv of the `perfbench/workloads.py`
tables, so a change to the printed form of a basis, a syzygy or a table fails
here too.  The digests file is only read.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

DIGESTS = workloads.load_digests()
CASES = [
    (name, args, key)
    for table in (workloads.MULTIPLET_CASES, workloads.VARIETY_CASES)
    for name, args, key, checks in table
    if not checks
]


def test_every_unchecked_case_has_a_digest():
    assert sorted(name for name, _, _ in CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("name,args,key", CASES, ids=[c[0] for c in CASES])
def test_json_stdout_matches_recorded_digest(tmp_path, monkeypatch, name, args, key):
    monkeypatch.delenv("SUPERCONF_CACHE_DIR", raising=False)  # compute, never load
    spec_path, _ = workloads.catalog_specs(tmp_path, [key])[key]
    code, text = workloads.run_cli(workloads.cli_argv(args, spec_path))
    assert code == 0
    assert workloads.digest(text) == DIGESTS[name]
