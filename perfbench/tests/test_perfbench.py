"""Tests of the benchmark itself: input generation, span arithmetic, checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_engine()

import tracing  # noqa: E402
import workloads  # noqa: E402
from superconf import groebner, linalg, prolongation, resolutions, specfile  # noqa: E402


def _rendered(seed):
    return [(specfile.render_spec(spec), top, tor) for spec, top, tor in workloads.oracle_specs(seed)]


def test_generator_is_deterministic_per_seed():
    assert _rendered(7) == _rendered(7)
    assert _rendered(7) != _rendered(8)


def test_seed_draws_only_coefficients():
    shapes = [(s.odd_dim, s.even_dim, sorted(s.gamma), top, tor)
              for s, top, tor in workloads.oracle_specs(1)]
    assert shapes == [(s.odd_dim, s.even_dim, sorted(s.gamma), top, tor)
                      for s, top, tor in workloads.oracle_specs(2)]
    for spec, _, _ in workloads.oracle_specs(3):
        assert all(all(v != 0 for v in vec) for vec in spec.gamma.values())


def test_self_time_on_a_synthetic_span_tree():
    # id, parent, name, start, end, attrs
    spans = [
        [0, None, "a", 0.0, 10.0, None],
        [1, 0, "b", 1.0, 4.0, {"rows": 3}],
        [2, 0, "c", 5.0, 9.0, None],
        [3, 2, "b", 6.0, 8.0, {"rows": 4}],
        [4, None, "d", 20.0, 30.0, None],
        [5, 4, "d", 22.0, 25.0, None],
    ]
    stats = tracing.layer_stats(spans)
    assert stats["a"]["self_s"] == 3.0 and stats["a"]["s"] == 10.0
    assert stats["b"]["self_s"] == 5.0 and stats["b"]["s"] == 5.0
    assert stats["b"]["calls"] == 2 and stats["b"]["rows"] == 7 and stats["b"]["max_s"] == 3.0
    assert stats["c"]["self_s"] == 2.0 and stats["c"]["s"] == 4.0
    # recursion: the nested d is not counted twice in `s`, but has its own self time
    assert stats["d"]["s"] == 10.0 and stats["d"]["self_s"] == 10.0
    assert tracing.root_time(spans) == 20.0


def test_tampered_payload_fails_the_digest_check(tmp_path, monkeypatch):
    cases = {c.name: c for c in workloads.prepare("catalog-varieties", 0, tmp_path)}
    case = cases["info-3d-n1"]
    text, ok = case.run()
    assert ok
    real = workloads.run_cli
    monkeypatch.setattr(workloads, "run_cli",
                        lambda argv: (lambda code, out: (code, out.replace("3", "4", 1)))(*real(argv)))
    tampered, ok = case.run()
    assert tampered != text and not ok


def test_nonzero_exit_code_fails_the_case(tmp_path, monkeypatch):
    cases = {c.name: c for c in workloads.prepare("catalog-multiplets", 0, tmp_path)}
    monkeypatch.setattr(workloads, "run_cli", lambda argv: (1, "{}"))
    assert not cases["multiplet-conf-3d-n1"].run()[1]


def test_tracer_patches_every_lookup_and_restores_them():
    orig_rank, orig_bb = linalg.sparse_rank, groebner.buchberger
    orig_bracket = prolongation.ProlongationBrackets.bracket
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linalg.sparse_rank is not orig_rank
        assert resolutions.sparse_rank is linalg.sparse_rank
        assert prolongation.sparse_rank is linalg.sparse_rank
        assert resolutions.buchberger is groebner.buchberger is not orig_bb
        assert prolongation.ProlongationBrackets.bracket is not orig_bracket
        assert linalg.sparse_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    finally:
        tracer.uninstall()
    assert linalg.sparse_rank is orig_rank and resolutions.sparse_rank is orig_rank
    assert resolutions.buchberger is orig_bb
    assert prolongation.ProlongationBrackets.bracket is orig_bracket
    [span] = tracer.spans
    assert span[2] == "linalg.sparse_rank" and span[5] == {"rows": 2, "nnz": 4, "rank": 1}


def test_metric_names_agree_with_benchmark_json_and_targets():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    targets = json.loads((BENCH / "targets.json").read_text())
    assert set(targets) == set(run.PER_LAYER)
    names = {m["name"] for m in bench["end_to_end"]}
    for target in targets.values():
        assert set(target["moves"]) <= names
        assert set(target["on"]) | set(target.get("unchanged_on", ())) <= set(run.WORKLOADS)


def test_every_span_and_counter_target_is_wrapped():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target in [*tracing.SPANS, *tracing.COUNTERS]:
            modname, *path = target.split(".")
            obj = importlib.import_module(f"superconf.{modname}")
            for attr in path:
                obj = getattr(obj, attr)
            assert hasattr(obj, "__wrapped__"), target
    finally:
        tracer.uninstall()


def test_measure_reports_case_times_in_reference_units():
    calls = []
    cases = [workloads.Case(name, lambda n=name: (calls.append(n) or n, True)) for name in "ab"]
    metrics, info = run.measure(cases, 0, lambda: 0.5)
    assert info["passes"] == run.MIN_PASSES and calls == ["a", "b"] * run.MIN_PASSES
    assert info["attempted"] == 2 * run.MIN_PASSES and info["failed"] == 0
    assert metrics["setup_s"] == 0.5 and len(info["setup_runs_s"]) == run.MIN_PASSES + 1
    # two cases that do next to nothing take a small fraction of the reference
    assert 0 < metrics["wall_ref"] < 1 and 0 < metrics["cpu_ref"] < 1
    assert set(metrics) == set(run.END_TO_END)
