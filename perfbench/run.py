"""Benchmark of the superconf engine, end to end and layer by layer.

    python3 perfbench/run.py --workload catalog-multiplets --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from `src/`.
Each run is one process and one thread that runs the cases of one workload
back to back (a closed loop with one client), pass after pass: at least
MIN_PASSES, then more while the next pass fits in `--seconds`.  The last line
of stdout is the result: `{"correct", "attempted", "failed", "metrics"}`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
makes an untraced, a traced and an untraced pass and reports the per-layer
metrics of the traced one.  The line before the result holds run metadata.

Times of cases are reported in `ref` units: a case's wall (or CPU) time over
that of `reference()`, a fixed piece of pure-Python work run just before and
just after the case.  A virtual machine that shares its cores can run every
process up to twice as slowly in phases of tens of seconds, which moves
seconds from run to run by more than any bound a regression check could use;
the ratio moves little, and no change to superconf changes the reference.
The raw seconds are on the metadata line and among the traced run's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / "_work"
REFERENCE_TERMS = 1500
MIN_PASSES = 3
WORKLOADS = ("catalog-multiplets", "catalog-varieties", "cross-oracles")
DEFAULT_SEED = 20260809  # the criterion-9 seed of the acceptance suite

# metric name -> unit, in the order of BENCHMARK.json.
END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    name: ("s" if name.endswith("_s") or name.endswith(".s") else "count")
    for name in (
        "cli.main.s", "cli.main.calls",
        "specfile.parse_spec.s",
        "algebras.derivations_deg0.s", "algebras.check_conformal_type.s",
        "multiplets.multiplet_module.s", "multiplets.hdim.self_s",
        "multiplets.component_fields.s",
        "twisting.twist.s", "twisting.twist_pipeline.self_s",
        "groebner.buchberger.s", "groebner.buchberger.self_s",
        "groebner.buchberger.calls", "groebner.buchberger.basis_out",
        "groebner.schreyer_syzygies.s", "groebner.schreyer_syzygies.syzygies_out",
        "groebner.syzygy_module.s", "groebner.hilbert_series.s", "groebner.krull_dim.s",
        "groebner.standard_monomials.s", "groebner.GroebnerBasis.normal_form.calls",
        "resolutions.minimal_free_resolution.s", "resolutions.minimal_free_resolution.self_s",
        "resolutions.minimal_free_resolution.calls",
        "resolutions.minimal_free_resolution.betti_total",
        "resolutions.is_gorenstein.self_s", "resolutions.koszul_tor.self_s",
        "resolutions.syzygetic_defect.self_s", "resolutions.koszul_homology_dims.self_s",
        "resolutions.koszul_homology_is_zero.self_s",
        "linalg.sparse_rank.s", "linalg.sparse_rank.calls", "linalg.sparse_rank.rows",
        "linalg.sparse_rank.nnz", "linalg.sparse_rank.rank", "linalg.sparse_rank.max_s",
        "linalg.SpanSolver.add.calls", "linalg.SpanSolver.solve.calls", "linalg.rref.s",
        "prolongation.tanaka_prolongation.self_s",
        "prolongation.ProlongationBrackets.check_jacobi.self_s",
        "prolongation.ProlongationBrackets.bracket.calls",
        "prolongation.derivation_complex_h0.s",
        "unattributed_s", "trace_overhead_s", "wall_s", "cpu_s",
    )
}


def import_engine():
    """Put the checkout's `src/` first on the path; exit 2 if it is missing."""
    if not (SRC / "superconf" / "__init__.py").is_file():
        print(f"error: no superconf sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    os.environ.pop("SUPERCONF_CACHE_DIR", None)  # every case computes
    import superconf

    if Path(superconf.__file__).resolve().parent != (SRC / "superconf").resolve():
        print(f"error: imported superconf from {superconf.__file__}", file=sys.stderr)
        sys.exit(2)


class Sample(NamedTuple):
    """One run of one case."""

    wall: float
    cpu: float
    ref_wall: float  # mean of the reference's times just before and just after
    ref_cpu: float
    digest: str | None
    ok: bool


def reference() -> Fraction:
    """Fixed work of the engine's kind: Fractions summed in a dict keyed by tuples.

    Its time, taken next to a case, is how fast the host runs the interpreter
    at that moment.  It calls nothing in superconf.
    """
    acc: dict = {}
    for i in range(1, REFERENCE_TERMS + 1):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 1 + i % 5)
    return sum((v * v for v in acc.values()), Fraction(0))


def timed(fn):
    """(result, wall s, CPU s) of one call."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - w0, time.process_time() - c0


def run_pass(cases) -> dict[str, Sample]:
    """Run every case once, with the reference before the first and after each."""
    from workloads import digest

    out = {}
    _, ref_wall, ref_cpu = timed(reference)
    for case in cases:
        try:
            (text, ok), wall, cpu = timed(case.run)
        except Exception:
            traceback.print_exc()
            text, ok, wall, cpu = None, False, 0.0, 0.0
        _, next_wall, next_cpu = timed(reference)
        out[case.name] = Sample(wall, cpu, (ref_wall + next_wall) / 2, (ref_cpu + next_cpu) / 2,
                                None if text is None else digest(text), ok)
        ref_wall, ref_cpu = next_wall, next_cpu
    return out


def failures(result) -> int:
    return sum(not s.ok for s in result.values())


def digests(result) -> dict:
    return {name: s.digest for name, s in result.items()}


def fresh_setup_seconds(args) -> float:
    """Wall time of a fresh interpreter that imports, writes, parses and builds."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def metadata(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "superconf").glob("*.py"))
    )
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines,
    }


def measure(cases, seconds: float, setup) -> tuple[dict, dict]:
    """At least MIN_PASSES passes, more while the next one fits in `seconds`.

    `wall_ref` is the sum over cases of the median over passes of the case's
    time in ref units.  `setup_s` is the median of `setup()` called before
    each pass and after the last, so that it too samples the whole run.
    """
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        setups.append(setup())
        passes.append(run_pass(cases))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups.append(setup())

    def per_case(field):
        return {c.name: statistics.median(field(p[c.name]) for p in passes) for c in cases}

    case_wall = per_case(lambda s: s.wall)
    case_ref = per_case(lambda s: s.wall / s.ref_wall)
    metrics = {
        "wall_ref": sum(case_ref.values()),
        "cpu_ref": sum(per_case(lambda s: s.cpu / s.ref_cpu).values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "attempted": len(cases) * len(passes),
        "failed": sum(failures(p) for p in passes),
        "passes": len(passes),
        "wall_s": sum(case_wall.values()),
        "cpu_s": sum(per_case(lambda s: s.cpu).values()),
        "ref_wall_ms": 1000 * statistics.median(s.ref_wall for p in passes for s in p.values()),
        "setup_runs_s": setups,
        "pass_wall_s": [sum(s.wall for s in p.values()) for p in passes],
        "case_wall_s": case_wall,
        "case_wall_ref": case_ref,
    }
    return metrics, info


def trace(cases, workload: str, seed: int, meta: dict) -> tuple[dict, dict]:
    """A traced pass between two untraced ones; per-layer metrics of the traced one.

    The overhead is taken against the mean of the untraced passes, so a drift
    in speed from the first pass to the last does not count as overhead.
    """
    from tracing import COUNTERS, Tracer, layer_stats, root_time

    before = run_pass(cases)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cases)
    finally:
        tracer.uninstall()
    after = run_pass(cases)
    traced_wall = sum(s.wall for s in traced.values())
    plain_wall = sum(
        statistics.mean((before[c.name].wall, after[c.name].wall)) for c in cases)
    plain_cpu = sum(
        statistics.mean((before[c.name].cpu, after[c.name].cpu)) for c in cases)
    stats = layer_stats(tracer.spans)
    metrics = {}
    for name in PER_LAYER:
        target, _, field = name.rpartition(".")
        if name == "unattributed_s":
            metrics[name] = traced_wall - root_time(tracer.spans)
        elif name == "trace_overhead_s":
            metrics[name] = traced_wall - plain_wall
        elif name == "wall_s":
            metrics[name] = plain_wall
        elif name == "cpu_s":
            metrics[name] = plain_cpu
        elif target in COUNTERS:
            metrics[name] = tracer.counts[target]
        else:
            metrics[name] = stats.get(target, {}).get(field, 0)
    same = digests(before) == digests(traced) == digests(after)
    out = WORKDIR / f"trace-{workload}-{seed}.json"
    out.write_text(json.dumps({
        "meta": meta, "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "digests_equal": same, "layers": stats, "counters": dict(tracer.counts),
        "spans": tracer.spans,
    }), encoding="utf-8")
    failed = failures(before) + failures(traced) + failures(after) + (not same)
    info = {"attempted": 3 * len(cases), "failed": failed, "passes": 3,
            "digests_equal": same, "trace_file": str(out.relative_to(ROOT))}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the workload's inputs and exit (times setup_s)")
    args = parser.parse_args(argv)

    import_engine()
    import workloads

    workdir = WORKDIR / args.workload
    if args.setup_only:
        workloads.prepare(args.workload, args.seed, workdir)
        return 0
    meta = metadata(args)
    if args.trace:
        cases = workloads.prepare(args.workload, args.seed, workdir)
        metrics, info = trace(cases, args.workload, args.seed, meta)
    else:
        cases = workloads.prepare(args.workload, args.seed, workdir)
        metrics, info = measure(cases, args.seconds, lambda: fresh_setup_seconds(args))
    units = END_TO_END if not args.trace else PER_LAYER
    meta.update(info, cases=len(cases), fail_ratio=info["failed"] / info["attempted"])
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
