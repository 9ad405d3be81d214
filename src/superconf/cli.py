"""Command-line driver.

Subcommands: info, variety, multiplet, hdim, twist, prolong, verify.  All
outputs have a --json form with a versioned, fully sorted schema so repeated
runs are byte-identical.  Exit codes: 0 success, 1 verification failure
(a failed fixture, or a `VerificationFailed` cross-check, printed after the
payload where the command has one), 2 usage error, 3 resource budget
exceeded, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import cache as cache_mod
from .algebras import check_conformal_type, derivations_deg0
from .fixtures import FIXTURES, sorted_rows, verify
from .groebner import StepBudgetExceeded, hilbert_series, krull_dim
from .multiplets import canonical_module, component_fields, hdim, multiplet_module
from .prolongation import tanaka_prolongation
from .resolutions import VerificationFailed, is_gorenstein, koszul_tor, minimal_free_resolution
from .specfile import SpecError, _parse_q, _render_q, parse_spec
from .twisting import catalog_twist_vector, twist_pipeline

SCHEMA = 1


def _load_algebra(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_spec(text).build()


def _cached(args, descriptor: dict, keys: set[str], compute) -> dict:
    """compute() through the cache.  `keys` is the key set that compute()
    returns for this descriptor, so a hit of another shape is a corrupt
    entry: it is warned about, recomputed and rewritten."""
    value = cache_mod.cached(args.cache_dir, descriptor, compute, args.verify_cache)
    if set(value) != keys:
        key = cache_mod.cache_key(descriptor)
        print(f"warning: ignoring corrupt cache entry {key[:12]}: value keys are not"
              f" {sorted(keys)}", file=sys.stderr)
        value = compute()
        cache_mod.store(args.cache_dir, key, value)
    return value


def _emit(payload: dict, as_json: bool, render_text) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        render_text(payload)


def cmd_info(args) -> int:
    alg = _load_algebra(args.spec)
    g0 = derivations_deg0(alg)
    report = check_conformal_type(alg, g0)
    payload = {
        "schema": SCHEMA,
        "name": alg.name,
        "odd_dim": alg.k,
        "even_dim": alg.d,
        "g0_dim": g0.dim,
        "rho2_image_dim": report.rho2_image_dim,
        "r_symmetry_dim": report.r_symmetry_dim,
        "conformal_type": {
            "surjective_bracket": report.surjective,
            "expected_image_dim": report.expected_image_dim,
            "has_invariant_metric": report.has_invariant_metric,
            "conformal": report.conformal,
        },
        "ideal_generators": sorted(str(q) for q in alg.quadrics() if not q.is_zero()),
    }

    def text(p):
        print(f"algebra {p['name']}: odd {p['odd_dim']} | even {p['even_dim']}")
        print(f"derivations: dim {p['g0_dim']}, even-action image {p['rho2_image_dim']},"
              f" R-symmetry {p['r_symmetry_dim']}")
        ct = p["conformal_type"]
        print(f"conformal type: {ct['conformal']}"
              f" (bracket surjective: {ct['surjective_bracket']},"
              f" invariant metric: {ct['has_invariant_metric']})")
        print("ideal generators:")
        for q in p["ideal_generators"]:
            print(f"  {q}")

    _emit(payload, args.json, text)
    return 0


def cmd_variety(args) -> int:
    alg = _load_algebra(args.spec)
    descriptor = {
        "analysis": "variety",
        "schema": SCHEMA,
        "gamma": [[_render_q(x) for x in row] for a in alg.gamma for row in a],
        "dims": [alg.k, alg.d],
    }

    def compute():
        pm = canonical_module(alg).module
        gb = pm.relation_gb()
        hs = hilbert_series(gb)
        dim_y = krull_dim(gb)
        cm, gor = is_gorenstein(pm)
        return {
            "groebner_basis": sorted(str(p) for p in gb.elements),
            "hilbert_numerator": [[d, c] for d, c in sorted(hs.numerator.items())],
            "dim_variety": dim_y,
            "hdim": alg.d - alg.k + dim_y,
            "cohen_macaulay": cm,
            "gorenstein": gor,
        }

    keys = {"groebner_basis", "hilbert_numerator", "dim_variety", "hdim", "cohen_macaulay",
            "gorenstein"}
    payload = {"schema": SCHEMA, "name": alg.name, **_cached(args, descriptor, keys, compute)}

    def text(p):
        print(f"nilpotence variety of {p['name']}")
        print(f"dim Y = {p['dim_variety']}, hdim = {p['hdim']}")
        print(f"Cohen-Macaulay: {p['cohen_macaulay']}, Gorenstein: {p['gorenstein']}")
        num = " + ".join(f"{c}*t^{d}" if d else str(c) for d, c in p["hilbert_numerator"])
        print(f"Hilbert numerator: {num}")
        print("Groebner basis:")
        for g in p["groebner_basis"]:
            print(f"  {g}")

    _emit(payload, args.json, text)
    return 0


def cmd_multiplet(args) -> int:
    if args.window is not None and args.window < 0:
        raise ValueError(f"--window must be non-negative, got {args.window}")
    alg = _load_algebra(args.spec)
    kind = args.kind
    descriptor = {
        "analysis": f"multiplet:{kind}",
        "schema": SCHEMA,
        "gamma": [[_render_q(x) for x in row] for a in alg.gamma for row in a],
        "dims": [alg.k, alg.d],
        "window": args.window,
    }

    def compute():
        mod = multiplet_module(alg, kind)
        _, betti = minimal_free_resolution(mod.module)
        table = component_fields(mod, betti)
        out = {
            "kind": kind,
            "betti": sorted_rows(betti.entries),
            "complete": betti.complete,
            "table": sorted_rows(table.cells),
        }
        if args.window is not None:
            oracle = koszul_tor(mod.module, (0, args.window))
            out["koszul_betti"] = sorted_rows(oracle.entries)
            out["koszul_agrees"] = oracle.entries == betti.restrict((0, args.window)).entries
        return out

    keys = {"kind", "betti", "complete", "table"}
    if args.window is not None:
        keys |= {"koszul_betti", "koszul_agrees"}
    payload = {"schema": SCHEMA, "name": alg.name, **_cached(args, descriptor, keys, compute)}

    def text(p):
        print(f"{p['kind']} multiplet of {p['name']}")
        print("Betti table (index, degree, multiplicity):")
        for i, j, m in p["betti"]:
            print(f"  {i} {j} {m}")
        print("component fields (row, column, dimension):")
        rows = {}
        for r, c, v in p["table"]:
            rows.setdefault(r, {})[c] = v
        cols = sorted({c for _, c, _ in p["table"]})
        print("      " + " ".join(f"{c:>6}" for c in cols))
        for r in sorted(rows):
            cells = " ".join(f"{rows[r].get(c, '.'):>6}" for c in cols)
            print(f"  {r:>3}: {cells}")
        if "koszul_agrees" in p:
            print(f"Koszul oracle agrees: {p['koszul_agrees']}")

    _emit(payload, args.json, text)
    if payload.get("koszul_agrees") is False:  # read off the payload, so a cache hit fails too
        raise VerificationFailed(
            f"the Koszul oracle disagrees with the Betti table on degrees 0..{args.window}")
    return 0


def cmd_hdim(args) -> int:
    alg = _load_algebra(args.spec)
    value = hdim(alg, cross_check=args.cross_check)
    payload = {
        "schema": SCHEMA,
        "name": alg.name,
        "hdim": value,
        "cross_checked": bool(args.cross_check),
    }
    _emit(payload, args.json, lambda p: print(p["hdim"]))
    return 0


def cmd_twist(args) -> int:
    alg = _load_algebra(args.spec)
    parts, q = args.q.split(","), []
    for pos, part in enumerate(parts, 1):
        try:
            q.append(_parse_q(part))
        except ValueError:  # only a lone identifier may be a twist name
            if len(parts) > 1 or not part.isidentifier():
                raise ValueError(f"--q component {pos} is not a rational: {part!r}") from None
            q = catalog_twist_vector(alg, args.q)
        except ZeroDivisionError:
            raise ValueError(f"twist vector {args.q!r} has a zero denominator") from None
    if len(q) != alg.k:
        raise ValueError(f"--q has {len(q)} components, expected {alg.k}")
    report = twist_pipeline(alg, q, targets=tuple(args.analyses or ()))
    res = report.result
    payload = {
        "schema": SCHEMA,
        "name": alg.name,
        "q": [_render_q(x) for x in res.q],
        "twisted": {
            "odd_dim": res.twisted.k,
            "even_dim": res.twisted.d,
            "ideal_generators": sorted(
                str(p) for p in res.twisted.quadrics() if not p.is_zero()
            ),
        },
        "hdim_source": report.hdim_source,
        "hdim_twisted": report.hdim_twisted,
        "hdim_invariant": report.hdim_invariant,
    }
    analyses_payload = {}
    for name, data in sorted(report.analyses.items()):
        if name in ("conf", "kaehler", "canonical"):
            analyses_payload[name] = {
                "betti": sorted_rows(data["betti"].entries),
                "table": sorted_rows(data["table"].cells),
            }
        elif name == "variety":
            analyses_payload[name] = {
                "hilbert_numerator": [
                    [d, c] for d, c in sorted(data["hilbert"].numerator.items())
                ],
                "gb_size": data["gb_size"],
            }
        elif name == "conformal_type":
            analyses_payload[name] = {
                "conformal": data.conformal,
                "surjective_bracket": data.surjective,
            }
    if analyses_payload:
        payload["analyses"] = analyses_payload

    def text(p):
        print(f"twist of {p['name']} by q = ({', '.join(p['q'])})")
        t = p["twisted"]
        print(f"twisted algebra: odd {t['odd_dim']} | even {t['even_dim']}")
        print(f"hdim: {p['hdim_source']} -> {p['hdim_twisted']}"
              f" (invariant: {p['hdim_invariant']})")
        for g in t["ideal_generators"]:
            print(f"  {g}")
        for name, data in sorted(p.get("analyses", {}).items()):
            print(f"[{name}] {json.dumps(data, sort_keys=True)}")

    _emit(payload, args.json, text)
    if not payload["hdim_invariant"]:
        raise VerificationFailed(f"hdim is not invariant under the twist:"
                                 f" {payload['hdim_source']} -> {payload['hdim_twisted']}")
    return 0


def cmd_prolong(args) -> int:
    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    alg = _load_algebra(args.spec)
    res = tanaka_prolongation(alg, max_degree=args.cap)
    payload = {
        "schema": SCHEMA,
        "name": alg.name,
        "dims": [[m, v] for m, v in sorted(res.dims.items())],
        "status": res.status,
        "total_even": res.total_even(),
        "total_odd": res.total_odd(),
    }

    def text(p):
        dims = ", ".join(f"{m}: {v}" for m, v in p["dims"])
        print(f"prolongation of {p['name']} ({p['status']})")
        print(f"dims {{{dims}}}")
        print(f"total {p['total_even']} even | {p['total_odd']} odd")

    _emit(payload, args.json, text)
    return 0


def cmd_verify(args) -> int:
    outcomes = verify(tier=args.tier, case_name=args.case)
    if args.case is not None and not outcomes:
        tiers = [case.tier for case in FIXTURES if case.name == args.case]
        if tiers:
            print(f"fixture {args.case!r} is in the {tiers[0]} tier; --tier all runs it",
                  file=sys.stderr)
        else:
            print(f"no fixture named {args.case!r}", file=sys.stderr)
        return 2
    payload = {
        "schema": SCHEMA,
        "tier": args.tier,
        "cases": [
            {
                "name": o.name,
                "passed": o.passed,
                "expected": o.expected,
                "got": o.got,
                "citation": o.citation,
                "tier": o.tier,
            }
            for o in outcomes
        ],
        "passed": all(o.passed for o in outcomes),
    }

    def text(p):
        for case in p["cases"]:
            mark = "ok  " if case["passed"] else "FAIL"
            print(f"{mark} {case['name']} [{case['tier']}] - {case['citation']}")
            if not case["passed"]:
                print(f"     expected {case['expected']}")
                print(f"     got      {case['got']}")
        n = len(p["cases"])
        good = sum(1 for c in p["cases"] if c["passed"])
        print(f"{good}/{n} fixtures passed")

    _emit(payload, args.json, text)
    return 0 if payload["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (`main` only reads it)."""
    parser = argparse.ArgumentParser(
        prog="superconf",
        description="Exact superspace invariants from a supertranslation algebra",
    )
    parser.add_argument("--json", action="store_true", help="stable JSON output")
    parser.add_argument(
        "--cache-dir",
        help="content-addressed cache directory (env SUPERCONF_CACHE_DIR)",
    )
    parser.add_argument(
        "--verify-cache",
        action="store_true",
        help="recompute on cache hits and compare byte for byte; an entry that"
             " differs is reported on stderr and replaced by the fresh value",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dimensions, derivations, conformal-type report")
    p.add_argument("spec")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("variety", help="Groebner basis, Hilbert series, flags")
    p.add_argument("spec")
    p.set_defaults(func=cmd_variety)

    p = sub.add_parser("multiplet", help="Betti table and component fields")
    p.add_argument("kind", help="conf | kaehler | canonical | form:k")
    p.add_argument("spec")
    p.add_argument("--window", type=int, default=None,
                   help="also run the Koszul oracle up to this degree")
    p.set_defaults(func=cmd_multiplet)

    p = sub.add_parser("hdim", help="homological dimension")
    p.add_argument("spec")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=cmd_hdim)

    p = sub.add_parser("twist", help="twisted algebra and downstream analyses")
    p.add_argument("spec")
    p.add_argument("--q", required=True,
                   help="comma-separated rationals, or a catalog name like 'holomorphic'")
    p.add_argument("--analyses", nargs="*", default=None,
                   choices=["conf", "kaehler", "canonical", "variety", "conformal_type"])
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("prolong", help="maximal transitive prolongation")
    p.add_argument("spec")
    p.add_argument("--cap", type=int, default=4)
    p.set_defaults(func=cmd_prolong)

    p = sub.add_parser("verify", help="replay the paper-table fixtures")
    p.add_argument("--tier", choices=["fast", "all"], default="fast")
    p.add_argument("--case", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.cache_dir is None:  # read at call time, not when the parser was built
        args.cache_dir = cache_mod.default_cache_dir()
    try:
        # the command as the module holds it now, not as the cached parser bound it
        return globals()[args.func.__name__](args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except StepBudgetExceeded as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
