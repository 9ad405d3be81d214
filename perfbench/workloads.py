"""The benchmark's three workloads: their inputs, their cases and their checks.

A workload is prepared once per process (`prepare`): spec files are written
under a work directory, parsed and built.  That is the set-up the `setup_s`
metric times.  A pass then runs every case back to back.  Each case returns
the text it produced, which is digested so a traced pass can be compared with
an untraced one, and whether its check passed.

Engine functions are always looked up through their module at call time
(`resolutions.koszul_tor`, not a name bound at import), so that the tracer's
wrappers see these calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from superconf import (
    cli,
    fixtures,
    groebner,
    multiplets,
    prolongation,
    resolutions,
    specfile,
)

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

CATALOG = {
    "1d-n1": (1, "N=1"),
    "3d-n1": (3, "N=1"),
    "3d-n2": (3, "N=2"),
    "4d-n1": (4, "N=1"),
    "4d-n2": (4, "N=2"),
    "4d-n3": (4, "N=3"),
    "4d-n4": (4, "N=4"),
    "6d-n10": (6, "N=(1,0)"),
    "6d-n20": (6, "N=(2,0)"),
    "10d-n10": (10, "N=(1,0)"),
    "11d": (11, "N=1"),
}


@dataclass
class Case:
    name: str
    run: Callable[[], tuple[str, bool]]  # -> (output text, check passed)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))


# --- catalog workloads: the CLI in-process -------------------------------------

_FIX = {case.name: case for case in fixtures.FIXTURES}


def _betti_is(name):
    return lambda p: p["betti"] == _FIX[name].expected


def _table_is(name):
    cells = {(r, c): sum(ms) for r, c, ms in _FIX[name].expected}
    return lambda p: {(r, c): v for r, c, v in p["table"]} == cells


def _koszul_is(name):
    return lambda p: p["koszul_agrees"] is True and p["koszul_betti"] == _FIX[name].expected


def _field_is(field, name):
    return lambda p: p[field] == _FIX[name].expected


def _prolong_dims_is(name):
    expected = [[int(m), v] for m, v in _FIX[name].expected.items()]
    return lambda p: p["status"] == "terminated" and p["dims"] == expected


def _prolong_totals_is(name):
    return lambda p: [p["total_even"], p["total_odd"]] == _FIX[name].expected


def _prolong_degree1_is(name):
    return lambda p: dict(map(tuple, p["dims"])).get(1, 0) == _FIX[name].expected


def _twist_dims_is(name):
    return lambda p: [p["twisted"]["odd_dim"], p["twisted"]["even_dim"]] == _FIX[name].expected


def _twist_conf_row0_is(name):
    return lambda p: sum(v for r, _, v in p["analyses"]["conf"]["table"] if r == 0) == (
        _FIX[name].expected
    )


def _variety_checks(key):
    return [_field_is(f, f"{f}-{key}") for f in ("hdim", "gorenstein") if f"{f}-{key}" in _FIX]


# (case name, CLI arguments with SPEC for the spec path, spec key, fixture
# checks).  A case without fixture checks must reproduce the recorded stdout
# digest.
SPEC = "{spec}"
MULTIPLET_CASES = [
    ("multiplet-conf-3d-n1", ["multiplet", "conf", SPEC], "3d-n1",
     [_betti_is("conf-betti-3d-n1"), _table_is("table-3d-n1")]),
    ("multiplet-conf-3d-n2", ["multiplet", "conf", SPEC], "3d-n2", [_table_is("table-3d-n2")]),
    ("multiplet-conf-4d-n1", ["multiplet", "conf", SPEC], "4d-n1", [_table_is("table-4d-n1")]),
    ("multiplet-conf-4d-n2", ["multiplet", "conf", SPEC], "4d-n2", [_table_is("table-4d-n2")]),
    ("multiplet-conf-6d-n10", ["multiplet", "conf", SPEC], "6d-n10", [_table_is("table-6d-n10")]),
    ("multiplet-conf-4d-n3", ["multiplet", "conf", SPEC], "4d-n3", []),
    ("multiplet-conf-3d-n1-window5", ["multiplet", "conf", SPEC, "--window", "5"], "3d-n1",
     [_betti_is("conf-betti-3d-n1"), _koszul_is("conf-betti-3d-n1")]),
    ("multiplet-canonical-3d-n1", ["multiplet", "canonical", SPEC], "3d-n1",
     [_betti_is("canonical-betti-3d-n1")]),
    ("multiplet-canonical-4d-n1", ["multiplet", "canonical", SPEC], "4d-n1", []),
    ("multiplet-canonical-6d-n20", ["multiplet", "canonical", SPEC], "6d-n20", []),
    ("multiplet-kaehler-3d-n1", ["multiplet", "kaehler", SPEC], "3d-n1", []),
    ("multiplet-kaehler-4d-n1", ["multiplet", "kaehler", SPEC], "4d-n1", []),
    ("multiplet-kaehler-6d-n10", ["multiplet", "kaehler", SPEC], "6d-n10", []),
    ("multiplet-form1-6d-n10", ["multiplet", "form:1", SPEC], "6d-n10", []),
    ("multiplet-form2-6d-n10", ["multiplet", "form:2", SPEC], "6d-n10", []),
    ("twist-6d-n20-holomorphic",
     ["twist", SPEC, "--q", "holomorphic", "--analyses", "conf", "variety"], "6d-n20",
     [_twist_dims_is("twist-6d-n20-hol"), _twist_conf_row0_is("twist-6d-n20-conf-row0")]),
]

VARIETY_CASES = [
    *((f"variety-{key}", ["variety", SPEC], key, _variety_checks(key)) for key in (
        "3d-n1", "3d-n2", "4d-n1", "4d-n2", "4d-n3", "4d-n4", "6d-n10", "6d-n20", "10d-n10")),
    ("hdim-11d", ["hdim", SPEC], "11d", [_field_is("hdim", "hdim-11d")]),
    *((f"info-{key}", ["info", SPEC], key, []) for key in ("3d-n1", "4d-n1", "6d-n20", "10d-n10", "11d")),
    ("prolong-3d-n1-cap6", ["prolong", SPEC, "--cap", "6"], "3d-n1", [_prolong_dims_is("prolong-3d-n1")]),
    ("prolong-4d-n1-cap4", ["prolong", SPEC, "--cap", "4"], "4d-n1",
     [_prolong_totals_is("prolong-4d-n1")]),
    ("prolong-11d-cap2", ["prolong", SPEC, "--cap", "2"], "11d", [_prolong_degree1_is("prolong-11d")]),
]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_argv(args: list[str], spec_path: Path) -> list[str]:
    return ["--json", *(str(spec_path) if a == SPEC else a for a in args)]


def _cli_case(name, args, spec_path, checks, digests) -> Case:
    argv = cli_argv(args, spec_path)

    def run():
        code, text = run_cli(argv)
        if code != 0:
            return text, False
        if checks:
            payload = json.loads(text)
            return text, all(check(payload) for check in checks)
        return text, digest(text) == digests.get(name)

    return Case(name, run)


def write_spec(workdir: Path, name: str, spec: specfile.AlgebraSpec):
    """Write one spec file, parse it back and build the algebra once.

    Returns the path and the parsed spec.  Cases build their algebra again on
    every run, as the CLI does, so no pass reuses state cached on an algebra
    by an earlier one.
    """
    path = workdir / f"{name}.spec"
    path.write_text(specfile.render_spec(spec), encoding="utf-8")
    parsed = specfile.parse_spec(path.read_text(encoding="utf-8"))
    parsed.build()
    return path, parsed


def catalog_specs(workdir: Path, keys) -> dict[str, tuple[Path, specfile.AlgebraSpec]]:
    return {
        key: write_spec(workdir, key, specfile.AlgebraSpec(key, standard=CATALOG[key]))
        for key in sorted(set(keys))
    }


def catalog_cases(table, workdir: Path, seed: int, digests: dict) -> list[Case]:
    specs = catalog_specs(workdir, (key for _, _, key, _ in table))
    cases = [_cli_case(name, args, specs[key][0], checks, digests)
             for name, args, key, checks in table]
    random.Random(seed).shuffle(cases)
    return cases


# --- cross-oracles: seeded random brackets and the prolongation oracles -------

# (odd dim k, even dim d, draws, top degree of the Koszul-homology window,
# top degree of the Tor window).  The shapes are fixed; the seed draws only the
# bracket coefficients, every entry of the bracket being drawn nonzero.  The
# windows are fixed per shape: the identities hold degree by degree, and the
# top of the criterion-9 window (Betti max degree + 3) is what gave that suite
# its heavy tail in the seed.
ORACLE_SHAPES = (
    (4, 2, 5, 10, 6),
    (3, 3, 3, 10, 6),
    (3, 4, 2, 7, 6),
    (2, 4, 2, 12, 6),
    (4, 1, 1, 12, 6),
)
JACOBI_DEGREES = [-2, -1, 0, 1]
JACOBI_CAP = 6
DERIVATION_CAP = 4
_NUMERATORS = (1, -1, 2, -2, 3)
_DENOMINATORS = (1, 1, 1, 2)


def random_spec(rng: random.Random, name: str, k: int, d: int) -> specfile.AlgebraSpec:
    """An explicit `gamma {}` spec with every bracket entry drawn nonzero."""
    gamma = {
        (a, b): tuple(
            Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS)) for _ in range(d)
        )
        for a in range(1, k + 1)
        for b in range(a, k + 1)
    }
    return specfile.AlgebraSpec(name, odd_dim=k, even_dim=d, gamma=gamma)


def oracle_specs(seed: int) -> list[tuple[specfile.AlgebraSpec, int, int]]:
    """The seeded algebras with their (Koszul-homology top, Tor top) windows."""
    rng = random.Random(seed)
    out = []
    for k, d, draws, top, tor_top in ORACLE_SHAPES:
        for n in range(draws):
            out.append((random_spec(rng, f"random-{k}x{d}-{n}", k, d), top, tor_top))
    return out


def _betti_list(table) -> list:
    return [[i, j, m] for (i, j), m in sorted(table.entries.items())]


def cross_check(spec: specfile.AlgebraSpec, top: int, tor_top: int) -> tuple[str, bool]:
    """The four criterion-9 oracle identities on one algebra."""
    alg = spec.build()
    ring = alg.ring()
    quadrics = alg.quadrics()
    nonzero = [q for q in quadrics if not q.is_zero()]
    # (a) resolution Betti numbers vs the Koszul Tor oracle, in a fixed window
    conf = multiplets.conf_module(alg)
    _, betti = resolutions.minimal_free_resolution(conf.module)
    oracle = resolutions.koszul_tor(conf.module, (0, tor_top))
    agree_tor = oracle.entries == betti.restrict((0, tor_top)).entries
    # (b) Euler characteristic of the canonical resolution vs the Hilbert numerator
    _, cbetti = resolutions.minimal_free_resolution(multiplets.canonical_module(alg).module)
    euler: dict = {}
    for (idx, j), mult in cbetti.entries.items():
        euler[j] = euler.get(j, 0) + (-1) ** idx * mult
    euler = {j: c for j, c in euler.items() if c}
    gb = groebner.ideal_gb(ring, nonzero)
    agree_euler = euler == groebner.hilbert_series(gb).numerator
    # (c) first Koszul homology = syzygetic defect + Kaehler differentials
    kaehler = multiplets.kaehler_module(alg)
    h1 = resolutions.ce_cohomology(alg, 1, (0, top))
    defect = resolutions.syzygetic_defect(ring, quadrics, (0, top))
    kdims = [kaehler.graded_dim(j) for j in range(top + 1)]
    agree_h1 = all(h1[j] == defect[j] + kdims[j] for j in range(top + 1))
    # (d) hdim formula vs the top non-vanishing Koszul homology
    value = alg.d - alg.k + groebner.krull_dim(gb)
    topk = next(
        (kk for kk in range(alg.d, 0, -1)
         if not resolutions.koszul_homology_is_zero(ring, quadrics, kk, [2] * alg.d)),
        0,
    )
    text = json.dumps({
        "betti": _betti_list(betti),
        "canonical_betti": _betti_list(cbetti),
        "h1": [h1[j] for j in range(top + 1)],
        "kaehler": kdims,
        "hdim": value,
        "koszul_top": topk,
    }, sort_keys=True)
    return text, agree_tor and agree_euler and agree_h1 and topk == value


def jacobi_check(spec: specfile.AlgebraSpec) -> tuple[str, bool]:
    alg = spec.build()
    res = prolongation.tanaka_prolongation(alg, max_degree=JACOBI_CAP)
    ok = prolongation.ProlongationBrackets(alg, res).check_jacobi(JACOBI_DEGREES)
    return json.dumps(sorted(res.dims.items())), ok


def derivation_check(spec: specfile.AlgebraSpec) -> tuple[str, bool]:
    """Truncated prolongation dims against the derivation-complex oracle."""
    alg = spec.build()
    res = prolongation.tanaka_prolongation(alg, max_degree=DERIVATION_CAP)
    h0 = prolongation.derivation_complex_h0(alg, DERIVATION_CAP)
    ok = res.status == "capped" and all(
        sum(h0.get(m, (0, 0))) == res.dims.get(m, 0) for m in range(-2, DERIVATION_CAP + 1)
    )
    return json.dumps(sorted(h0.items())), ok


def oracle_cases(workdir: Path, seed: int) -> list[Case]:
    cases = []
    for spec, top, tor_top in oracle_specs(seed):
        _, parsed = write_spec(workdir, spec.name, spec)
        cases.append(Case(f"oracles-{spec.name}",
                          lambda p=parsed, t=top, w=tor_top: cross_check(p, t, w)))
    specs = catalog_specs(workdir, ("3d-n1", "1d-n1"))
    cases.append(Case("jacobi-3d-n1", lambda: jacobi_check(specs["3d-n1"][1])))
    cases.append(Case("derivation-oracle-1d-n1", lambda: derivation_check(specs["1d-n1"][1])))
    return cases


def prepare(workload: str, seed: int, workdir: Path) -> list[Case]:
    """Write, parse and build the workload's inputs; return its cases."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "catalog-multiplets":
        return catalog_cases(MULTIPLET_CASES, workdir, seed, load_digests())
    if workload == "catalog-varieties":
        return catalog_cases(VARIETY_CASES, workdir, seed, load_digests())
    if workload == "cross-oracles":
        return oracle_cases(workdir, seed)
    raise ValueError(f"unknown workload {workload!r}")
