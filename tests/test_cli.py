import hashlib
import json
from fractions import Fraction

import pytest

from superconf import groebner, linalg
from superconf.cache import cache_key, cached, canonical_bytes, load, store
from superconf.cli import main
from superconf.resolutions import BettiTable


CATALOG = 'algebra "3dN1" {{ standard {{ dimension = 3; supersymmetry = "N=1"; }} }}'


@pytest.fixture
def spec_3d_n1(tmp_path):
    path = tmp_path / "3dN1.spec"
    path.write_text(CATALOG.format(), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_hdim_command(capsys, spec_3d_n1):
    code, out = run(capsys, ["hdim", spec_3d_n1])
    assert code == 0
    assert out.strip() == "1"


def test_hdim_json(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "hdim", spec_3d_n1])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["hdim"] == 1


def test_info_command(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "info", spec_3d_n1])
    assert code == 0
    data = json.loads(out)
    assert data["g0_dim"] == 4
    assert data["conformal_type"]["conformal"] is True


def test_info_with_no_even_directions(capsys, tmp_path):
    """even_dim = 0 leaves the trace shift -2 tr B / d with nothing to divide."""
    path = tmp_path / "odd_only.spec"
    path.write_text('algebra "x" { odd_dim = 1; even_dim = 0; }', encoding="utf-8")
    code, out = run(capsys, ["--json", "--cache-dir", str(tmp_path / "cache"),
                             "info", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["g0_dim"] == 1
    assert data["conformal_type"]["has_invariant_metric"] is True
    assert data["conformal_type"]["conformal"] is False


CATALOG_KEYS = {
    "1d-n1": (1, "N=1"), "3d-n1": (3, "N=1"), "3d-n2": (3, "N=2"), "4d-n1": (4, "N=1"),
    "4d-n2": (4, "N=2"), "4d-n3": (4, "N=3"), "4d-n4": (4, "N=4"), "6d-n10": (6, "N=(1,0)"),
    "6d-n20": (6, "N=(2,0)"), "10d-n10": (10, "N=(1,0)"), "10d-n20": (10, "N=(2,0)"),
    "11d": (11, "N=1"),
}

# SHA-256 of `--json info` stdout, recorded before the layer values became ints
INFO_DIGESTS = {
    "1d-n1": "94958c6acc21198d5c9d1d8f23fb0af6aa28ef4000ea883c3108bf5556448df3",
    "3d-n1": "34e917cd6931d353e6ccd7f415278c08dc230e76e1bb0e1ee126a8fa69b915d4",
    "3d-n2": "ed24af4c435484bda290dbc93fc2431e3b3b1194d3062c9913c018e9f46f56ed",
    "4d-n1": "ed67b89edb47076c4d23c27af471074f93b5ed79b633fa802c5010973c6af57b",
    "4d-n2": "1dd27d7a8ce7a4a03ddaca0624e9dac124e4fa84920d03b1795fe033604deca2",
    "4d-n3": "4fc362b5f0d515efc58fc7953ca1ef871c5a91e1b489f6c813d9938a964e05f4",
    "4d-n4": "56531abe21c9aeaf7f2f39a4435853c0dfdcb1809d17f6bc1e0732672bb96a9d",
    "6d-n10": "bacb01e189c620f2e3f1a208afdc7d3073e6ae61aa856fefeb82e47c8839fbbe",
    "6d-n20": "a1322bf26f7e76439f90d6951a5a12d5ffa876eb751be484a7a3c66b11c47158",
    "10d-n10": "7df18710315ead65a4dd689ddd98abf1a671792a0bc2f6f7a60f02d0530ce3c4",
    "10d-n20": "82224b12f24bddeb80664ee037cf9bb3b140d0647fc5a35a22971013863eae60",
    "11d": "8618a8510027f766521054689d486ef73e0829a5a97f37a10af219de8c4ffa8a",
}

# SHA-256 of `--json twist --q holomorphic` stdout, recorded before the layers
# stored one action table per element
TWIST_DIGESTS = {
    "3d-n2": "bd5d3b302cc7b378257aa28ce761abeb2280cd97dcd2f2df53d61ae4a2cab9c4",
    "4d-n1": "d408c6e8273cc9be0d5d781f74289007ebdde5dcf804b77e64d1cd77e2127b92",
    "4d-n2": "356c405e76c86dc1f35d54096bfe7f2c45eb68bfce010c0c51e5a882996bc537",
    "4d-n3": "b02e619e883982907cbb94a6edf580cd749002d438bfb624810eb4a27471f021",
    "4d-n4": "aeb1c0f19b9787cdbcda7b33016af5e223183dd953af8ae2f51cdd98bc2a347a",
    "6d-n10": "12992ffece01de5e551f3e7a7ee6a86b9eefdb1b47b7336e049a6101bd67c619",
    "6d-n20": "75d23db7f5d4d5cad7fb70e4a6746687aaece39d00141706e6d43d2393a0d7bd",
    "10d-n10": "f68cea46746efda73fa155be2fc7c60e43d5a52d78513092fdaab448cd33b5fc",
    "10d-n20": "53b8407ed66c640c7f1a5e0a83ea4ac0a21f42765d1beb63c9203c110c44ebf7",
}


def _catalog_spec(tmp_path, key) -> str:
    dim, susy = CATALOG_KEYS[key]
    path = tmp_path / f"{key}.spec"
    path.write_text(
        f'algebra "{key}" {{ standard {{ dimension = {dim}; supersymmetry = "{susy}"; }} }}',
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_info_json_is_pinned_on_every_catalog_key(capsys, tmp_path, key):
    """`check_conformal_type` reads the layer-0 basis vectors themselves, so
    its report pins their values, not only the layer dimensions."""
    code, out = run(capsys, ["--json", "info", _catalog_spec(tmp_path, key)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == INFO_DIGESTS[key]


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_eliminations_see_only_ints_and_fractions(capsys, monkeypatch, tmp_path, key):
    """Every row handed to the integer elimination holds ints (no bools) and
    Fractions only: a float, say from `/` on two ints, would round exact zeros."""
    int_rows, bad = linalg._int_rows, []

    def checked(rows):
        for row in rows:
            bad.extend(v for v in row.values() if type(v) not in (int, Fraction))
            yield from int_rows([row])

    monkeypatch.setattr(linalg, "_int_rows", checked)
    spec = _catalog_spec(tmp_path, key)
    codes = [run(capsys, ["--json", "--cache-dir", str(tmp_path / "cache"), *argv])[0]
             for argv in (["info", spec], ["prolong", spec, "--cap", "2"])]
    codes.append(main(["--json", "--cache-dir", str(tmp_path / "cache"),
                       "twist", spec, "--q", "holomorphic"]))
    captured = capsys.readouterr()
    assert bad == []
    if key in TWIST_DIGESTS:
        assert codes == [0, 0, 0]
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == TWIST_DIGESTS[key]
    else:  # 1d N=1, 3d N=1 and 11d have no cataloged holomorphic twist
        assert codes == [0, 0, 2]
        assert captured.out == ""
        assert captured.err == f"error: no holomorphic twist vector cataloged for {key}\n"


def test_variety_command(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "variety", spec_3d_n1])
    assert code == 0
    data = json.loads(out)
    assert data["dim_variety"] == 0
    assert data["gorenstein"] is False
    assert data["hilbert_numerator"] == [[0, 1], [2, -3], [3, 2]]


def test_multiplet_command_json_betti(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "multiplet", "conf", spec_3d_n1])
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [[0, 0, 3], [1, 1, 2], [1, 2, 5], [2, 3, 4]]
    assert data["table"] == [[0, 0, 3], [0, 1, 2], [1, 0, 5], [1, 1, 4]]


def test_multiplet_with_oracle_window(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "multiplet", "conf", spec_3d_n1, "--window", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["koszul_agrees"] is True


@pytest.mark.parametrize("kind", ["conf", "kaehler"])
def test_negative_window_exits_2(capsys, tmp_path, spec_3d_n1, kind):
    argv = ["--json", "--cache-dir", str(tmp_path / "cache"),
            "multiplet", kind, spec_3d_n1, "--window", "-1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --window must be non-negative, got -1\n"


def test_twist_command(capsys, tmp_path):
    path = tmp_path / "3dN2.spec"
    path.write_text(
        'algebra "3dN2" { standard { dimension = 3; supersymmetry = "N=2"; } }',
        encoding="utf-8",
    )
    code, out = run(capsys, ["--json", "twist", str(path), "--q", "holomorphic"])
    data = json.loads(out)
    assert code == 0
    assert data["twisted"]["odd_dim"] == 0
    assert data["twisted"]["even_dim"] == 1
    assert data["hdim_invariant"] is True


@pytest.mark.parametrize(
    "name, dimension, q",
    [("foo", 3, "holomorphic"), ("4dN2", 4, "maximal")],
)
def test_twist_vector_ignores_spec_name(capsys, tmp_path, name, dimension, q):
    path = tmp_path / "renamed.spec"
    path.write_text(
        f'algebra "{name}" {{ standard {{ dimension = {dimension}; supersymmetry = "N=2"; }} }}',
        encoding="utf-8",
    )
    code, out = run(capsys, ["--json", "twist", str(path), "--q", q])
    assert code == 0
    data = json.loads(out)
    assert data["name"] == name
    assert (data["twisted"]["odd_dim"], data["twisted"]["even_dim"]) == (0, 1)


@pytest.mark.parametrize(
    "dimension, q",
    [(3, "holomorphic"), (4, "kapustin")],
)
def test_uncataloged_twist_vector_exits_2(capsys, tmp_path, dimension, q):
    # 3d N=1 has no nonzero square-zero element; 4d N=1 has no antichiral copy 1
    path = tmp_path / "n1.spec"
    path.write_text(
        f'algebra "n1" {{ standard {{ dimension = {dimension}; supersymmetry = "N=1"; }} }}',
        encoding="utf-8",
    )
    code = main(["--json", "twist", str(path), "--q", q])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"no {q} twist vector cataloged for n1" in captured.err
    assert "Traceback" not in captured.err


def test_zero_denominator_in_twist_vector_exits_2(capsys, spec_3d_n1):
    code = main(["--json", "twist", spec_3d_n1, "--q", "1/0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: twist vector '1/0,1' has a zero denominator\n"


def test_twist_vector_of_the_wrong_length_exits_2(capsys, tmp_path):
    path = tmp_path / "4dN2.spec"
    path.write_text(
        'algebra "4dN2" { standard { dimension = 4; supersymmetry = "N=2"; } }',
        encoding="utf-8",
    )
    code = main(["--json", "twist", str(path), "--q", "1,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --q has 2 components, expected 8\n"


def test_prolong_cap_below_one_exits_2(capsys, spec_3d_n1):
    code = main(["--json", "prolong", spec_3d_n1, "--cap", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --cap must be at least 1, got 0\n"


@pytest.mark.parametrize("susy", ["N=x", "N=", "N=(1,x)", "N=1.5", "N=-1"])
def test_malformed_supersymmetry_is_an_unsupported_key(capsys, tmp_path, susy):
    path = tmp_path / "bad.spec"
    path.write_text(
        f'algebra "x" {{ standard {{ dimension = 3; supersymmetry = "{susy}"; }} }}',
        encoding="utf-8",
    )
    code = main(["--json", "info", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: unsupported catalog key: dimension 3, susy {susy!r}\n"


@pytest.fixture
def spec_3d_n2(tmp_path):
    path = tmp_path / "3dN2.spec"
    path.write_text(
        'algebra "3dN2" { standard { dimension = 3; supersymmetry = "N=2"; } }',
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("q", ["\u0663,0,0,0", " 1_0 ,0,0,0", "1.0,0,0,0", "0,0,1.5,0", "1,0,0,",
                               "1.5", "\u0663"])
def test_twist_vector_takes_only_spec_rationals(capsys, spec_3d_n2, q):
    """Each component of a --q that is not a twist name (an identifier with
    no comma) is read by the spec reader's number rule: ASCII digits, an
    optional leading minus and slash, nothing around them.  The first that
    fails is named with its position."""
    pos, part = next((i, p) for i, p in enumerate(q.split(","), 1) if p not in ("0", "1"))
    code = main(["--json", "twist", spec_3d_n2, "--q", q])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --q component {pos} is not a rational: {part!r}\n"


@pytest.mark.parametrize("q", ["1,0,0,0", "2/2,0,0/5,-0"])
def test_numeric_twist_vector_matches_the_catalog_name(capsys, spec_3d_n2, q):
    assert run(capsys, ["--json", "twist", spec_3d_n2, "--q", q]) == run(
        capsys, ["--json", "twist", spec_3d_n2, "--q", "holomorphic"])


def test_unexpected_exception_exits_4(capsys, monkeypatch, spec_3d_n1):
    import superconf.cli

    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setattr(superconf.cli, "cmd_hdim", broken)
    code = main(["--json", "hdim", spec_3d_n1])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: broken command\n"


def test_prolong_command(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "prolong", spec_3d_n1, "--cap", "6"])
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [[-2, 3], [-1, 2], [0, 4], [1, 2], [2, 3]]
    assert data["status"] == "terminated"


def test_bad_spec_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text('algebra "x" { odd_dim = ; }', encoding="utf-8")
    code = main(["hdim", str(path)])
    assert code == 2


def test_usage_error_exit_code():
    assert main(["multiplet"]) == 2


def test_directory_as_spec_path_exits_2(capsys, tmp_path):
    code = main(["info", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Is a directory" in captured.err


def test_cache_roundtrip(tmp_path):
    key = cache_key({"a": 1})
    store(str(tmp_path), key, {"value": [1, 2, 3]})
    assert load(str(tmp_path), key) == {"value": [1, 2, 3]}


def test_cache_detects_tampering(tmp_path, capsys):
    key = cache_key({"b": 2})
    store(str(tmp_path), key, {"v": 1})
    path = tmp_path / key[:2] / (key + ".json")
    path.write_text(path.read_text().replace('"v":1', '"v":2'), encoding="utf-8")
    assert load(str(tmp_path), key) is None


def test_cache_key_sensitivity():
    a = cache_key({"order": "wgrevlex", "gens": ["x^2"]})
    b = cache_key({"order": "lex", "gens": ["x^2"]})
    assert a != b


def test_cache_key_carries_engine_version(monkeypatch):
    import superconf.cache

    before = cache_key({"a": 1})
    monkeypatch.setattr(superconf.cache, "__version__", "0.0.0-other")
    assert cache_key({"a": 1}) != before


def test_unwritable_cache_dir_warns_and_computes(capsys, tmp_path, spec_3d_n1):
    not_a_dir = tmp_path / "regular-file"
    not_a_dir.write_text("", encoding="utf-8")
    code, cached_out = run(capsys, ["--cache-dir", str(not_a_dir), "--json", "variety", spec_3d_n1])
    assert code == 0
    code, plain_out = run(capsys, ["--json", "variety", spec_3d_n1])
    assert code == 0 and cached_out == plain_out


def test_cached_verify_mode(tmp_path, capsys):
    calls = []

    def compute():
        calls.append(1)
        return {"n": 7}

    descriptor = {"what": "test"}
    v1 = cached(str(tmp_path), descriptor, compute)
    v2 = cached(str(tmp_path), descriptor, compute)
    assert v1 == v2 == {"n": 7}
    assert len(calls) == 1
    v3 = cached(str(tmp_path), descriptor, compute, verify=True)
    assert v3 == {"n": 7}
    assert len(calls) == 2


def _cache_entry(cache_dir):
    """The path of the one entry in a cache directory."""
    (path,) = cache_dir.rglob("*.json")
    return path


def test_verify_cache_on_an_agreeing_hit_is_silent(capsys, tmp_path, spec_3d_n1):
    argv = ["--json", "--cache-dir", str(tmp_path / "cache"), "variety", spec_3d_n1]
    code, first = run(capsys, argv)
    assert code == 0
    code = main(["--verify-cache", *argv])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == first
    assert captured.err == ""


def test_verify_cache_replaces_an_altered_entry(capsys, tmp_path, spec_3d_n1):
    """An entry whose value was altered and its digest rewritten loads as a
    hit; --verify-cache warns, prints the fresh payload, replaces the entry
    and exits 0: a stale entry is a cache fault, not a failed check."""
    cache = tmp_path / "cache"
    argv = ["--json", "--cache-dir", str(cache), "variety", spec_3d_n1]
    code, fresh = run(capsys, argv)
    assert code == 0
    path = _cache_entry(cache)
    wrapper = json.loads(path.read_text(encoding="utf-8"))
    good = dict(wrapper["value"])
    wrapper["value"]["hdim"] += 1
    wrapper["digest"] = hashlib.sha256(canonical_bytes(wrapper["value"])).hexdigest()
    path.write_text(json.dumps(wrapper), encoding="utf-8")
    code, stale = run(capsys, argv)
    assert code == 0
    assert json.loads(stale)["hdim"] == json.loads(fresh)["hdim"] + 1
    code = main(["--verify-cache", *argv])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fresh
    key = path.stem
    assert captured.err == (
        f"warning: cache entry {key[:12]} disagrees with recomputation; replacing\n")
    assert json.loads(path.read_text(encoding="utf-8"))["value"] == good
    assert run(capsys, argv) == (0, fresh)


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
def test_cache_entry_that_is_not_an_object_is_recomputed(capsys, tmp_path, spec_3d_n1, text):
    """An entry that is valid JSON but not a wrapper object is corrupt: the
    command warns, recomputes, rewrites the entry and exits 0."""
    cache = tmp_path / "cache"
    argv = ["--json", "--cache-dir", str(cache), "variety", spec_3d_n1]
    code, fresh = run(capsys, argv)
    assert code == 0
    path = _cache_entry(cache)
    path.write_text(text, encoding="utf-8")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fresh
    assert captured.err == (
        f"warning: ignoring corrupt cache entry {path.stem[:12]}: entry is not a JSON object\n")
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, fresh, "")


@pytest.mark.parametrize("value", [[], "x", 3, None])
def test_cache_value_that_is_not_an_object_is_recomputed(capsys, tmp_path, spec_3d_n1, value):
    """A wrapper whose value was replaced together with its digest by JSON
    that is not an object is corrupt: the command warns, recomputes, rewrites
    the entry and exits 0."""
    cache = tmp_path / "cache"
    argv = ["--json", "--cache-dir", str(cache), "variety", spec_3d_n1]
    code, fresh = run(capsys, argv)
    assert code == 0
    path = _cache_entry(cache)
    wrapper = json.loads(path.read_text(encoding="utf-8"))
    good = wrapper["value"]
    wrapper["value"] = value
    wrapper["digest"] = hashlib.sha256(canonical_bytes(value)).hexdigest()
    path.write_text(json.dumps(wrapper), encoding="utf-8")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fresh
    assert captured.err == (
        f"warning: ignoring corrupt cache entry {path.stem[:12]}: value is not a JSON object\n")
    assert json.loads(path.read_text(encoding="utf-8"))["value"] == good
    assert run(capsys, argv) == (0, fresh)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("command, reshape", [
    (["variety", "{spec}"], lambda value: {"x": 1}),
    (["multiplet", "conf", "{spec}", "--window", "5"],
     lambda value: {k: v for k, v in value.items() if k != "koszul_agrees"}),
], ids=["variety-x", "multiplet-without-verdict"])
def test_cache_value_of_another_shape_is_recomputed(capsys, tmp_path, spec_3d_n1, command,
                                                    reshape, as_json):
    """A wrapper whose value was replaced together with its digest by an
    object with another key set than the command computes is corrupt: the
    command warns, recomputes, rewrites the entry and exits 0.  Read as a hit,
    `{"x": 1}` printed a payload without fields or failed on a missing key,
    and a window entry without `koszul_agrees` dropped the oracle's verdict."""
    cache = tmp_path / "cache"
    argv = [*(["--json"] if as_json else []), "--cache-dir", str(cache),
            *(a.format(spec=spec_3d_n1) for a in command)]
    code, fresh = run(capsys, argv)
    assert code == 0
    path = _cache_entry(cache)
    wrapper = json.loads(path.read_text(encoding="utf-8"))
    good = wrapper["value"]
    wrapper["value"] = reshape(good)
    wrapper["digest"] = hashlib.sha256(canonical_bytes(wrapper["value"])).hexdigest()
    path.write_text(json.dumps(wrapper), encoding="utf-8")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fresh
    assert captured.err.startswith(
        f"warning: ignoring corrupt cache entry {path.stem[:12]}: value keys are not [")
    assert json.loads(path.read_text(encoding="utf-8"))["value"] == good
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, fresh, "")


def test_failed_koszul_oracle_exits_1_also_on_a_cache_hit(capsys, monkeypatch, tmp_path,
                                                          spec_3d_n1):
    """A window whose Tor table is off by one prints its payload and exits 1;
    the exit code is read off the payload, so the cached entry exits 1 too."""
    import superconf.cli

    real = superconf.cli.koszul_tor

    def off_by_one(module, window):
        table = real(module, window)
        cell = min(table.entries)
        return BettiTable({**table.entries, cell: table.entries[cell] + 1})

    monkeypatch.setattr(superconf.cli, "koszul_tor", off_by_one)
    argv = ["--json", "--cache-dir", str(tmp_path / "cache"),
            "multiplet", "conf", spec_3d_n1, "--window", "4"]
    error = "verification failed: the Koszul oracle disagrees with the Betti table on degrees 0..4\n"
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["koszul_agrees"] is False
    assert captured.err == error
    monkeypatch.undo()
    code = main(argv)
    hit = capsys.readouterr()
    assert code == 1
    assert (hit.out, hit.err) == (captured.out, error)


def test_twist_that_moves_hdim_exits_1(capsys, monkeypatch, spec_3d_n2):
    import superconf.twisting

    real, shift = superconf.twisting.hdim, iter((0, 1))  # source, then twisted algebra
    monkeypatch.setattr(superconf.twisting, "hdim", lambda alg: real(alg) + next(shift))
    code = main(["--json", "twist", spec_3d_n2, "--q", "holomorphic"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert code == 1
    assert data["hdim_invariant"] is False
    assert data["hdim_twisted"] == data["hdim_source"] + 1
    assert captured.err == (f"verification failed: hdim is not invariant under the twist:"
                            f" {data['hdim_source']} -> {data['hdim_twisted']}\n")


def test_hdim_cross_check_mismatch_exits_1(capsys, monkeypatch, spec_3d_n1):
    """Koszul homology forced to vanish everywhere contradicts hdim = 1; this
    exited 4 as an AssertionError before the check raised VerificationFailed."""
    import superconf.multiplets

    monkeypatch.setattr(superconf.multiplets, "koszul_homology_is_zero", lambda *a: True)
    code = main(["--json", "hdim", "--cross-check", spec_3d_n1])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "verification failed: hdim mismatch: formula gives 1, Koszul vanishing gives 0\n")


def test_verify_single_case(capsys):
    code, out = run(capsys, ["--json", "verify", "--case", "hdim-3d-n1"])
    data = json.loads(out)
    assert code == 0
    assert data["cases"][0]["passed"] is True


def test_verify_case_outside_the_tier_names_its_tier(capsys):
    code = main(["verify", "--case", "hdim-11d"])  # slow tier, not run under --tier fast
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "fixture 'hdim-11d' is in the slow tier; --tier all runs it\n"


def test_verify_unknown_case_exits_2(capsys):
    assert main(["verify", "--case", "no-such-case"]) == 2
    assert capsys.readouterr().err == "no fixture named 'no-such-case'\n"


def test_form_multiplet_kind(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "multiplet", "form:1", spec_3d_n1])
    data = json.loads(out)
    assert code == 0
    assert data["kind"] == "form:1"
    assert data["betti"]


@pytest.mark.parametrize("kind", ["form:x", "form:", "form:1.5", "form: 1", "form:+1", "form:01"])
def test_malformed_form_kind_exits_2(capsys, tmp_path, spec_3d_n1, kind):
    cache = tmp_path / "cache"
    code = main(["--json", "--cache-dir", str(cache), "multiplet", kind, spec_3d_n1])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: unknown multiplet kind {kind!r}\n"
    assert not cache.exists() or not any(cache.rglob("*.json"))


def test_form_degree_out_of_range_names_the_degree_and_the_range(capsys, tmp_path, spec_3d_n1):
    code = main(["--cache-dir", str(tmp_path / "cache"), "multiplet", "form:99", spec_3d_n1])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: form degree 99 out of range 0..3\n"


def test_variety_computes_the_hilbert_numerator_once(capsys, monkeypatch, spec_3d_n1):
    """`hilbert_series`, `krull_dim` and `is_gorenstein` read one numerator:
    each computation starts `_monomial_numerator` with a fresh memo."""
    memos = []
    real = groebner._monomial_numerator

    def counted(gens, ring, memo):
        if not any(memo is seen for seen in memos):
            memos.append(memo)
        return real(gens, ring, memo)

    monkeypatch.setattr(groebner, "_monomial_numerator", counted)
    code, out = run(capsys, ["--json", "variety", spec_3d_n1])
    assert code == 0 and json.loads(out)["dim_variety"] == 0
    assert len(memos) == 1


def test_form_zero_multiplet_output_is_unchanged(capsys, tmp_path, spec_3d_n1):
    code, out = run(capsys, ["--json", "--cache-dir", str(tmp_path / "cache"),
                             "multiplet", "form:0", spec_3d_n1])
    assert code == 0
    assert out == ('{"betti":[[0,0,1],[1,2,3],[2,3,2]],"complete":true,"kind":"form:0",'
                   '"name":"3dN1","schema":1,"table":[[0,0,1],[1,0,3],[1,1,2]]}\n')


def test_cache_dir_env_var(tmp_path, monkeypatch, capsys, spec_3d_n1):
    monkeypatch.setenv("SUPERCONF_CACHE_DIR", str(tmp_path))
    code, out1 = run(capsys, ["--json", "variety", spec_3d_n1])
    assert code == 0
    entries = list(tmp_path.rglob("*.json"))
    assert entries, "cache directory not populated from the environment"
    code, out2 = run(capsys, ["--json", "variety", spec_3d_n1])
    assert out1 == out2


@pytest.mark.parametrize("body", [
    # tokens after the algebra's closing brace, a second algebra among them
    'algebra "x" { odd_dim = 1; even_dim = 1; } junk',
    'algebra "x" { odd_dim = 1; even_dim = 1; }\nalgebra "y" { odd_dim = 2; even_dim = 1; }',
    # a field given twice
    'algebra "x" { odd_dim = 1; odd_dim = 2; even_dim = 1; }',
    'algebra "x" { odd_dim = 1; even_dim = 1; gamma { (1,1) -> [1]; } gamma { (1,1) -> [1]; } }',
    'algebra "x" { odd_dim = 1; even_dim = 1; gamma { (1,1) -> [1]; } even_dim = 2; }',
    'algebra "x" { standard { dimension = 3; dimension = 4; supersymmetry = "N=1"; } }',
    # a negative dimension
    'algebra "x" { odd_dim = -1; even_dim = 1; }',
    'algebra "x" { odd_dim = 0; even_dim = -1; }',
    # a 2d catalog key with a negative N
    'algebra "x" { standard { dimension = 2; supersymmetry = "N=(-1,1)"; } }',
    # a quoted "," or "}" taken for punctuation
    'algebra "x" { odd_dim = 1; even_dim = 2; gamma { (1,1) -> [1 "," 2]; } }',
    'algebra "x" { odd_dim = 1; even_dim = 1; gamma { "}" } }',
])
def test_malformed_spec_exits_2(capsys, tmp_path, body):
    path = tmp_path / "bad.spec"
    path.write_text(body, encoding="utf-8")
    code = main(["--json", "info", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, first_line", [
    (["info", "{spec}"], "algebra 3dN1: odd 2 | even 3"),
    (["variety", "{spec}"], "nilpotence variety of 3dN1"),
    (["multiplet", "conf", "{spec}"], "conf multiplet of 3dN1"),
    (["twist", "{spec}", "--q", "0,0"], "twist of 3dN1 by q = (0, 0)"),
    (["prolong", "{spec}"], "prolongation of 3dN1 (terminated)"),
    (["verify", "--case", "conf-betti-3d-n1"],
     "ok   conf-betti-3d-n1 [fast] - 3d N=1 multiplet table (frame, gravitino; metric, Penrose)"),
])
def test_text_output(capsys, tmp_path, spec_3d_n1, argv, first_line):
    argv = ["--cache-dir", str(tmp_path)] + [a.format(spec=spec_3d_n1) for a in argv]
    code, out = run(capsys, argv)
    assert code == 0
    assert out.splitlines()[0] == first_line


def test_twist_analyses_payload(capsys, tmp_path):
    path = tmp_path / "3dN2.spec"
    path.write_text(
        'algebra "3dN2" { standard { dimension = 3; supersymmetry = "N=2"; } }',
        encoding="utf-8",
    )
    code, out = run(capsys, ["--json", "twist", str(path), "--q", "holomorphic", "--analyses",
                             "conf", "kaehler", "canonical", "variety", "conformal_type"])
    assert code == 0
    assert json.loads(out)["analyses"] == {
        "canonical": {"betti": [[0, 0, 1]], "table": [[0, 0, 1]]},
        "conf": {"betti": [[0, 0, 1]], "table": [[0, 0, 1]]},
        "conformal_type": {"conformal": False, "surjective_bracket": False},
        "kaehler": {"betti": [[0, 2, 1]], "table": [[2, -2, 1]]},
        "variety": {"gb_size": 0, "hilbert_numerator": [[0, 1]]},
    }
