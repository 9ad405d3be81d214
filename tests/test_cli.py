import json

import pytest

from superconf.cache import cache_key, cached, load, store
from superconf.cli import main


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
    data = json.loads(out)
    assert data["g0_dim"] == 4
    assert data["conformal_type"]["conformal"] is True


def test_variety_command(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "variety", spec_3d_n1])
    data = json.loads(out)
    assert data["dim_variety"] == 0
    assert data["gorenstein"] is False
    assert data["hilbert_numerator"] == [[0, 1], [2, -3], [3, 2]]


def test_multiplet_command_json_betti(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "multiplet", "conf", spec_3d_n1])
    data = json.loads(out)
    assert data["betti"] == [[0, 0, 3], [1, 1, 2], [1, 2, 5], [2, 3, 4]]
    assert data["table"] == [[0, 0, 3], [0, 1, 2], [1, 0, 5], [1, 1, 4]]


def test_multiplet_with_oracle_window(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "multiplet", "conf", spec_3d_n1, "--window", "5"])
    data = json.loads(out)
    assert data["koszul_agrees"] is True


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


def test_prolong_command(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "prolong", spec_3d_n1, "--cap", "6"])
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


def test_verify_fast_tier_deterministic(capsys):
    code1, out1 = run(capsys, ["--json", "verify", "--tier", "fast"])
    code2, out2 = run(capsys, ["--json", "verify", "--tier", "fast"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_single_case(capsys):
    code, out = run(capsys, ["--json", "verify", "--case", "hdim-3d-n1"])
    data = json.loads(out)
    assert code == 0
    assert data["cases"][0]["passed"] is True


def test_form_multiplet_kind(capsys, spec_3d_n1):
    code, out = run(capsys, ["--json", "multiplet", "form:1", spec_3d_n1])
    data = json.loads(out)
    assert code == 0
    assert data["kind"] == "form:1"
    assert data["betti"]


def test_cache_dir_env_var(tmp_path, monkeypatch, capsys, spec_3d_n1):
    monkeypatch.setenv("SUPERCONF_CACHE_DIR", str(tmp_path))
    code, out1 = run(capsys, ["--json", "variety", spec_3d_n1])
    assert code == 0
    entries = list(tmp_path.rglob("*.json"))
    assert entries, "cache directory not populated from the environment"
    code, out2 = run(capsys, ["--json", "variety", spec_3d_n1])
    assert out1 == out2
