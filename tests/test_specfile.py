from fractions import Fraction

import pytest

from superconf.specfile import SpecError, parse_spec, render_spec


CATALOG_TEXT = 'algebra "3dN1" { standard { dimension = 3; supersymmetry = "N=1"; } }'

EXPLICIT_TEXT = """
algebra "threeD" {
  odd_dim = 2; even_dim = 3;
  gamma {
    (1,1) -> [2,0,0];
    (1,2) -> [0,1,0];
    (2,2) -> [0,0,2];
  }
}
"""


def test_parse_catalog():
    spec = parse_spec(CATALOG_TEXT)
    assert spec.standard == (3, "N=1")
    alg = spec.build()
    assert (alg.k, alg.d) == (2, 3)
    assert sorted(str(q) for q in alg.quadrics()) == ["2*l1*l2", "l1^2", "l2^2"]


def test_parse_explicit_matches_catalog_ideal():
    spec = parse_spec(EXPLICIT_TEXT)
    alg = spec.build()
    assert (alg.k, alg.d) == (2, 3)
    # ideal (l1^2, l1 l2, l2^2) up to unit scaling
    quadrics = sorted(str(q) for q in alg.quadrics())
    assert quadrics == ["2*l1*l2", "2*l1^2", "2*l2^2"]


def test_symmetry_violation():
    text = 'algebra "bad" { odd_dim = 2; even_dim = 1; gamma { (1,2) -> [1]; (2,1) -> [2]; } }'
    with pytest.raises(SpecError):
        parse_spec(text)


def test_row_length_mismatch():
    text = 'algebra "bad" { odd_dim = 2; even_dim = 2; gamma { (1,1) -> [1]; } }'
    with pytest.raises(SpecError):
        parse_spec(text)


def test_index_out_of_range():
    text = 'algebra "bad" { odd_dim = 1; even_dim = 1; gamma { (1,2) -> [1]; } }'
    with pytest.raises(SpecError):
        parse_spec(text)


def test_syntax_error_carries_position():
    with pytest.raises(SpecError) as err:
        parse_spec('algebra "x" { odd_dim = ; }')
    assert "line 1" in str(err.value)


def test_round_trip():
    for text in (CATALOG_TEXT, EXPLICIT_TEXT):
        spec = parse_spec(text)
        rendered = render_spec(spec)
        assert render_spec(parse_spec(rendered)) == rendered


def test_rationals_in_gamma():
    text = 'algebra "half" { odd_dim = 1; even_dim = 1; gamma { (1,1) -> [1/2]; } }'
    alg = parse_spec(text).build()
    assert alg.gamma[0][0][0] == Fraction(1, 2)


@pytest.mark.parametrize("text, message", [
    ('algebra "x" { odd_dim = ; }', "expected number, found ';' (line 1, column 25)"),
    ("algebra x", "expected string, found 'x' (line 1, column 9)"),
    ('algebra "x', "unterminated string (line 1, column 9)"),
    ('algebra "x" { odd_dim = 1.5; }', "unexpected character '.' (line 1, column 26)"),
    ('algebra "x" { odd_dim = 1; even_dim = 1; ',
     "unexpected end of input (line 1, column 40)"),
    ('algebra "x" { 5 }', "unexpected token '5' (line 1, column 15)"),
    ('algebra "x" { foo = 1; }', "unexpected token 'foo' (line 1, column 15)"),
    ('algebra "x" { standard { dim = 3; } }', "unknown field 'dim' (line 1, column 26)"),
    ('algebra "x" { standard { dimension = 3; } }',
     "standard block needs dimension and supersymmetry (line 1, column 15)"),
    ('algebra "x" { gamma { (1,1) -> [1]; } }',
     "dimensions must be declared before gamma (line 1, column 23)"),
    ('algebra "x" { }', "odd_dim and even_dim are required (line 1, column 1)"),
    ('algebra "x" { odd_dim = 1; even_dim = 1; gamma { (1,1) -> [1/2/3]; } }',
     "bad rational '1/2/3' (line 1, column 60)"),
    ('algebra "x" {\n  odd_dim = 1;\n  even_dim = 1;\n  gamma { (1,1) -> [1/0]; }\n}\n',
     "bad rational '1/0' (line 4, column 21)"),
    # a quoted "," or "}" is a string, never the punctuation it spells
    ('algebra "x" { odd_dim = 1; even_dim = 2; gamma { (1,1) -> [1 "," 2]; } }',
     "expected ], found ',' (line 1, column 62)"),
    ('algebra "x" { odd_dim = 1; even_dim = 1; gamma { "}" } }',
     "expected (, found '}' (line 1, column 50)"),
    ('algebra "x" { "}" }', "unexpected token '}' (line 1, column 15)"),
    ('algebra "x" { standard { "}" } }', "expected ident, found '}' (line 1, column 26)"),
])
def test_error_messages_and_positions(text, message):
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert str(err.value) == message

