import pytest

from zerosep.combfile import (load_combination, parse_combination,
                              serialize_combination)
from zerosep.errors import ParseError
from zerosep.pipeline import builtin_problem

SAMPLE = """\
# zerosep combination file v1
[specs]
F1 = dirichlet_L modulus=3 index=0
F2 = dirichlet_L modulus=3 index=1
[poly f]
vars = F1 F2
mono exps=1,0 coeff=1:1.0:0.0
mono exps=0,1 coeff=1:1.0:0.0
[poly g]
vars = F1 F2
mono exps=1,0 coeff=1:1.0:0.0
mono exps=0,1 coeff=1:-1.0:0.0
"""


def test_parse_sample():
    cf = parse_combination(SAMPLE)
    assert len(cf.specs) == 2
    assert cf.f.num_vars == 2 and cf.g.num_vars == 2
    prob = cf.build_problem()
    assert prob.shared_count == 2


def test_round_trip_is_lossless():
    cf = parse_combination(SAMPLE)
    text = serialize_combination(cf)
    cf2 = parse_combination(text)
    assert cf2 == cf
    assert serialize_combination(cf2) == text


def test_round_trip_with_inverse_factors_and_terms():
    text = "\n".join([
        "# zerosep combination file v1",
        "[specs]",
        "Z = riemann_zeta",
        "S = sparse_Z",
        "T = finite_euler primes=2:1.0:0.0,3:0.5:-0.25",
        "[poly f]",
        "vars = Z T",
        "mono exps=1,0 coeff=1:1.0:0.0;2:-2.0:0.0",
        "mono exps=0,1 coeff=1:1.0:0.0 inv=2:-1.0:0.0",
        "[poly g]",
        "vars = Z S",
        "mono exps=1,0 coeff=1:1.0:0.0",
        "mono exps=0,1 coeff=1:2.5:0.0",
    ]) + "\n"
    cf = parse_combination(text)
    assert cf.f.monomials[1][0].inverse_factors == ((2, (-1 + 0j,)),)
    out = serialize_combination(cf)
    assert parse_combination(out) == cf
    assert serialize_combination(parse_combination(out)) == out


def test_file_round_trip(tmp_path):
    cf = parse_combination(SAMPLE)
    path = tmp_path / "comb.txt"
    path.write_text(serialize_combination(cf))
    assert load_combination(str(path)) == cf


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_combination("no header\n")
    with pytest.raises(ParseError):
        parse_combination(SAMPLE.replace("[poly g]", "[poly h]"))
    with pytest.raises(ParseError):
        parse_combination(SAMPLE.replace("vars = F1 F2\nmono exps=1,0 coeff=1:1.0:0.0\nmono exps=0,1 coeff=1:-1.0:0.0\n", ""))
    with pytest.raises(ParseError):
        parse_combination(SAMPLE.replace("F2 = dirichlet_L modulus=3 index=1",
                                         "F2 = unknown_kind"))


def test_builtin_problems_build():
    for name in ("hurwitz-1-3-vs-2-3", "toy-finite-pair", "charpair-mod5",
                 "zeta-vs-sparse", "hurwitz-1-5-vs-2-5"):
        cf = builtin_problem(name)
        prob = cf.build_problem()
        assert not prob.f.is_monomial and not prob.g.is_monomial
        # declared specs rebuild and round-trip through the file grammar
        text = serialize_combination(cf)
        assert parse_combination(text) == cf


def test_builtin_hurwitz_aliases():
    a = builtin_problem("hurwitz 1/3 vs 2/3")
    b = builtin_problem("hurwitz-1-3-vs-2-3")
    assert a == b


def test_specs_with_colliding_labels_build():
    # the finite spec's label reads "zeta", as does the zeta function's
    text = "\n".join([
        "# zerosep combination file v1",
        "[specs]",
        "zeta = finite_euler primes=2:1.0:0.0",
        "z = riemann_zeta",
        "[poly f]",
        "vars = zeta z",
        "mono exps=1,0 coeff=1:1.0:0.0",
        "mono exps=0,1 coeff=1:-1.0:0.0",
        "[poly g]",
        "vars = zeta z",
        "mono exps=1,0 coeff=1:1.0:0.0",
        "mono exps=0,1 coeff=1:1.0:0.0",
    ]) + "\n"
    prob = parse_combination(text).build_problem()
    assert prob.shared_count == 2
    assert len(prob.variable_order) == 2
