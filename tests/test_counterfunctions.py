import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab.cli import main as cli_main
from cauchylab.counterfunctions import (
    Counterfunction,
    MetastabilityRate,
    parse_counterfunction,
    parse_nat_function2,
    query_budget,
)
from cauchylab.errors import ContractError, EvaluationCapExceeded


def test_sample_family_values():
    cases = {
        "0": [0, 0, 0],
        "1": [1, 1, 1],
        "5": [5, 5, 5],
        "20": [20, 20, 20],
        "n": [0, 1, 2],
        "2*n+3": [3, 5, 7],
    }
    for text, expected in cases.items():
        f = parse_counterfunction(text)
        assert [f(n) for n in range(3)] == expected
        assert f.description == text


def test_max_and_parentheses():
    f = parse_counterfunction("max(3, n) * (n + 1)")
    assert [f(n) for n in range(6)] == [3, 6, 9, 12, 20, 30]


def test_named_composition():
    lin = parse_counterfunction("2*n+3")
    f = parse_counterfunction("lin(lin(n))", named={"lin": lin})
    assert [f(n) for n in range(4)] == [9, 13, 17, 21]  # 4n + 9


def test_bit_exact_big_integers():
    f = parse_counterfunction("(n+1)*(n+1)*(n+1)")
    n = 10 ** 7
    assert f(n) == (n + 1) ** 3


def test_values_beyond_the_float_range_are_contract_errors():
    # s_i(n) = n^(2^(2^(i-1)) * ...): exact arithmetic on s6(2) alone would
    # not finish; the first product above the float range stops it
    named = {"s1": parse_counterfunction("n*n")}
    for i in range(2, 7):
        named[f"s{i}"] = parse_counterfunction(f"s{i - 1}(s{i - 1}(n))", named)
    f = parse_counterfunction("s6(n+2)", named)
    with pytest.raises(ContractError, match="exceeds the float range"):
        f(0)
    assert named["s3"](2) == 2**16
    # a literal is checked before it is converted, so no digit limit applies
    with pytest.raises(ContractError, match=r"1\.000e\+5000 exceeds the float range"):
        parse_counterfunction("1" + "0" * 5000)
    with pytest.raises(ContractError, match="exceeds the float range"):
        parse_nat_function2("k + " + "9" * 400, ("r", "k"))
    assert parse_counterfunction("0" * 5000 + "7")(3) == 7


def test_value_beyond_the_float_range_in_a_sweep_names_its_source(tmp_path, capsys):
    # the s6(n+2) chain above as the domain function of a 4.2 sweep: the one
    # error line names the theorem, the k and the expression
    chain = ", ".join(['s1: "n*n"'] + [f's{i}: "s{i - 1}(s{i - 1}(n))"' for i in range(2, 7)])
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(
        textwrap.dedent(
            f"""\
            seed: 7
            scenario:
              id: chain
              space: {{kind: hilbert, dim: 2}}
              operator: {{kind: scaled_identity, c: 1.0}}
              initial_point: [1.0, 0.0]
              solver: {{horizon: 10.0, step: 0.05}}
              modulus: {{kind: strongly_accretive, c: 1.0}}
              counterfunctions: {{{chain}}}
              sweeps:
                - {{theorem: "4.2", k_range: [0, 1], f_dom: "s6(n+2)"}}
            """
        )
    )
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: theorem 4.2 sweep over chain at k=0, f = s6(n+2): "
        "expression value 1.798e+308 exceeds the float range"
    ]


def test_parse_errors():
    for bad in ["", "q", "2 - n", "f(n", "max(n)", "n n", "(((n)"]:
        with pytest.raises(ContractError):
            parse_counterfunction(bad)
    with pytest.raises(ContractError):
        parse_counterfunction("g(n)", named={})


def test_totality_guards():
    f = Counterfunction(lambda n: n - 5, "broken")
    with pytest.raises(ContractError):
        f(2)  # negative result
    with pytest.raises(ContractError):
        f(-1)  # negative argument
    with pytest.raises(ContractError):
        parse_counterfunction("n")(1.5)


def test_two_variable_expressions():
    fn = parse_nat_function2("max(r, k) + 1", ("r", "k"))
    assert fn(3, 5) == 6
    assert fn(9, 2) == 10
    mod = parse_nat_function2("(k+1)*(k+1)", ("k", "K"))
    assert mod(2, 100) == 9


def test_budget_cap_and_offender():
    f = parse_counterfunction("n")
    with pytest.raises(EvaluationCapExceeded) as err:
        with query_budget(cap=100):
            for i in range(200):
                f(i)
    assert "n" in str(err.value)


def test_budget_shared_by_nested_queries():
    f = parse_counterfunction("n")
    with query_budget(cap=10_000) as budget:
        with query_budget(cap=5) as inner:
            assert inner is budget
        f(1)
        assert budget.used == 1


def test_no_budget_outside_queries():
    f = parse_counterfunction("n+1")
    for i in range(5000):
        f(i)  # unguarded evaluation does not accumulate anything


def test_metastability_rate_wrappers():
    rate = MetastabilityRate.from_convergence_rate(lambda k: 2 * k)
    assert rate.f_independent
    assert rate(3, Counterfunction.constant(9)) == 6
    zero = MetastabilityRate.zero()
    assert zero(7, Counterfunction.identity()) == 0
    with pytest.raises(ContractError):
        MetastabilityRate(fn=lambda k, f: -1)(0, Counterfunction.identity())


_expr = st.recursive(
    st.sampled_from(["n", "0", "1", "2", "7"]),
    lambda sub: st.builds(lambda a, b, op: f"({a} {op} {b})", sub, sub, st.sampled_from(["+", "*"]))
    | st.builds(lambda a, b: f"max({a}, {b})", sub, sub),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_expr, st.integers(0, 50))
def test_grammar_matches_python_eval(text, n):
    f = parse_counterfunction(text)
    assert f(n) == eval(text, {"n": n, "max": max})
