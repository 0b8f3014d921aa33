"""Value joins in buffered handlers: the indexed probe against the nested loop.

The probe (:mod:`repro.engine.xquery_exec`) is a candidate prefilter whose
only obligation is never to drop a true match; these tests hold it to that
over a pool of values that mixes numbers, number look-alikes and strings,
with multi-valued and empty operands on both sides, in both operand
orientations and with scaled operands -- every case under both
``join`` modes, against a brute-force evaluation of the general comparison.
"""

from __future__ import annotations

import pytest

import repro.engine.xquery_exec as xquery_exec
from repro import ExecutionOptions, FluxSession
from repro.baselines import NaiveDomEngine
from repro.xquery.ast import ForExpr, IfExpr
from repro.xquery.optimize import hoist_guards
from repro.xquery.parser import parse_query
from repro.xquery.semantics import _as_number, _compare_atomic, _format_number, equality_key

JOIN_MODES = ("indexed", "nested")
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

#: Numbers, number look-alikes (``"1_0"`` and ``"nan"`` parse as floats),
#: padded numbers, signed zero and plain and padded strings.
POOL = ("7", " 7 ", "7.0", "-0", "0", "1e1", "10", "nan", "1_0", "abc", "abc ", "")

DTD = """
<!ELEMENT r (a*, b*)>
<!ELEMENT a (k*, n)>
<!ELEMENT b (k*, n)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT n (#PCDATA)>
"""


def _a_values():
    # Two values per node (multi-valued outer side), then one node without any.
    return [[POOL[i], POOL[(3 * i + 1) % len(POOL)]] for i in range(len(POOL))] + [[]]


def _b_values():
    # One value per node, a few two-valued nodes, and one node without any.
    single = [[POOL[(2 * j + 5) % len(POOL)]] for j in range(len(POOL))]
    double = [[POOL[j], POOL[(j + 4) % len(POOL)]] for j in range(0, len(POOL), 3)]
    return single + double + [[]]


def _document(a_values, b_values):
    def element(tag, index, values):
        keys = "".join(f"<k>{value}</k>" for value in values)
        return f"<{tag}>{keys}<n>{tag}{index}</n></{tag}>"

    parts = [element("a", i, values) for i, values in enumerate(a_values)]
    parts += [element("b", j, values) for j, values in enumerate(b_values)]
    return "<r>" + "".join(parts) + "</r>"


def _query(condition):
    return (
        "<out>{ for $r in $ROOT/r return { for $a in $r/a return <row>{ $a/n }"
        f"{{ for $b in $r/b where {condition} return {{ $b/n }} }}</row> }} }}</out>"
    )


def _scaled(values, coefficient):
    if coefficient is None:
        return values
    numbers = (_as_number(value) for value in values)
    return [_format_number(coefficient * n) for n in numbers if n is not None]


def _expected(a_values, b_values, op, *, b_left, a_coef=None, b_coef=None):
    """Brute-force existential comparison, in document order."""
    out = ["<out>"]
    for i, a in enumerate(a_values):
        out.append(f"<row><n>a{i}</n>")
        left_a = _scaled(a, a_coef)
        for j, b in enumerate(b_values):
            left_b = _scaled(b, b_coef)
            pairs = [(x, y) for x in left_b for y in left_a] if b_left else [
                (y, x) for x in left_b for y in left_a
            ]
            if any(_compare_atomic(x, op, y) for x, y in pairs):
                out.append(f"<n>b{j}</n>")
        out.append("</row>")
    out.append("</out>")
    return "".join(out)


@pytest.fixture
def index_builds(monkeypatch):
    """Count join indexes the executor builds."""
    built = []

    class CountingIndex(xquery_exec._JoinIndex):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(xquery_exec, "_JoinIndex", CountingIndex)
    return built


def _run(condition, document, join):
    session = FluxSession(DTD, root_element="r")
    prepared = session.prepare(_query(condition))
    result = prepared.execute(document, options=ExecutionOptions(join=join))
    reference = NaiveDomEngine(_query(condition)).run(document).output
    assert result.output == reference
    return result.output


# ---------------------------------------------------------------------------
# The equality key


def test_equality_key_partitions_exactly_like_compare_atomic():
    for left in POOL:
        for right in POOL:
            left_key, right_key = equality_key(left), equality_key(right)
            same = left_key is not None and left_key == right_key
            assert same == _compare_atomic(left, "=", right), (left, right)
            if same:
                assert hash(left_key) == hash(right_key)


def test_equality_key_drops_nan_and_strips_strings():
    assert equality_key("nan") is None
    assert equality_key(" 7 ") == equality_key("7.0") == equality_key("7")
    assert equality_key("-0") == equality_key("0")
    assert equality_key("1_0") == equality_key("1e1") == equality_key("10")
    assert equality_key(" abc ") == ("s", "abc")


# ---------------------------------------------------------------------------
# Probe semantics, both join modes


@pytest.mark.parametrize("join", JOIN_MODES)
@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("b_left", [True, False], ids=["inner-left", "inner-right"])
def test_mixed_value_join_matches_brute_force(join, op, b_left, index_builds):
    a_values, b_values = _a_values(), _b_values()
    condition = f"$b/k {op} $a/k" if b_left else f"$a/k {op} $b/k"
    output = _run(condition, _document(a_values, b_values), join)
    assert output == _expected(a_values, b_values, op, b_left=b_left)
    probed = join == "indexed" and op != "!="
    assert bool(index_builds) == probed


@pytest.mark.parametrize("join", JOIN_MODES)
@pytest.mark.parametrize(
    "condition, op, b_left, a_coef, b_coef",
    [
        ("$b/k > 2 * $a/k", ">", True, 2.0, None),
        ("2 * $b/k <= $a/k", "<=", True, None, 2.0),
        ("$a/k = 0.5 * $b/k", "=", False, None, 0.5),
        ("-1 * $a/k < $b/k", "<", False, -1.0, None),
    ],
)
def test_scaled_path_joins(join, condition, op, b_left, a_coef, b_coef):
    a_values, b_values = _a_values(), _b_values()
    output = _run(condition, _document(a_values, b_values), join)
    assert output == _expected(
        a_values, b_values, op, b_left=b_left, a_coef=a_coef, b_coef=b_coef
    )


@pytest.mark.parametrize("join", JOIN_MODES)
def test_multi_valued_sides_emit_each_node_once_in_document_order(join):
    # b1 matches a0 through both of its values; b0 and b2 through one.
    document = _document(
        [["1", "2"]],
        [["2"], ["1", "2.0"], [" 1 "], ["3"]],
    )
    output = _run("$b/k = $a/k", document, join)
    assert output == "<out><row><n>a0</n><n>b0</n><n>b1</n><n>b2</n></row></out>"


@pytest.mark.parametrize("join", JOIN_MODES)
def test_empty_operands_never_match(join):
    document = _document([[], ["5"]], [[], ["5"], []])
    for op in OPERATORS:
        output = _run(f"$b/k {op} $a/k", document, join)
        assert output.startswith("<out><row><n>a0</n></row>")


@pytest.mark.parametrize("join", JOIN_MODES)
def test_join_conjunct_of_a_conjunction_is_probed(join, index_builds):
    document = _document(_a_values(), _b_values())
    _run("$b/k = $a/k and exists $b/n", document, join)
    assert bool(index_builds) == (join == "indexed")


def test_inequality_falls_back_to_the_nested_loop(index_builds):
    document = _document(_a_values(), _b_values())
    _run("$b/k != $a/k", document, "indexed")
    assert index_builds == []


def test_index_is_built_once_per_firing(index_builds):
    # One firing, eleven-plus outer iterations: one index over $r/b.
    _run("$b/k = $a/k", _document(_a_values(), _b_values()), "indexed")
    assert len(index_builds) == 1


def test_join_option_is_validated():
    assert ExecutionOptions().join == "indexed"
    with pytest.raises(ValueError, match="join"):
        ExecutionOptions(join="hash")


# ---------------------------------------------------------------------------
# Guard hoisting


def test_hoisting_keeps_a_guard_that_reads_the_inner_variable_on_the_inner_loop():
    expr = parse_query(
        "{ for $x in $r/a return { for $y in $x/b return "
        "{ if $y/c = $x/d then { $y } } } }"
    )
    hoisted = hoist_guards(expr)
    assert isinstance(hoisted, ForExpr) and hoisted.where is None
    inner = hoisted.body
    assert isinstance(inner, ForExpr) and inner.var == "$y"
    assert inner.where is not None and inner.where.to_source() == "$y/c = $x/d"


def test_hoisting_lifts_a_guard_that_does_not_read_the_inner_variable():
    expr = parse_query(
        "{ for $x in $r/a return { for $y in $x/b return "
        "{ if $x/d = \"1\" then { $y } } } }"
    )
    hoisted = hoist_guards(expr)
    assert isinstance(hoisted, ForExpr) and hoisted.where.to_source() == '$x/d = "1"'
    assert isinstance(hoisted.body, ForExpr) and hoisted.body.where is None


def test_hoisting_a_guard_free_of_every_loop_variable_yields_an_if():
    expr = parse_query('{ for $x in $r/a return { if $r/d = "1" then { $x } } }')
    hoisted = hoist_guards(expr)
    assert isinstance(hoisted, IfExpr)
    assert isinstance(hoisted.body, ForExpr) and hoisted.body.where is None
