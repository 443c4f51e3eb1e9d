import pytest
from hypothesis import given
from hypothesis import strategies as st

import definitions
from goodstein.errors import CoefficientOutOfRange, DomainError, InvalidBase
from goodstein.hereditary import (
    build_from_digits,
    build_hereditary,
    eval_tree,
    iter_nodes,
    render_tree_dot,
    render_tree_text,
)
from goodstein.numerals import to_digits
from goodstein.sequences import RunConfig, RunKind, run


ZERO = ()


def const(c):
    return ((ZERO, c),)


def test_build_25_base_2_structure():
    # 2^(2^2) + 2^(2+1) + 1
    two = ((const(1), 1),)
    three = ((const(1), 1), (ZERO, 1))
    four = ((two, 1),)
    assert build_hereditary(25, 2) == ((four, 1), (three, 1), (ZERO, 1))


def test_build_774840988_base_3_structure():
    # 2*3^(2*3^2) + 3^2 + 1
    eighteen = ((const(2), 2),)
    assert build_hereditary(774840988, 3) == ((eighteen, 2), (const(2), 1), (ZERO, 1))


@pytest.mark.parametrize("base", [2, 3, 10])
def test_build_constant_is_leaf(base):
    assert build_hereditary(1, base) == const(1) == (((), 1),)
    assert build_hereditary(0, base) == ZERO
    assert build_hereditary(base - 1, base) == const(base - 1)


@given(value=st.integers(0, 10**9), base=st.integers(2, 16))
def test_build_from_digits_matches_build(value, base):
    tree = build_from_digits(to_digits(value, base), base)
    assert tree == build_hereditary(value, base) == definitions.hereditary(value, base)


def test_build_rejects_bad_input():
    with pytest.raises(InvalidBase):
        build_hereditary(5, 1)
    with pytest.raises(DomainError):
        build_hereditary(-2, 3)


def test_eval_round_trip_exhaustive():
    for base in range(2, 7):
        for value in range(5000):
            assert eval_tree(build_hereditary(value, base), base) == value


@given(value=st.integers(0, 10**9), base=st.integers(2, 16))
def test_eval_round_trip_hypothesis(value, base):
    assert eval_tree(build_hereditary(value, base), base) == value


def test_eval_reinterpretation_of_25():
    tree = build_hereditary(25, 2)
    assert eval_tree(tree, 3) == 3**27 + 3**4 + 1 == 7625597485069


def test_eval_reinterpretation_of_774840988():
    tree = build_hereditary(774840988, 3)
    assert eval_tree(tree, 4) == 2 * 4**32 + 17 == 36893488147419103249


def test_same_tree_across_bases():
    # the bumped value rebuilt in the next base is the identical object
    assert build_hereditary(774840988, 3) == build_hereditary(36893488147419103249, 4)
    assert not hasattr(build_hereditary(25, 2), "base")


def test_coefficient_bounds_after_build():
    for base in range(2, 7):
        for value in range(1, 2000):
            for exponent, coefficient in iter_nodes(build_hereditary(value, base)):
                assert 1 <= coefficient < base


def test_exponents_strictly_decrease_along_chain():
    for base in (2, 3, 5):
        for value in (base**4 + base**2 + base, 1000, 729):
            tree = build_hereditary(value, base)
            exponents = [eval_tree(exponent, base) for exponent, _ in tree]
            assert exponents == sorted(exponents, reverse=True)
            assert len(set(exponents)) == len(exponents)


def test_monotone_reinterpretation_exhaustive():
    for base in range(2, 7):
        for value in range(0, 500):
            bumped = eval_tree(build_hereditary(value, base), base + 1)
            if value < base:
                assert bumped == value
            else:
                assert bumped > value


# uncapped bumps explode hyper-exponentially at small bases, so the value
# range stays low enough that every reinterpreted exponent is desk-scale
@given(value=st.integers(0, 5000), base=st.integers(2, 12))
def test_monotone_reinterpretation_hypothesis(value, base):
    bumped = eval_tree(build_hereditary(value, base), base + 1)
    if value < base:
        assert bumped == value
    else:
        assert bumped > value


def test_eval_rejects_oversized_coefficient():
    with pytest.raises(CoefficientOutOfRange):
        eval_tree(const(5), 3)
    with pytest.raises(CoefficientOutOfRange):
        eval_tree(build_hereditary(7, 8), 4)  # the constant 7 cannot be read in base 4


def test_eval_rejects_a_base_below_two():
    with pytest.raises(InvalidBase):
        eval_tree(const(1), 1)


def test_eval_allows_coefficient_equal_to_base():
    assert eval_tree(const(3), 3) == 3


def test_tuple_order_is_value_order_in_a_fixed_base():
    for base in range(2, 6):
        trees = [build_hereditary(value, base) for value in range(2000)]
        assert trees == sorted(trees)
        assert len(set(trees)) == len(trees)


def test_tuple_order_descends_along_strong_runs():
    # Goodstein's argument: read with ω for the base, the tree is a Cantor
    # normal form, and that ordinal strictly decreases at every strong step.
    steps = 0
    for start in range(1, 17):
        records = list(run(RunKind.STRONG, RunConfig(start, max_steps=400, max_bits=20000)))
        for prev, record in zip(records, records[1:]):
            assert build_hereditary(record.value, record.base) < build_hereditary(
                prev.value, prev.base
            ), (start, record.index)
        steps += len(records) - 1
    assert steps == 4837


def test_deep_chain_has_no_recursion_blowup():
    # 2**3000 - 1 is a 3000-term chain in base 2; only exponents recurse
    value = 2**3000 - 1
    tree = build_hereditary(value, 2)
    assert eval_tree(tree, 2) == value


# --- linear rendering -------------------------------------------------------

@pytest.mark.parametrize(
    "value, base, expected",
    [
        (25, 2, "2^(2^2) + 2^(2+1) + 1"),
        (774840988, 3, "2.3^(2.3^2) + 3^2 + 1"),
        (4, 2, "2^2"),
        (3, 2, "2 + 1"),
        (2, 2, "2"),
        (27, 3, "3^3"),
        (0, 5, "0"),
        (9, 10, "9"),
        (108, 3, "3^(3+1) + 3^3"),
    ],
)
def test_render_text(value, base, expected):
    assert render_tree_text(build_hereditary(value, base), base) == expected


def test_render_text_of_bare_leaf():
    assert render_tree_text(ZERO, 5) == "0"
    assert render_tree_text(const(4), 5) == "4"


# --- DOT rendering ------------------------------------------------------------

def test_dot_single_leaf():
    dot = render_tree_dot(const(2), 7)
    assert dot.startswith("digraph")
    assert dot.count("label=\"2\"") == 1
    assert "->" not in dot
    zero = render_tree_dot(ZERO, 7)
    assert zero.count("[label=") == 1
    assert '  n0 [label="0"];' in zero.splitlines()
    assert "->" not in zero


def test_dot_structure_matches_tree():
    tree = build_hereditary(25, 2)
    dot = render_tree_dot(tree, 2)
    terms = list(iter_nodes(tree))
    chains = [tree] + [exponent for exponent, _ in terms if exponent]
    node_lines = [l for l in dot.splitlines() if "[label=" in l and "->" not in l]
    exp_edges = [l for l in dot.splitlines() if '[label="exp"]' in l]
    add_edges = [l for l in dot.splitlines() if '[label="add"]' in l]
    assert len(node_lines) == len(terms) == 9
    assert len(exp_edges) == sum(1 for exponent, _ in terms if exponent) == 5
    assert len(add_edges) == sum(len(chain) - 1 for chain in chains) == 3
    assert dot.rstrip().endswith("}")


def test_dot_base_only_in_graph_label():
    tree = build_hereditary(25, 2)
    dot_3 = render_tree_dot(tree, 3).splitlines()
    dot_4 = render_tree_dot(tree, 4).splitlines()
    differing = [(a, b) for a, b in zip(dot_3, dot_4) if a != b]
    assert len(dot_3) == len(dot_4)
    assert len(differing) == 1
    assert "hereditary base 3" in differing[0][0]
    assert "hereditary base 4" in differing[0][1]
