import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodstein.errors import CoefficientOutOfRange, DomainError, InvalidBase
from goodstein.hereditary import (
    Leaf,
    Node,
    build_from_digits,
    build_hereditary,
    eval_tree,
    iter_nodes,
    render_tree_dot,
    render_tree_text,
)
from goodstein.numerals import to_digits


def test_build_25_base_2_structure():
    # 2^(2^2) + 2^(2+1) + 1
    two = Node(1, Leaf(1), None)
    three = Node(1, Leaf(1), Leaf(1))
    four = Node(1, two, None)
    assert build_hereditary(25, 2) == Node(1, four, Node(1, three, Leaf(1)))


def test_build_774840988_base_3_structure():
    # 2*3^(2*3^2) + 3^2 + 1
    eighteen = Node(2, Leaf(2), None)
    assert build_hereditary(774840988, 3) == Node(2, eighteen, Node(1, Leaf(2), Leaf(1)))


@pytest.mark.parametrize("base", [2, 3, 10])
def test_build_constant_is_leaf(base):
    assert build_hereditary(1, base) == Leaf(1)
    assert build_hereditary(0, base) == Leaf(0)


@given(value=st.integers(0, 10**9), base=st.integers(2, 16))
def test_build_from_digits_matches_build(value, base):
    assert build_from_digits(to_digits(value, base), base) == build_hereditary(value, base)


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
            for node in iter_nodes(build_hereditary(value, base)):
                assert 0 <= node.coefficient < base
                if isinstance(node, Node):
                    assert node.coefficient >= 1


def test_exponents_strictly_decrease_along_chain():
    for base in (2, 3, 5):
        for value in (base**4 + base**2 + base, 1000, 729):
            node = build_hereditary(value, base)
            exponents = []
            while isinstance(node, Node):
                exponents.append(eval_tree(node.exponent, base))
                node = node.next
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
        eval_tree(Leaf(5), 3)
    with pytest.raises(CoefficientOutOfRange):
        eval_tree(build_hereditary(7, 8), 4)  # Leaf(7) cannot be read in base 4


def test_eval_allows_coefficient_equal_to_base():
    assert eval_tree(Leaf(3), 3) == 3


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
    assert render_tree_text(Leaf(0), 5) == "0"
    assert render_tree_text(Leaf(4), 5) == "4"


# --- DOT rendering ------------------------------------------------------------

def test_dot_single_leaf():
    dot = render_tree_dot(Leaf(2), 7)
    assert dot.startswith("digraph")
    assert dot.count("label=\"2\"") == 1
    assert "->" not in dot


def test_dot_structure_matches_tree():
    tree = build_hereditary(25, 2)
    dot = render_tree_dot(tree, 2)
    nodes = list(iter_nodes(tree))
    node_lines = [l for l in dot.splitlines() if "[label=" in l and "->" not in l]
    exp_edges = [l for l in dot.splitlines() if '[label="exp"]' in l]
    add_edges = [l for l in dot.splitlines() if '[label="add"]' in l]
    assert len(node_lines) == len(nodes)
    assert len(exp_edges) == sum(1 for n in nodes if isinstance(n, Node))
    assert len(add_edges) == sum(1 for n in nodes if isinstance(n, Node) and n.next is not None)
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
