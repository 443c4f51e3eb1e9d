"""Hereditary base notation as base-free trees.

A node carries a multiplicative coefficient. Its vertical branch
(``exponent``) is the exponent written recursively in the same notation;
its horizontal branch (``next``) is the following additive term. The tree
stores no base, so the same object names ``2*3**(2*3**2) + 3**2 + 1`` when
read in hereditary base 3 and ``2*4**(2*4**2) + 4**2 + 1`` when read in
hereditary base 4; the base is always an external parameter.

Horizontal chains can be as long as a numeral has digits, so every walk
along ``next`` is iterative; recursion happens only down ``exponent``
branches, which stay shallow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional, Union

from .errors import CoefficientOutOfRange, DomainError, InvalidBase
from .numerals import Digits, to_digits


@dataclass(frozen=True)
class Leaf:
    coefficient: int


@dataclass(frozen=True)
class Node:
    coefficient: int
    exponent: "HereditaryTree"
    next: "Optional[HereditaryTree]"


HereditaryTree = Union[Leaf, Node]


def build_hereditary(value: int, base: int) -> HereditaryTree:
    """Canonical hereditary tree of ``value`` in hereditary base ``base``.

    Terms appear in strictly decreasing exponent order, zero coefficients
    are omitted, the units digit becomes the trailing Leaf, and every
    exponent is itself built recursively. Evaluating the result at
    ``base`` returns ``value``.
    """
    if base < 2:
        raise InvalidBase(base)
    if value < 0:
        raise DomainError(f"expected a natural number, got {value}")
    if value < base:
        return Leaf(value)
    return build_from_digits(to_digits(value, base), base)


def build_from_digits(digits: Digits, base: int) -> HereditaryTree:
    """``build_hereditary`` from canonical digits; only the exponents are converted."""
    top = len(digits) - 1
    tree: Optional[HereditaryTree] = Leaf(digits[-1]) if digits and digits[-1] else None
    for position in range(1, top + 1):
        coefficient = digits[top - position]
        if coefficient:
            tree = Node(coefficient, build_hereditary(position, base), tree)
    return Leaf(0) if tree is None else tree


def eval_tree(tree: Optional[HereditaryTree], base: int) -> int:
    """Evaluate a tree under the given base.

    ``Node(c, e, rest)`` is ``c * base**eval(e) + eval(rest)``, a ``Leaf``
    is its coefficient, an absent branch is 0. Reinterpretation at any
    base is legal as long as every coefficient fits below or at it.
    """
    if base < 2:
        raise InvalidBase(base)
    total = 0
    node = tree
    while node is not None:
        if not 0 <= node.coefficient <= base:
            raise CoefficientOutOfRange(node.coefficient, base)
        if isinstance(node, Leaf):
            total += node.coefficient
            break
        total += node.coefficient * base ** eval_tree(node.exponent, base)
        node = node.next
    return total


def iter_nodes(tree: Optional[HereditaryTree]) -> Iterator[HereditaryTree]:
    """Yield every node of the tree, exponents first, then the chain."""
    node = tree
    while node is not None:
        yield node
        if isinstance(node, Leaf):
            return
        yield from iter_nodes(node.exponent)
        node = node.next


def render_tree_text(tree: Optional[HereditaryTree], base: int) -> str:
    """Linear rendering with the usual elisions.

    Coefficient 1 and exponent 1 are omitted, constants print bare, a
    factor prints as ``c.``, and any exponent whose own rendering is not a
    bare numeral is parenthesized: ``2^(2^2) + 2^(2+1) + 1``.
    """
    return _render_chain(tree, base, nested=False)


def _render_chain(tree: Optional[HereditaryTree], base: int, nested: bool) -> str:
    parts: list[str] = []
    node = tree
    while node is not None:
        if isinstance(node, Leaf):
            parts.append(str(node.coefficient))
            break
        parts.append(_render_term(node, base))
        node = node.next
    if not parts:
        return "0"
    return ("+" if nested else " + ").join(parts)


def _render_term(node: Node, base: int) -> str:
    prefix = "" if node.coefficient == 1 else f"{node.coefficient}."
    exponent = node.exponent
    if isinstance(exponent, Leaf):
        if exponent.coefficient == 0:
            return str(node.coefficient)
        if exponent.coefficient == 1:
            return f"{prefix}{base}"
        return f"{prefix}{base}^{exponent.coefficient}"
    rendered = _render_chain(exponent, base, nested=True)
    if rendered.isdigit():
        return f"{prefix}{base}^{rendered}"
    return f"{prefix}{base}^({rendered})"


def render_tree_dot(tree: Optional[HereditaryTree], label_base: int) -> str:
    """DOT digraph of the tree.

    One node per tree node, labeled with its coefficient; vertical-branch
    edges are labeled ``exp``, horizontal ones ``add``. The hereditary base
    appears only in the graph label, never in the node/edge set.
    """
    lines = [
        "digraph hereditary {",
        f'  label="hereditary base {label_base}";',
        "  node [shape=circle];",
    ]
    ids = count()
    _emit_dot(tree, lines, ids)
    lines.append("}")
    return "\n".join(lines)


def _emit_dot(tree: Optional[HereditaryTree], lines: list[str], ids: count) -> Optional[str]:
    first_id: Optional[str] = None
    prev_id: Optional[str] = None
    node = tree
    while node is not None:
        node_id = f"n{next(ids)}"
        if first_id is None:
            first_id = node_id
        lines.append(f'  {node_id} [label="{node.coefficient}"];')
        if prev_id is not None:
            lines.append(f'  {prev_id} -> {node_id} [label="add"];')
        if isinstance(node, Leaf):
            break
        exponent_id = _emit_dot(node.exponent, lines, ids)
        lines.append(f'  {node_id} -> {exponent_id} [label="exp"];')
        prev_id, node = node_id, node.next
    return first_id
