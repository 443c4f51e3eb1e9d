"""Hereditary base notation as base-free trees.

A tree is a tuple of ``(exponent, coefficient)`` terms, highest exponent
first, with strictly decreasing exponents and nonzero coefficients. Each
exponent is itself such a tuple, and zero is the empty tuple ``()``, so a
constant ``c`` is ``(((), c),)``. The tree stores no base: the same tuple
names ``2*3**(2*3**2) + 3**2 + 1`` when read in hereditary base 3 and
``2*4**(2*4**2) + 4**2 + 1`` when read in hereditary base 4; the base is
always an external parameter.

Read with ω in place of the base, a tree is a Cantor normal form, and
Python's tuple ``<`` is its ordinal order: a higher leading exponent wins,
then a larger coefficient, then the remaining terms, and a proper prefix
is smaller. Goodstein's termination argument is that this ordinal strictly
decreases at every strong step.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Iterator

from .errors import CoefficientOutOfRange, InvalidBase
from .numerals import Digits, to_digits

HereditaryTree = tuple[tuple["HereditaryTree", int], ...]

_ONE: HereditaryTree = (((), 1),)


def build_hereditary(value: int, base: int) -> HereditaryTree:
    """Canonical hereditary tree of ``value`` in hereditary base ``base``.

    Terms appear in strictly decreasing exponent order, zero coefficients
    are omitted, the units digit is the term with exponent ``()``, and
    every exponent is itself built recursively. Evaluating the result at
    ``base`` returns ``value``.
    """
    if 0 <= value < base and base > 1:  # to_digits checks the base and sign of the rest
        return (((), value),) if value else ()
    return build_from_digits(to_digits(value, base), base)


def build_from_digits(digits: Digits, base: int) -> HereditaryTree:
    """``build_hereditary`` from canonical digits; only the exponents are converted."""
    top = len(digits) - 1
    return tuple((build_hereditary(top - i, base), digits[i]) for i in compress(count(), digits))


def eval_tree(tree: HereditaryTree, base: int) -> int:
    """Evaluate a tree under the given base.

    A term ``(e, c)`` is ``c * base**eval(e)``, and ``()`` is 0.
    Reinterpretation at any base is legal as long as every coefficient
    fits below or at it.
    """
    if base < 2:
        raise InvalidBase(base)
    total = 0
    for exponent, coefficient in tree:
        if not 0 <= coefficient <= base:
            raise CoefficientOutOfRange(coefficient, base)
        total += coefficient * base ** eval_tree(exponent, base)
    return total


def iter_nodes(tree: HereditaryTree) -> Iterator[tuple[HereditaryTree, int]]:
    """Yield every term of the tree, each followed by the terms of its exponent."""
    for term in tree:
        yield term
        yield from iter_nodes(term[0])


def render_tree_text(tree: HereditaryTree, base: int) -> str:
    """Linear rendering with the usual elisions.

    Coefficient 1 and exponent 1 are omitted, constants print bare, a
    factor prints as ``c.``, and any exponent whose own rendering is not a
    bare numeral is parenthesized: ``2^(2^2) + 2^(2+1) + 1``.
    """
    return _render_chain(tree, base, nested=False)


def _render_chain(tree: HereditaryTree, base: int, nested: bool) -> str:
    parts = [_render_term(exponent, coefficient, base) for exponent, coefficient in tree]
    return ("+" if nested else " + ").join(parts) or "0"


def _render_term(exponent: HereditaryTree, coefficient: int, base: int) -> str:
    if not exponent:
        return str(coefficient)
    prefix = "" if coefficient == 1 else f"{coefficient}."
    if exponent == _ONE:
        return f"{prefix}{base}"
    rendered = _render_chain(exponent, base, nested=True)
    if rendered.isdigit():
        return f"{prefix}{base}^{rendered}"
    return f"{prefix}{base}^({rendered})"


def render_tree_dot(tree: HereditaryTree, label_base: int) -> str:
    """DOT digraph of the tree.

    One node per term, labeled with its coefficient; edges to a term's
    exponent are labeled ``exp``, edges to the following term ``add``.
    Zero draws as a single node labeled 0. The hereditary base appears
    only in the graph label, never in the node/edge set.
    """
    lines = [
        "digraph hereditary {",
        f'  label="hereditary base {label_base}";',
        "  node [shape=circle];",
    ]
    _emit_dot(tree or (((), 0),), lines, count())
    lines.append("}")
    return "\n".join(lines)


def _emit_dot(tree: HereditaryTree, lines: list[str], ids: count) -> str:
    """Append the nodes and edges of a nonempty tree; return its first node's id."""
    first_id = prev_id = ""
    for exponent, coefficient in tree:
        node_id = f"n{next(ids)}"
        lines.append(f'  {node_id} [label="{coefficient}"];')
        if prev_id:
            lines.append(f'  {prev_id} -> {node_id} [label="add"];')
        else:
            first_id = node_id
        if exponent:
            exponent_id = _emit_dot(exponent, lines, ids)
            lines.append(f'  {node_id} -> {exponent_id} [label="exp"];')
        prev_id = node_id
    return first_id
