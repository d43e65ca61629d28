"""Star-semirings, monoids, ranked trees and the two fold promotions.

Weights live in a star-semiring; sequential outputs live in a monoid; trees
are built over ranked symbols and may contain holes (a tree of arity k has
exactly k holes, consumed left to right).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .util import ExprSyntaxError, WeightError, render


@dataclass(frozen=True)
class StarSemiring:
    """A semiring with a (possibly partial) unary star, x* = 1 + x·x*."""

    name: str
    zero: Any
    one: Any
    plus: Callable[[Any, Any], Any]
    times: Callable[[Any, Any], Any]
    star: Callable[[Any], Any]

    def sum(self, items):
        acc = self.zero
        for x in items:
            acc = self.plus(acc, x)
        return acc

    def product(self, items):
        acc = self.one
        for x in items:
            acc = self.times(acc, x)
        return acc

    def __repr__(self):
        return f"StarSemiring({self.name})"


BOOLEANS = StarSemiring(
    "bool",
    zero=False,
    one=True,
    plus=lambda a, b: a or b,
    times=lambda a, b: a and b,
    star=lambda _x: True,
)


def _int_star(x):
    # The only integer with a finite iterate sum is 0; everything else is
    # rejected rather than silently approximated.
    if x == 0:
        return 1
    raise WeightError(f"weight not starrable: {x!r}")


INTEGERS = StarSemiring(
    "int",
    zero=0,
    one=1,
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
    star=_int_star,
)


@dataclass(frozen=True)
class MonoidValue:
    """A monoid given by its neutral element and binary operation."""

    name: str
    neutral: Any
    combine: Callable[[Any, Any], Any]

    def combine_all(self, items):
        acc = self.neutral
        for x in items:
            acc = self.combine(acc, x)
        return acc


INT_SUM = MonoidValue("int-sum", 0, lambda a, b: a + b)
INT_PRODUCT = MonoidValue("int-product", 1, lambda a, b: a * b)
STR_CONCAT = MonoidValue("str-concat", "", lambda a, b: a + b)
TUPLE_CONCAT = MonoidValue("tuple-concat", (), lambda a, b: a + b)


def product_monoid(m1: MonoidValue, m2: MonoidValue) -> MonoidValue:
    return MonoidValue(
        f"({m1.name})x({m2.name})",
        (m1.neutral, m2.neutral),
        lambda a, b: (m1.combine(a[0], b[0]), m2.combine(a[1], b[1])),
    )


# ---------------------------------------------------------------------------
# Ranked symbols and trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankedSymbol:
    name: str
    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be non-negative")

    def __repr__(self):
        return f"{self.name}/{self.arity}"


class RankedTree:
    """Base class; a tree is either the hole or a node."""

    __slots__ = ()

    def arity(self) -> int:
        raise NotImplementedError

    def compose(self, parts: Sequence["RankedTree"]) -> "RankedTree":
        """Replace this tree's holes, left to right, by `parts`."""
        if len(parts) != self.arity():
            raise ValueError(
                f"tree of arity {self.arity()} composed with {len(parts)} parts"
            )
        result, rest = self._fill(tuple(parts))
        assert not rest
        return result

    def _fill(self, parts):
        raise NotImplementedError


class _Hole(RankedTree):
    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def arity(self):
        return 1

    def _fill(self, parts):
        return parts[0], parts[1:]

    def __repr__(self):
        return "_"


HOLE = _Hole()


@dataclass(frozen=True)
class Node(RankedTree):
    symbol: RankedSymbol
    children: tuple = ()

    def __post_init__(self):
        if len(self.children) != self.symbol.arity:
            raise ValueError(
                f"symbol {self.symbol!r} expects {self.symbol.arity} children, "
                f"got {len(self.children)}"
            )

    def arity(self):
        return sum(child.arity() for child in self.children)

    def _fill(self, parts):
        filled = []
        for child in self.children:
            sub, parts = child._fill(parts)
            filled.append(sub)
        return Node(self.symbol, tuple(filled)), parts

    def __repr__(self):
        return tree_to_text(self)


@render.register(_Hole)
def _render_hole(_value):
    return "_"


@render.register(Node)
def _render_node(value):
    return tree_to_text(value)


def tree_to_text(t: RankedTree) -> str:
    """`name(child,...)` with `_` for holes and bare names for leaves."""
    if t is HOLE:
        return "_"
    assert isinstance(t, Node)
    if not t.children:
        return t.symbol.name
    return t.symbol.name + "(" + ",".join(tree_to_text(c) for c in t.children) + ")"


def parse_tree(text: str, alphabet: Sequence[RankedSymbol] | None = None) -> RankedTree:
    """Parse the `name(child,...)` format; `_` is a hole.

    When `alphabet` is given, symbols are resolved against it (and unknown
    names rejected); otherwise arities are inferred from the child counts.
    """
    by_name = {s.name: s for s in alphabet} if alphabet is not None else None
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_one() -> RankedTree:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ExprSyntaxError("unexpected end of tree", pos)
        if text[pos] == "_":
            pos += 1
            return HOLE
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "+-*/"):
            pos += 1
        name = text[start:pos]
        if not name:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        children = []
        skip_ws()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            while True:
                children.append(parse_one())
                skip_ws()
                if pos < len(text) and text[pos] == ",":
                    pos += 1
                    continue
                if pos < len(text) and text[pos] == ")":
                    pos += 1
                    break
                raise ExprSyntaxError("expected ',' or ')'", pos)
        if by_name is not None:
            if name not in by_name:
                raise ExprSyntaxError(f"unknown symbol {name!r}", start)
            symbol = by_name[name]
            if symbol.arity != len(children):
                raise ExprSyntaxError(
                    f"symbol {name!r} has arity {symbol.arity}, got {len(children)}",
                    start,
                )
        else:
            symbol = RankedSymbol(name, len(children))
        return Node(symbol, tuple(children))

    tree = parse_one()
    skip_ws()
    if pos != len(text):
        raise ExprSyntaxError("trailing input after tree", pos)
    return tree


def tree_arity(t: RankedTree) -> int:
    return t.arity()


def tree_compose(t: RankedTree, parts: Sequence[RankedTree]) -> RankedTree:
    return t.compose(parts)


def subtrees(t: RankedTree):
    """All subtrees of `t`, including `t` itself (pre-order, with repeats)."""
    yield t
    if isinstance(t, Node):
        for child in t.children:
            yield from subtrees(child)


# ---------------------------------------------------------------------------
# Fold promotions
# ---------------------------------------------------------------------------


def word_fold(symbol_map: Callable[[Any], Callable], word) -> Callable:
    """Promote a per-symbol endo-map to a per-word endo-map by composition.

    The empty word yields the identity; `word_fold(m, u + v)` equals
    `word_fold(m, v) . word_fold(m, u)`.
    """
    maps = [symbol_map(sym) for sym in word]

    def folded(config):
        for m in maps:
            config = m(config)
        return config

    return folded


def tree_fold(symbol_map: Callable[[RankedSymbol], Callable], t: RankedTree):
    """Evaluate a nullary tree bottom-up, `symbol_map` giving each symbol's
    n-ary operation."""
    if t is HOLE:
        raise ValueError("tree_fold requires a nullary tree (no holes)")
    assert isinstance(t, Node)
    op = symbol_map(t.symbol)
    if op is None:
        raise KeyError(f"no operation for symbol {t.symbol!r}")
    return op(*(tree_fold(symbol_map, child) for child in t.children))


def enumerate_trees(alphabet: Sequence[RankedSymbol], max_depth: int):
    """All nullary trees over `alphabet` of depth <= max_depth."""
    by_depth: list[list[RankedTree]] = []
    upto: list[RankedTree] = []
    for depth in range(max_depth):
        layer = []
        for sym in alphabet:
            if sym.arity == 0:
                if depth == 0:
                    layer.append(Node(sym))
            elif depth > 0:
                for combo in _tuples(upto, sym.arity):
                    node = Node(sym, combo)
                    if _depth(node) == depth + 1:
                        layer.append(node)
        by_depth.append(layer)
        upto = upto + layer
    return upto


def _tuples(pool, n):
    if n == 0:
        yield ()
        return
    for head in pool:
        for rest in _tuples(pool, n - 1):
            yield (head,) + rest


@functools.lru_cache(maxsize=None)
def _depth(t: RankedTree) -> int:
    if t is HOLE:
        return 1
    assert isinstance(t, Node)
    if not t.children:
        return 1
    return 1 + max(_depth(c) for c in t.children)
