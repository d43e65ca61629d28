"""Weighted word expressions and the three automaton constructions.

Expressions carry generic operators (concatenation, star, sum, scalar
multiplications, boolean negation/intersection and custom n-ary functions).
Each construction is parametric in an effect container: positions (Glushkov),
derivation (partial derivatives generalized to containers) and induction
(structural combination of automata).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Sequence

from .algebra import BOOLEANS, StarSemiring
from .automata import (
    WordAutomaton,
    complement_complete_dfa,
    concatenate,
    determinize,
    intersection,
    kleene_star,
    scale_left,
    scale_right,
    union,
)
from .containers import EffectContainer
from .util import Scanner, UnsupportedOperation, render

# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


class WordExpression:
    __slots__ = ()


@dataclass(frozen=True)
class Epsilon(WordExpression):
    def __repr__(self):
        return "Epsilon"

    def __str__(self):
        return "1"


@dataclass(frozen=True)
class Empty(WordExpression):
    def __repr__(self):
        return "Empty"

    def __str__(self):
        return "0"


@dataclass(frozen=True)
class Sym(WordExpression):
    symbol: Any

    def __str__(self):
        return render(self.symbol)


@dataclass(frozen=True)
class Op(WordExpression):
    operator: Any
    operands: tuple

    def __str__(self):
        return expr_to_text(self)


EPSILON = Epsilon()
EMPTY = Empty()


class Operator:
    __slots__ = ()
    arity = 0


@dataclass(frozen=True)
class Concat(Operator):
    arity = 2


@dataclass(frozen=True)
class Star(Operator):
    arity = 1


@dataclass(frozen=True)
class Plus(Operator):
    arity = 2


@dataclass(frozen=True)
class MultL(Operator):
    weight: Any
    arity = 1


@dataclass(frozen=True)
class MultR(Operator):
    weight: Any
    arity = 1


@dataclass(frozen=True)
class Not(Operator):
    arity = 1


@dataclass(frozen=True)
class Inter(Operator):
    arity = 2


@dataclass(frozen=True)
class FunctionOp(Operator):
    """Custom operator: a label, an arity and an n-ary weight function.

    Printing always fully parenthesizes custom operators, so the fixity
    record is just the label as written."""

    label: str
    arity_: int
    fn: Callable = field(compare=False, repr=False)

    @property
    def arity(self):
        return self.arity_


def concat(e1, e2) -> Op:
    return Op(Concat(), (e1, e2))


def star(e) -> Op:
    return Op(Star(), (e,))


def plus(e1, e2) -> Op:
    return Op(Plus(), (e1, e2))


def mult_l(w, e) -> Op:
    return Op(MultL(w), (e,))


def mult_r(e, w) -> Op:
    return Op(MultR(w), (e,))


def neg(e) -> Op:
    return Op(Not(), (e,))


def inter(e1, e2) -> Op:
    return Op(Inter(), (e1, e2))


SIMPLE_OPS = ("plus", "concat", "star")
SCALAR_OPS = SIMPLE_OPS + ("multl", "multr")
BOOLEAN_OPS = SIMPLE_OPS + ("not", "inter")


@dataclass(frozen=True)
class PosSym:
    """A symbol occurrence indexed by its position in a linearization."""

    index: int
    base: Any

    def __repr__(self):
        return f"{self.base}{self.index}"

    def __str__(self):
        return f"{render(self.base)}{self.index}"


# ---------------------------------------------------------------------------
# Printing and parsing
# ---------------------------------------------------------------------------

_PREC_INTER, _PREC_SUM, _PREC_CONCAT, _PREC_TIGHT = 0, 1, 2, 3


def expr_to_text(e: WordExpression) -> str:
    """Grammar-compatible text; `&` loosest, then `+`, then `.`, then
    postfix operators."""

    def go(node, prec):
        if isinstance(node, Epsilon):
            return "1"
        if isinstance(node, Empty):
            return "0"
        if isinstance(node, Sym):
            return str(node.symbol)
        op = node.operator
        if isinstance(op, Inter):
            text = f"{go(node.operands[0], _PREC_INTER)}&{go(node.operands[1], _PREC_INTER + 1)}"
            return f"({text})" if prec > _PREC_INTER else text
        if isinstance(op, Plus):
            text = f"{go(node.operands[0], _PREC_SUM)}+{go(node.operands[1], _PREC_SUM + 1)}"
            return f"({text})" if prec > _PREC_SUM else text
        if isinstance(op, Concat):
            text = f"{go(node.operands[0], _PREC_CONCAT)}.{go(node.operands[1], _PREC_CONCAT + 1)}"
            return f"({text})" if prec > _PREC_CONCAT else text
        if isinstance(op, Star):
            # postfix star only attaches to atoms, stars and parens
            inner = node.operands[0]
            text = go(inner, _PREC_TIGHT)
            if isinstance(inner, Op) and isinstance(inner.operator, (MultL, MultR, Not)):
                text = f"({text})"
            return f"{text}*"
        if isinstance(op, Not):
            inner = node.operands[0]
            text = go(inner, _PREC_TIGHT)
            if isinstance(inner, Op) and isinstance(inner.operator, (MultL, MultR)):
                text = f"({text})"
            return f"~{text}"
        if isinstance(op, MultL):
            return f"[{op.weight}]:{go(node.operands[0], _PREC_TIGHT)}"
        if isinstance(op, MultR):
            inner = node.operands[0]
            text = go(inner, _PREC_TIGHT)
            if isinstance(inner, Op) and isinstance(inner.operator, MultL):
                text = f"({text})"
            return f"{text}:[{op.weight}]"
        if isinstance(op, FunctionOp):
            inner = ",".join(go(x, _PREC_SUM) for x in node.operands)
            return f"{op.label}({inner})"
        raise TypeError(f"unknown operator {op!r}")

    return go(e, _PREC_INTER)


class _Parser(Scanner):
    """Recursive-descent parser for the word expression grammar.

    expr   := sum ('&' sum)*
    sum    := term ('+' term)*
    term   := factor ('.' factor)*
    factor := '[' int ']' ':' factor | prefixed (':' '[' int ']')*
    prefixed := '~' prefixed | atom '*'*
    atom   := letter | '1' | '0' | '(' expr ')'
    """

    def expr(self):
        start = self.depth
        e = self.sum()
        while self.chained("&"):
            e = inter(e, self.sum())
        self.depth = start
        return e

    def sum(self):
        start = self.depth
        e = self.term()
        while self.chained("+"):
            e = plus(e, self.term())
        self.depth = start
        return e

    def term(self):
        start = self.depth
        e = self.factor()
        while self.chained("."):
            e = concat(e, self.factor())
        self.depth = start
        return e

    def factor(self):
        start = self.depth
        if self.peek() == "[":
            w = self.scalar()
            self.eat(":")
            self.nest()
            e = mult_l(w, self.factor())
        else:
            e = self.prefixed()
            while self.peek() == ":":
                self.eat(":")
                self.nest()
                e = mult_r(e, self.scalar())
        self.depth = start
        return e

    def scalar(self) -> int:
        self.eat("[")
        negative = self.peek() == "-"
        self.pos += negative
        value = self.digits("integer scalar")
        self.eat("]")
        return -value if negative else value

    def prefixed(self):
        if self.peek() == "~":
            self.eat("~")
            self.nest()
            return neg(self.prefixed())
        e = self.atom()
        while self.peek() == "*":
            self.eat("*")
            self.nest()
            e = star(e)
        return e

    def atom(self):
        ch = self.peek()
        if ch == "(":
            return self.group()
        if ch == "1":
            self.pos += 1
            return EPSILON
        if ch == "0":
            self.pos += 1
            return EMPTY
        if ch.isalpha():
            self.pos += 1
            return Sym(ch)
        self.error("expected an atom")


def parse_expression(text: str) -> WordExpression:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def nullable(e: WordExpression, weights: StarSemiring):
    """Weight of the empty word in `e`."""
    if isinstance(e, Epsilon):
        return weights.one
    if isinstance(e, (Empty, Sym)):
        return weights.zero
    op = e.operator
    if isinstance(op, Concat):
        return weights.times(
            nullable(e.operands[0], weights), nullable(e.operands[1], weights)
        )
    if isinstance(op, Plus):
        return weights.plus(
            nullable(e.operands[0], weights), nullable(e.operands[1], weights)
        )
    if isinstance(op, Star):
        return weights.star(nullable(e.operands[0], weights))
    if isinstance(op, MultL):
        return weights.times(op.weight, nullable(e.operands[0], weights))
    if isinstance(op, MultR):
        return weights.times(nullable(e.operands[0], weights), op.weight)
    if isinstance(op, Not):
        _require_boolean(weights, "negation")
        return not nullable(e.operands[0], weights)
    if isinstance(op, Inter):
        _require_boolean(weights, "intersection")
        return nullable(e.operands[0], weights) and nullable(e.operands[1], weights)
    if isinstance(op, FunctionOp):
        return op.fn(*(nullable(x, weights) for x in e.operands))
    raise TypeError(f"unknown operator {op!r}")


def _require_boolean(weights, what):
    if weights is not BOOLEANS:
        raise UnsupportedOperation(f"{what} needs boolean weights")


def symbols_of(e: WordExpression) -> list:
    out = []

    def walk(node):
        if isinstance(node, Sym):
            out.append(node.symbol)
        elif isinstance(node, Op):
            for x in node.operands:
                walk(x)

    walk(e)
    return out


def linearize(e: WordExpression) -> WordExpression:
    """Index symbol occurrences 1..n in left-to-right leaf order."""
    counter = 1

    def go(node):
        nonlocal counter
        if isinstance(node, Sym):
            out = Sym(PosSym(counter, node.symbol))
            counter += 1
            return out
        if isinstance(node, Op):
            return Op(node.operator, tuple(go(x) for x in node.operands))
        return node

    return go(e)


def coerce_scalars(e: WordExpression, fn: Callable[[Any], Any]) -> WordExpression:
    """Map every scalar multiplier through `fn` (e.g. int -> bool when an
    integer-weighted expression is read under boolean semantics)."""
    if isinstance(e, (Epsilon, Empty, Sym)):
        return e
    op = e.operator
    xs = tuple(coerce_scalars(x, fn) for x in e.operands)
    if isinstance(op, MultL):
        return Op(MultL(fn(op.weight)), xs)
    if isinstance(op, MultR):
        return Op(MultR(fn(op.weight)), xs)
    return Op(op, xs)


def reverse_expression(e: WordExpression) -> WordExpression:
    """Mirror image: concatenations flip, scalars swap sides."""
    if isinstance(e, (Epsilon, Empty, Sym)):
        return e
    op = e.operator
    xs = tuple(reverse_expression(x) for x in e.operands)
    if isinstance(op, Concat):
        return Op(op, (xs[1], xs[0]))
    if isinstance(op, MultL):
        return Op(MultR(op.weight), xs)
    if isinstance(op, MultR):
        return Op(MultL(op.weight), xs)
    return Op(op, xs)


# ---------------------------------------------------------------------------
# Positions (Glushkov)
# ---------------------------------------------------------------------------


@dataclass
class GlushkovData:
    """The five position functions of a linear expression."""

    null: Any
    positions: frozenset
    first: Any  # container of positions
    last_weight: Callable[[Any], Any]
    follow: Callable[[Any], Any]  # position -> container of positions


def glushkov_functions(e: WordExpression, container: EffectContainer) -> GlushkovData:
    """Inductive Null/Pos/First/Last/Follow over the chosen container.

    Raises UnsupportedOperation for operators without a positional reading
    (negation, intersection, custom functions)."""
    w = container.weights

    def go(node) -> GlushkovData:
        if isinstance(node, Epsilon):
            return GlushkovData(w.one, frozenset(), container.neutral, lambda _c: w.zero, lambda _c: container.neutral)
        if isinstance(node, Empty):
            return GlushkovData(w.zero, frozenset(), container.neutral, lambda _c: w.zero, lambda _c: container.neutral)
        if isinstance(node, Sym):
            c = node.symbol
            return GlushkovData(
                w.zero,
                frozenset((c,)),
                container.unit(c),
                lambda x, c=c: w.one if x == c else w.zero,
                lambda _x: container.neutral,
            )
        op = node.operator
        if isinstance(op, Plus):
            g1, g2 = go(node.operands[0]), go(node.operands[1])
            return GlushkovData(
                w.plus(g1.null, g2.null),
                g1.positions | g2.positions,
                container.combine(g1.first, g2.first),
                lambda c: w.plus(g1.last_weight(c), g2.last_weight(c)),
                lambda c: container.combine(g1.follow(c), g2.follow(c)),
            )
        if isinstance(op, Concat):
            g1, g2 = go(node.operands[0]), go(node.operands[1])
            return GlushkovData(
                w.times(g1.null, g2.null),
                g1.positions | g2.positions,
                container.combine(g1.first, container.act_left(g1.null, g2.first)),
                lambda c: w.plus(w.times(g1.last_weight(c), g2.null), g2.last_weight(c)),
                lambda c: container.combine(
                    container.combine(
                        g1.follow(c), container.act_left(g1.last_weight(c), g2.first)
                    ),
                    g2.follow(c),
                ),
            )
        if isinstance(op, Star):
            g1 = go(node.operands[0])
            star_eps = w.star(g1.null)
            return GlushkovData(
                star_eps,
                g1.positions,
                container.act_left(star_eps, g1.first),
                lambda c: w.times(g1.last_weight(c), star_eps),
                lambda c: container.combine(
                    g1.follow(c),
                    container.act_left(w.times(g1.last_weight(c), star_eps), g1.first),
                ),
            )
        if isinstance(op, MultL):
            g1 = go(node.operands[0])
            return GlushkovData(
                w.times(op.weight, g1.null),
                g1.positions,
                container.act_left(op.weight, g1.first),
                g1.last_weight,
                g1.follow,
            )
        if isinstance(op, MultR):
            g1 = go(node.operands[0])
            return GlushkovData(
                w.times(g1.null, op.weight),
                g1.positions,
                g1.first,
                lambda c: w.times(g1.last_weight(c), op.weight),
                g1.follow,
            )
        raise UnsupportedOperation(f"no positional reading of {op!r}")

    return go(e)


@dataclass(frozen=True)
class GlushkovInit:
    """The extra initial state of a position automaton."""

    def __repr__(self):
        return "i"


def position_automaton(e: WordExpression, container: EffectContainer) -> WordAutomaton:
    """Glushkov automaton over {init} + positions; raises UnsupportedOperation
    when some operator does not support positions."""
    data = glushkov_functions(linearize(e), container)
    init = GlushkovInit()

    def filter_by(sym, c):
        return container.bind(
            c, lambda p: container.unit(p) if p.base == sym else container.neutral
        )

    def delta(sym, state):
        if isinstance(state, GlushkovInit):
            return filter_by(sym, data.first)
        return filter_by(sym, data.follow(state))

    def final(state):
        if isinstance(state, GlushkovInit):
            return data.null
        return data.last_weight(state)

    return WordAutomaton(container, container.unit(init), delta, final)


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def _sum_of(terms):
    if not terms:
        return EMPTY
    out = terms[0]
    for t in terms[1:]:
        out = plus(out, t)
    return out


# The expression operators a container reads its configurations back through
# (`EffectContainer.read_back`).
EXPRESSIONS = SimpleNamespace(
    empty=EMPTY,
    sum=_sum_of,
    scale=mult_l,
    neg=neg,
    inter=inter,
    function=lambda label, arity, fn, operands: Op(FunctionOp(label, arity, fn), operands),
)


def _concat_right(container, c, e2):
    """Right action of an expression on a container of expressions."""
    return container.expression_action(c, lambda d: concat(d, e2), EXPRESSIONS)


def monadic_derive(sym, e: WordExpression, container: EffectContainer):
    """Container-valued derivative of `e` by one symbol."""
    w = container.weights
    if isinstance(e, (Epsilon, Empty)):
        return container.neutral
    if isinstance(e, Sym):
        if e.symbol == sym:
            return container.unit(EPSILON)
        return container.neutral
    op = e.operator
    if isinstance(op, Plus):
        return container.combine(
            monadic_derive(sym, e.operands[0], container),
            monadic_derive(sym, e.operands[1], container),
        )
    if isinstance(op, Concat):
        e1, e2 = e.operands
        left = _concat_right(container, monadic_derive(sym, e1, container), e2)
        right = container.act_left(
            nullable(e1, w), monadic_derive(sym, e2, container)
        )
        return container.combine(left, right)
    if isinstance(op, Star):
        inner = e.operands[0]
        d = _concat_right(container, monadic_derive(sym, inner, container), e)
        return container.act_left(w.star(nullable(inner, w)), d)
    if isinstance(op, MultL):
        return container.act_left(op.weight, monadic_derive(sym, e.operands[0], container))
    if isinstance(op, MultR):
        # the scalar stays after the rest of the expression: `k·rest·w`
        d = monadic_derive(sym, e.operands[0], container)
        return container.expression_action(d, lambda x: mult_r(x, op.weight), EXPRESSIONS)
    if isinstance(op, Not):
        _require_boolean(w, "negation")
        return container.native_not(monadic_derive(sym, e.operands[0], container), EXPRESSIONS)
    if isinstance(op, Inter):
        _require_boolean(w, "intersection")
        d1 = monadic_derive(sym, e.operands[0], container)
        d2 = monadic_derive(sym, e.operands[1], container)
        return container.native_and(d1, d2, EXPRESSIONS)
    if isinstance(op, FunctionOp):
        ds = [monadic_derive(sym, x, container) for x in e.operands]
        return container.native_function(op.label, op.arity, op.fn, ds, EXPRESSIONS)
    raise TypeError(f"unknown operator {op!r}")


def aci_normalize(e: WordExpression, weights: StarSemiring) -> WordExpression:
    """Sum normal form used for derivation-state identity.

    Flattens sums, sorts summands canonically, merges duplicates by scalar
    coefficients (plain deduplication over booleans), and drops empty terms.
    Concatenation chains are left intact so derivative terms keep their
    classical shapes."""
    if isinstance(e, (Epsilon, Empty, Sym)):
        return e
    op = e.operator
    if isinstance(op, Plus):
        terms: list = []
        _collect_sum(e, terms)
        merged: dict = {}
        order: list = []
        for t in terms:
            t = aci_normalize(t, weights)
            if isinstance(t, Empty):
                continue
            k, core = _split_scalar(t, weights)
            if core not in merged:
                merged[core] = k
                order.append(core)
            else:
                merged[core] = weights.plus(merged[core], k)
        out = []
        for core in sorted(set(order), key=render):
            k = merged[core]
            if k == weights.zero:
                continue
            out.append(core if k == weights.one else mult_l(k, core))
        return _sum_of(out)
    if isinstance(op, MultL):
        inner = aci_normalize(e.operands[0], weights)
        if op.weight == weights.zero or isinstance(inner, Empty):
            return EMPTY
        if op.weight == weights.one:
            return inner
        if isinstance(inner, Op) and isinstance(inner.operator, MultL):
            return aci_normalize(
                mult_l(weights.times(op.weight, inner.operator.weight), inner.operands[0]),
                weights,
            )
        return mult_l(op.weight, inner)
    if isinstance(op, MultR):
        inner = aci_normalize(e.operands[0], weights)
        if op.weight == weights.zero or isinstance(inner, Empty):
            return EMPTY
        if op.weight == weights.one:
            return inner
        return mult_r(inner, op.weight)
    if isinstance(op, Concat):
        xs = tuple(aci_normalize(x, weights) for x in e.operands)
        if any(isinstance(x, Empty) for x in xs):
            return EMPTY
        return Op(op, xs)
    return Op(op, tuple(aci_normalize(x, weights) for x in e.operands))


def _collect_sum(e, out):
    if isinstance(e, Op) and isinstance(e.operator, Plus):
        for x in e.operands:
            _collect_sum(x, out)
    else:
        out.append(e)


def _split_scalar(e, weights):
    if isinstance(e, Op) and isinstance(e.operator, MultL):
        return e.operator.weight, e.operands[0]
    return weights.one, e


def derivation_automaton(e: WordExpression, container: EffectContainer) -> WordAutomaton:
    """Automaton whose states are ACI-normalized expressions, stepping by
    derivation; finality is the empty-word weight.  The state space need not
    be finite: exploration caps apply downstream."""
    w = container.weights
    norm = lambda d: aci_normalize(d, w)

    def delta(sym, state):
        return container.map(norm, monadic_derive(sym, state, container))

    return WordAutomaton(
        container, container.unit(norm(e)), delta, lambda state: nullable(state, w)
    )


# ---------------------------------------------------------------------------
# Induction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pure:
    """Leaf state of the inductive construction (entry/exit marker)."""

    marker: bool

    def __str__(self):
        return "t" if self.marker else "s"


def inductive_automaton(e: WordExpression, container: EffectContainer) -> WordAutomaton:
    """Structural construction over the automaton combinators.

    Raises UnsupportedOperation for custom function operators, which have no
    inductive reading, and for intersection over non-boolean weights.
    Negation determinizes its operand, so outside the set container
    `determinize` raises it."""
    w = container.weights

    def go(node) -> WordAutomaton:
        if isinstance(node, Epsilon):
            return WordAutomaton(
                container,
                container.unit(Pure(False)),
                lambda _a, _s: container.neutral,
                lambda s: w.one if s == Pure(False) else w.zero,
            )
        if isinstance(node, Empty):
            return WordAutomaton(
                container,
                container.neutral,
                lambda _a, _s: container.neutral,
                lambda _s: w.zero,
            )
        if isinstance(node, Sym):
            sym = node.symbol

            def delta(a, s):
                if a == sym and s == Pure(False):
                    return container.unit(Pure(True))
                return container.neutral

            return WordAutomaton(
                container,
                container.unit(Pure(False)),
                delta,
                lambda s: w.one if s == Pure(True) else w.zero,
            )
        op = node.operator
        if isinstance(op, Plus):
            return union(go(node.operands[0]), go(node.operands[1]))
        if isinstance(op, Concat):
            return concatenate(go(node.operands[0]), go(node.operands[1]))
        if isinstance(op, Star):
            return kleene_star(go(node.operands[0]))
        if isinstance(op, MultL):
            return scale_left(op.weight, go(node.operands[0]))
        if isinstance(op, MultR):
            return scale_right(go(node.operands[0]), op.weight)
        if isinstance(op, Inter):
            _require_boolean(w, "intersection")
            return intersection(go(node.operands[0]), go(node.operands[1]))
        if isinstance(op, Not):
            _require_boolean(w, "negation")
            comp = complement_complete_dfa(determinize(go(node.operands[0])))

            def delta(sym, subset):
                return container.unit(comp.delta(sym, subset))

            return WordAutomaton(
                container, container.unit(comp.initial), delta, comp.final
            )
        raise UnsupportedOperation(f"no inductive reading of {op!r}")

    return go(e)


# ---------------------------------------------------------------------------
# Random expressions and the language oracle
# ---------------------------------------------------------------------------


def random_expression(
    seed: int,
    op_count: int,
    symbols: Sequence = ("a", "b", "c"),
    palette: Sequence[str] = SIMPLE_OPS,
    rng: random.Random | None = None,
) -> WordExpression:
    """Seed-deterministic expression with exactly `op_count` operator nodes.

    Star operands are kept non-nullable so integer-weight interpretations
    never hit the partial star; scalars come from 1..10."""
    r = rng if rng is not None else random.Random(seed)
    palette = list(palette)
    symbols = list(symbols)

    def atom(non_nullable):
        if not non_nullable and r.random() < 0.15:
            return EPSILON
        return Sym(r.choice(symbols))

    def gen(n, nn):
        # nn: the subexpression must have empty-word weight zero (so that an
        # enclosing star stays starrable over the integers)
        if n <= 0:
            return atom(nn)
        options = [o for o in palette if not (nn and o == "star")]
        name = r.choice(options or ["concat"])
        if name == "star":
            return star(gen(n - 1, True))
        if name == "multl":
            return mult_l(r.randint(1, 10), gen(n - 1, nn))
        if name == "multr":
            return mult_r(gen(n - 1, nn), r.randint(1, 10))
        if name == "not":
            return neg(gen(n - 1, False))
        left = r.randint(0, n - 1)
        right = n - 1 - left
        if name == "plus":
            return plus(gen(left, nn), gen(right, nn))
        if name == "inter":
            return inter(gen(left, False), gen(right, False))
        if nn:
            # one non-nullable side suffices for a non-nullable concatenation
            if r.random() < 0.5:
                return concat(gen(left, True), gen(right, False))
            return concat(gen(left, False), gen(right, True))
        return concat(gen(left, False), gen(right, False))

    return gen(op_count, False)


def random_word(rng: random.Random, symbols: Sequence, max_len: int):
    n = rng.randint(0, max_len)
    return tuple(rng.choice(list(symbols)) for _ in range(n))


def brute_force_language(
    e: WordExpression,
    max_len: int,
    weights: StarSemiring = BOOLEANS,
    alphabet: Sequence | None = None,
) -> dict:
    """Independent semantic oracle: weight of every word of length <= max_len.

    Words are tuples of symbols; absent entries mean weight zero.  Negation
    and intersection need boolean weights and an explicit alphabet (a
    complement is taken within the words over that alphabet)."""

    def universe():
        if alphabet is None:
            raise UnsupportedOperation("negation oracle needs an explicit alphabet")
        words = [()]
        frontier = [()]
        for _ in range(max_len):
            frontier = [w + (a,) for w in frontier for a in alphabet]
            words.extend(frontier)
        return words

    def prune(lang):
        return {w: k for w, k in lang.items() if k != weights.zero and len(w) <= max_len}

    def go(node) -> dict:
        if isinstance(node, Epsilon):
            return {(): weights.one}
        if isinstance(node, Empty):
            return {}
        if isinstance(node, Sym):
            return {(node.symbol,): weights.one}
        op = node.operator
        if isinstance(op, Plus):
            l1, l2 = go(node.operands[0]), go(node.operands[1])
            out = dict(l1)
            for w_, k in l2.items():
                out[w_] = weights.plus(out.get(w_, weights.zero), k)
            return prune(out)
        if isinstance(op, Concat):
            l1, l2 = go(node.operands[0]), go(node.operands[1])
            out: dict = {}
            for w1, k1 in l1.items():
                for w2, k2 in l2.items():
                    if len(w1) + len(w2) > max_len:
                        continue
                    w_ = w1 + w2
                    out[w_] = weights.plus(out.get(w_, weights.zero), weights.times(k1, k2))
            return prune(out)
        if isinstance(op, Star):
            l1 = go(node.operands[0])
            star_eps = weights.star(l1.get((), weights.zero))
            body = {w_: k for w_, k in l1.items() if w_ != ()}
            out = {(): star_eps}
            layer = {(): star_eps}
            # each layer appends one non-empty factor; lengths strictly grow
            for _ in range(max_len):
                nxt: dict = {}
                for w1, k1 in layer.items():
                    for w2, k2 in body.items():
                        if len(w1) + len(w2) > max_len:
                            continue
                        w_ = w1 + w2
                        k = weights.times(weights.times(k1, k2), star_eps)
                        nxt[w_] = weights.plus(nxt.get(w_, weights.zero), k)
                if not nxt:
                    break
                for w_, k in nxt.items():
                    out[w_] = weights.plus(out.get(w_, weights.zero), k)
                layer = nxt
            return prune(out)
        if isinstance(op, MultL):
            return prune({w_: weights.times(op.weight, k) for w_, k in go(node.operands[0]).items()})
        if isinstance(op, MultR):
            return prune({w_: weights.times(k, op.weight) for w_, k in go(node.operands[0]).items()})
        if isinstance(op, Not):
            _require_boolean(weights, "negation")
            l1 = go(node.operands[0])
            return {w_: True for w_ in universe() if not l1.get(w_, False)}
        if isinstance(op, Inter):
            _require_boolean(weights, "intersection")
            l1, l2 = go(node.operands[0]), go(node.operands[1])
            return {w_: True for w_ in l1 if w_ in l2}
        raise UnsupportedOperation(f"oracle does not support {op!r}")

    return prune(go(e))
