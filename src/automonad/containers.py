"""Effect containers: the pluggable transition effects of every automaton.

A container bundles a monad (unit/bind/map), a monoid (neutral/combine) and a
scalar action of its weight semiring.  Seven instances ship: optional values,
finite sets, linear combinations, boolean expression trees, generalized
function expression trees, monoid-output pairs and stack contexts.  An eighth,
`DETERMINISTIC`, is the identity monad used internally to represent complete
deterministic automata; it has no monoid structure.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .algebra import BOOLEANS, StarSemiring, MonoidValue
from .util import UnsupportedOperation, render


class EffectContainer:
    """Interface shared by all containers.

    Subclasses fix a value representation (which must be canonically
    comparable wherever automata states need identity) and a weight semiring.
    """

    weights: StarSemiring
    # Word weights fold right to left (`WordAutomaton.weight`): set where a
    # configuration grows with the word, so that rebuilding it at every
    # symbol would make one word quadratic in its length.
    folds_backward = False

    def unit(self, x):
        raise NotImplementedError

    def bind(self, c, f):
        raise NotImplementedError

    def map(self, f, c):
        return self.bind(c, lambda x: self.unit(f(x)))

    @property
    def neutral(self):
        raise UnsupportedOperation(f"{self!r} has no neutral element")

    def combine(self, a, b):
        raise UnsupportedOperation(f"{self!r} has no combine")

    def act_left(self, w, c):
        raise UnsupportedOperation(f"{self!r} has no scalar action")

    def act_right(self, c, w):
        raise UnsupportedOperation(f"{self!r} has no scalar action")

    def finality_step(self, c, final: Callable[[Any], Any]):
        """Weight of a configuration under a per-element finality map: the
        one way every word and tree automaton weighs a configuration.

        It is an algebra of the monad: every container must keep
        `finality_step(bind(c, f), g) == finality_step(c, lambda y:
        finality_step(f(y), g))`, which lets a word be weighed backward."""
        raise NotImplementedError

    def support(self, c) -> list:
        """Elements mentioned by a configuration, in canonical order."""
        raise UnsupportedOperation(f"{self!r} does not expose its elements")

    def element_weight(self, c, x):
        """Weight of the element `x` in a configuration: the configuration
        weighed with finality one at `x` and zero elsewhere."""
        one, zero = self.weights.one, self.weights.zero
        return self.finality_step(c, lambda y: one if y == x else zero)

    def sequence(self, cs: Iterable):
        """Turn a sequence of containers into a container of tuples."""
        out = self.unit(())
        for c in cs:
            out = self.bind(out, lambda acc, c=c: self.map(lambda x: acc + (x,), c))
        return out

    def read_back(self, c, build):
        """Fold a configuration of expressions into one expression through
        `build`, a record of expression operators (`empty`, `sum`, `scale`,
        `neg`, `inter`, `function`): by default the sum of `support`, each
        element scaled by its `element_weight` unless that is one (so
        absence is `build.empty`)."""
        one = self.weights.one
        weighted = [(x, self.element_weight(c, x)) for x in self.support(c)]
        return build.sum([x if k == one else build.scale(k, x) for x, k in weighted])

    # Derivation hooks: by default each reads its operands back and wraps
    # the operator applied to them in `unit`.
    def native_not(self, c, build):
        return self.unit(build.neg(self.read_back(c, build)))

    def native_and(self, c1, c2, build):
        return self.unit(build.inter(self.read_back(c1, build), self.read_back(c2, build)))

    def native_function(self, label, arity, fn, cs, build):
        operands = tuple(self.read_back(c, build) for c in cs)
        return self.unit(build.function(label, arity, fn, operands))

    def expression_action(self, c, wrap, build):
        """Apply an expression-level action (e.g. `concat(_, e2)`) to every
        residual held in `c`.

        The elementwise map is only sound where the container structure is
        linear in its leaves; expression-tree containers override this and
        read non-disjunctive subtrees back to a single residual first."""
        return self.map(wrap, c)


# ---------------------------------------------------------------------------
# Optional values
# ---------------------------------------------------------------------------


class OptionalContainer(EffectContainer):
    """Zero-or-one element; `None` encodes absence, so elements must not be
    None.  `combine` keeps the first present value."""

    weights = BOOLEANS

    def unit(self, x):
        return x

    def bind(self, c, f):
        if c is None:
            return None
        return f(c)

    @property
    def neutral(self):
        return None

    def combine(self, a, b):
        return a if a is not None else b

    def act_left(self, w, c):
        return c if w else None

    def act_right(self, c, w):
        return c if w else None

    def finality_step(self, c, final):
        return c is not None and bool(final(c))

    def support(self, c):
        return [] if c is None else [c]

    def __repr__(self):
        return "OptionalContainer()"


# ---------------------------------------------------------------------------
# Finite sets
# ---------------------------------------------------------------------------


class FiniteSetContainer(EffectContainer):
    """Canonical finite sets (frozenset); the nondeterminism container."""

    weights = BOOLEANS

    def unit(self, x):
        return frozenset((x,))

    def bind(self, c, f):
        out = set()
        for x in c:
            out.update(f(x))
        return frozenset(out)

    def map(self, f, c):
        return frozenset(map(f, c))

    @property
    def neutral(self):
        return frozenset()

    def combine(self, a, b):
        return a | b

    def act_left(self, w, c):
        return c if w else frozenset()

    def act_right(self, c, w):
        return self.act_left(w, c)

    def finality_step(self, c, final):
        return any(bool(final(s)) for s in c)

    def support(self, c):
        return sorted(c, key=render)

    def __repr__(self):
        return "FiniteSetContainer()"


# ---------------------------------------------------------------------------
# Linear combinations over a star-semiring
# ---------------------------------------------------------------------------


class LinComb(dict):
    """Finite map element -> nonzero coefficient, in canonical form: a `dict`
    never mutated once a container operation returns it, so operations may
    return an operand unchanged.  It equals only another `LinComb`."""

    __slots__ = ("_hash",)

    def sorted_items(self):
        return sorted(self.items(), key=lambda kv: render(kv[0]))

    def __eq__(self, other):
        return isinstance(other, LinComb) and dict.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.items()))
            return self._hash

    def __str__(self):
        if not self:
            return "0"
        return " + ".join(f"{render(k)}·{render(x)}" for x, k in self.sorted_items())

    def __repr__(self):
        return "LinComb(" + render(self) + ")"


class LinCombContainer(EffectContainer):
    """Free semimodule over a semiring: weighted nondeterminism."""

    neutral = LinComb()

    def __init__(self, weights: StarSemiring):
        self.weights = weights

    def _make(self, out: LinComb) -> LinComb:
        """`out`, a fresh accumulator, with its zero coefficients deleted."""
        zero = self.weights.zero
        if zero in out.values():
            for x in [x for x, k in out.items() if k == zero]:
                del out[x]
        return out

    def unit(self, x):
        return LinComb({x: self.weights.one})

    def bind(self, c, f):
        plus, times, zero = self.weights.plus, self.weights.times, self.weights.zero
        out = LinComb()
        for x, k in c.items():
            for y, k2 in f(x).items():
                out[y] = plus(out.get(y, zero), times(k, k2))
        return self._make(out)

    def map(self, f, c):
        plus, zero = self.weights.plus, self.weights.zero
        out = LinComb()
        for x, k in c.items():
            y = f(x)
            out[y] = plus(out.get(y, zero), k)
        return self._make(out)

    def combine(self, a, b):
        if not (a and b):
            return a or b
        plus, zero = self.weights.plus, self.weights.zero
        out = LinComb(a)
        for x, k in b.items():
            out[x] = plus(out.get(x, zero), k)
        return self._make(out)

    def act_left(self, w, c):
        times = self.weights.times
        return c if w == self.weights.one else self._make(LinComb({x: times(w, k) for x, k in c.items()}))

    def act_right(self, c, w):
        times = self.weights.times
        return c if w == self.weights.one else self._make(LinComb({x: times(k, w) for x, k in c.items()}))

    def finality_step(self, c, final):
        plus, times, zero = self.weights.plus, self.weights.times, self.weights.zero
        total = zero
        for x, k in c.items():
            total = plus(total, times(k, final(x)))
        return total

    def support(self, c):
        return [x for x, _ in c.sorted_items()]

    def from_entries(self, entries) -> LinComb:
        plus, zero = self.weights.plus, self.weights.zero
        out = LinComb()
        for x, k in entries:
            out[x] = plus(out.get(x, zero), k)
        return self._make(out)

    def __repr__(self):
        return f"LinCombContainer({self.weights.name})"


# ---------------------------------------------------------------------------
# Boolean expression trees
# ---------------------------------------------------------------------------


class _BoolNode:
    """A boolean-expression node: its hash (the dataclass's own, of the
    field tuple; each subclass names `__hash__` to keep it) is computed when
    it is built, its text when first read.  The normalizer marks `_normal`."""

    _normal = False

    def __post_init__(self):  # the one field is all the instance holds yet
        self.__dict__["_hash"] = hash(tuple(self.__dict__.values()))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self._text

    @functools.cached_property
    def _text(self):
        return self._render()

    def _marked(self):
        self.__dict__["_normal"] = True
        return self


@dataclass(frozen=True)
class BVar(_BoolNode):
    name: Any
    __hash__ = _BoolNode.__hash__

    def _render(self):
        return render(self.name)


@dataclass(frozen=True)
class BConst(_BoolNode):
    value: bool
    __hash__ = _BoolNode.__hash__

    def _render(self):
        return "true" if self.value else "false"


@dataclass(frozen=True)
class BNot(_BoolNode):
    arg: Any
    __hash__ = _BoolNode.__hash__

    def _render(self):
        return f"not({self.arg._text})"


@dataclass(frozen=True)
class BAnd(_BoolNode):
    args: tuple
    __hash__ = _BoolNode.__hash__

    def _render(self):
        return "and(" + ",".join(a._text for a in self.args) + ")"


@dataclass(frozen=True)
class BOr(_BoolNode):
    args: tuple
    __hash__ = _BoolNode.__hash__

    def _render(self):
        return "or(" + ",".join(a._text for a in self.args) + ")"


BTRUE = BConst(True)
BFALSE = BConst(False)


def bool_and(*args):
    return normalize_bool_expr(BAnd(tuple(args)))


def bool_or(*args):
    return normalize_bool_expr(BOr(tuple(args)))


def bool_not(arg):
    return normalize_bool_expr(BNot(arg))


def normalize_bool_expr(e):
    """ACI normal form: flatten and/or, sort, dedupe, fold constants."""
    return _normal_form(e, None)


def _normal_form(e, f):
    """The ACI normal form of `e`, each variable `v` replaced by `f(v)` unless
    `f` is None, in one pass, bottom up; a normal node whose operands come out
    the same is kept.  Summands sort by their text, never by hash."""
    kind = type(e)
    if kind is BVar:
        row = e if f is None else f(e.name)
        if type(row) is BVar:
            return e if row.name is e.name else row
        return row if getattr(row, "_normal", False) else _normal_form(row, None)
    if kind is BConst:
        return BTRUE if e.value else BFALSE
    if kind is not BNot and kind is not BAnd and kind is not BOr:
        raise TypeError(f"not a boolean expression: {e!r}")
    if f is None and e._normal:
        return e
    if kind is BNot:
        arg = _normal_form(e.arg, f)
        if arg is e.arg and e._normal:
            return e
        if arg is BTRUE or arg is BFALSE:
            return BFALSE if arg is BTRUE else BTRUE
        return arg.arg if type(arg) is BNot else BNot(arg)._marked()
    absorbing, neutral = (BFALSE, BTRUE) if kind is BAnd else (BTRUE, BFALSE)
    flat, same = [], e._normal
    for raw in e.args:
        arg = _normal_form(raw, f)
        same = same and arg is raw
        if arg is absorbing:
            return absorbing
        if type(arg) is kind:
            flat.extend(arg.args)
        elif arg is not neutral:
            flat.append(arg)
    if same:
        return e
    flat = sorted(set(flat), key=str)
    if not flat:
        return neutral
    return flat[0] if len(flat) == 1 else kind(tuple(flat))._marked()


def bool_expr_variables(e) -> list:
    out = set()

    def walk(node):
        if isinstance(node, BVar):
            out.add(node.name)
        elif isinstance(node, BNot):
            walk(node.arg)
        elif isinstance(node, (BAnd, BOr)):
            for a in node.args:
                walk(a)

    walk(e)
    return sorted(out, key=render)


def eval_bool_expr(e, env: Callable[[Any], bool] | None = None) -> bool:
    """Standard evaluation; free variables (no env entry) are an error."""
    if isinstance(e, BConst):
        return e.value
    if isinstance(e, BVar):
        if env is None:
            raise UnsupportedOperation(f"free variable {e.name!r}")
        return bool(env(e.name))
    if isinstance(e, BNot):
        return not eval_bool_expr(e.arg, env)
    if isinstance(e, BAnd):
        return all(eval_bool_expr(a, env) for a in e.args)
    if isinstance(e, BOr):
        return any(eval_bool_expr(a, env) for a in e.args)
    raise TypeError(f"not a boolean expression: {e!r}")


def bool_expr_to_clauses(e) -> frozenset:
    """Disjunctive normal form as a set of conjunctive clauses.

    Clauses are canonical frozensets of positive state atoms; `true` is the
    singleton empty clause, `false` the empty set of clauses.  Negation
    anywhere above a variable is rejected: automaton configurations are
    positive.
    """
    e = normalize_bool_expr(e)
    if isinstance(e, BConst):
        return frozenset((frozenset(),)) if e.value else frozenset()
    if isinstance(e, BVar):
        return frozenset((frozenset((e.name,)),))
    if isinstance(e, BNot):
        raise UnsupportedOperation("non-positive configuration")
    if isinstance(e, BOr):
        out = set()
        for a in e.args:
            out.update(bool_expr_to_clauses(a))
        return frozenset(out)
    if isinstance(e, BAnd):
        parts = [bool_expr_to_clauses(a) for a in e.args]
        out = {frozenset()}
        for clauses in parts:
            out = {c1 | c2 for c1 in out for c2 in clauses}
        return frozenset(out)
    raise TypeError(f"not a boolean expression: {e!r}")


class BoolExprContainer(EffectContainer):
    """Boolean expressions over elements: the alternation container.  Its
    values are ACI normal forms; `bind` substitutes and normalizes in one
    pass, and takes a transition row that is already normal as it is."""

    weights = BOOLEANS

    def unit(self, x):
        return BVar(x)

    def bind(self, c, f):
        return _normal_form(c, f)

    @property
    def neutral(self):
        return BFALSE

    def combine(self, a, b):
        return bool_or(a, b)

    def act_left(self, w, c):
        return c if w else BFALSE

    def act_right(self, c, w):
        return self.act_left(w, c)

    def finality_step(self, c, final):
        return eval_bool_expr(c, env=lambda s: bool(final(s)))

    def support(self, c):
        return bool_expr_variables(c)

    def read_back(self, c, build):
        # node by node: `true` is the negation of the empty expression
        if isinstance(c, BVar):
            return c.name
        if isinstance(c, BConst):
            return build.neg(build.empty) if c.value else build.empty
        if isinstance(c, BNot):
            return build.neg(self.read_back(c.arg, build))
        if isinstance(c, BAnd):
            return functools.reduce(build.inter, [self.read_back(a, build) for a in c.args])
        if isinstance(c, BOr):
            return build.sum([self.read_back(a, build) for a in c.args])
        raise TypeError(c)

    def native_not(self, c, build):
        return bool_not(c)

    def native_and(self, c1, c2, build):
        return bool_and(c1, c2)

    def expression_action(self, c, wrap, build):
        # Concatenation distributes over disjunction but not over negation
        # or conjunction: those subtrees become one residual each.
        def go(node):
            if isinstance(node, BOr):
                return BOr(tuple(go(a) for a in node.args))
            if isinstance(node, BVar):
                return BVar(wrap(node.name))
            if node == BFALSE:
                return node
            return BVar(wrap(self.read_back(node, build)))

        return normalize_bool_expr(go(c))

    def __repr__(self):
        return "BoolExprContainer()"


# ---------------------------------------------------------------------------
# Generalized function expression trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GVar:
    name: Any

    def __str__(self):
        return render(self.name)


@dataclass(frozen=True)
class GConst:
    value: Any

    def __str__(self):
        return render(self.value)


@dataclass(frozen=True)
class GFun:
    label: str
    args: tuple
    fn: Callable = field(compare=False, repr=False)

    def __str__(self):
        return self.label + "(" + ",".join(render(a) for a in self.args) + ")"


def eval_gen_expr(e, env: Callable[[Any], Any] | None = None):
    if isinstance(e, GConst):
        return e.value
    if isinstance(e, GVar):
        if env is None:
            raise UnsupportedOperation(f"free variable {e.name!r}")
        return env(e.name)
    if isinstance(e, GFun):
        return e.fn(*(eval_gen_expr(a, env) for a in e.args))
    raise TypeError(f"not a function expression: {e!r}")


def _gen_subst(e, f):
    if isinstance(e, GConst):
        return e
    if isinstance(e, GVar):
        return f(e.name)
    if isinstance(e, GFun):
        return GFun(e.label, tuple(_gen_subst(a, f) for a in e.args), e.fn)
    raise TypeError(f"not a function expression: {e!r}")


def gen_expr_variables(e) -> list:
    out = set()

    def walk(node):
        if isinstance(node, GVar):
            out.add(node.name)
        elif isinstance(node, GFun):
            for a in node.args:
                walk(a)

    walk(e)
    return sorted(out, key=render)


class GenExprContainer(EffectContainer):
    """Expression trees with arbitrary n-ary operations on a weight type.
    A word's configuration nests one row per symbol, so words fold backward."""

    folds_backward = True

    def __init__(self, weights: StarSemiring):
        self.weights = weights

    def unit(self, x):
        return GVar(x)

    def bind(self, c, f):
        return self._simplify(_gen_subst(c, f))

    def _simplify(self, e):
        # fold the container's own additive/multiplicative nodes so that
        # substituted zeros do not accumulate; foreign functions are opaque
        if not isinstance(e, GFun):
            return e
        args = tuple(self._simplify(a) for a in e.args)
        zero = self.neutral
        if e.fn is self.weights.plus:
            live = [a for a in args if a != zero]
            if not live:
                return zero
            if len(live) == 1:
                return live[0]
            return GFun(e.label, tuple(live), e.fn)
        if e.fn is self.weights.times:
            if any(a == zero for a in args):
                return zero
            if all(isinstance(a, GConst) for a in args):
                return GConst(self.weights.product(a.value for a in args))
        return GFun(e.label, args, e.fn)

    @property
    def neutral(self):
        return GConst(self.weights.zero)

    def combine(self, a, b):
        if a == self.neutral:
            return b
        if b == self.neutral:
            return a
        return GFun("+", (a, b), self.weights.plus)

    def act_left(self, w, c):
        if w == self.weights.one:
            return c
        if w == self.weights.zero or c == self.neutral:
            return self.neutral
        return GFun("·", (GConst(w), c), self.weights.times)

    def act_right(self, c, w):
        if w == self.weights.one:
            return c
        if w == self.weights.zero or c == self.neutral:
            return self.neutral
        return GFun("·", (c, GConst(w)), self.weights.times)

    def finality_step(self, c, final):
        return eval_gen_expr(c, env=final)

    def support(self, c):
        return gen_expr_variables(c)

    def read_back(self, c, build):
        # node by node: a constant k is the 0-ary function operator that
        # denotes the constant series k, and a function node with constant
        # arguments becomes an operator over its other arguments only
        zero = self.weights.zero

        def const_series(k):
            return build.function(f"const{render(k)}", 0, lambda: k, ())

        def go(node):
            if isinstance(node, GVar):
                return node.name
            if isinstance(node, GConst):
                return build.empty if node.value == zero else const_series(node.value)
            if isinstance(node, GFun):
                fixed = [a.value if isinstance(a, GConst) else None for a in node.args]
                open_args = tuple(go(a) for a in node.args if not isinstance(a, GConst))
                if not open_args:
                    return const_series(node.fn(*(a.value for a in node.args)))
                if all(v is None for v in fixed):
                    return build.function(node.label, len(node.args), node.fn, open_args)
                label = node.label + "@" + ",".join(
                    "_" if v is None else render(v) for v in fixed
                )
                fn = _fix_arguments(node.fn, fixed)
                return build.function(label, len(open_args), fn, open_args)
            raise TypeError(node)

        return go(c)

    def native_function(self, label, arity, fn, cs, build):
        return GFun(label, tuple(cs), fn)

    def expression_action(self, c, wrap, build):
        # Sums and the scalings built by act_left/act_right (one constant
        # factor) are linear in the leaves; anything built from other
        # operations is read back to a single residual expression.
        def go(node):
            if isinstance(node, GFun) and node.fn is self.weights.plus:
                return GFun(node.label, tuple(go(a) for a in node.args), node.fn)
            if (
                isinstance(node, GFun)
                and node.fn is self.weights.times
                and len(node.args) == 2
                and sum(isinstance(a, GConst) for a in node.args) == 1
            ):
                args = tuple(a if isinstance(a, GConst) else go(a) for a in node.args)
                return GFun(node.label, args, node.fn)
            if isinstance(node, GVar):
                return GVar(wrap(node.name))
            if node == self.neutral:
                return node
            return GVar(wrap(self.read_back(node, build)))

        return go(c)

    def __repr__(self):
        return f"GenExprContainer({self.weights.name})"


def _fix_arguments(fn, fixed):
    def applied(*xs):
        it = iter(xs)
        return fn(*(v if v is not None else next(it) for v in fixed))

    return applied


# ---------------------------------------------------------------------------
# Monoid-output pairs (sequential automata)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pair:
    value: Any
    output: Any

    def __str__(self):
        return f"({render(self.value)}|{render(self.output)})"


class MonoidPairContainer(EffectContainer):
    """A value paired with an accumulated monoid output; deterministic, so
    no neutral/combine.  The weight type is the monoid itself."""

    def __init__(self, monoid: MonoidValue):
        self.monoid = monoid

    @property
    def weights(self):  # weight type is the monoid; only combine makes sense
        raise UnsupportedOperation("monoid-pair weights form a monoid, not a semiring")

    def unit(self, x):
        return Pair(x, self.monoid.neutral)

    def bind(self, c, f):
        nxt = f(c.value)
        return Pair(nxt.value, self.monoid.combine(c.output, nxt.output))

    def write(self, x, out):
        return Pair(x, out)

    def finality_step(self, c, final):
        return self.monoid.combine(c.output, final(c.value))

    def support(self, c):
        return [c.value]

    def element_weight(self, c, x):
        # finality maps into the monoid: the one element pays the output
        return c.output

    def __repr__(self):
        return f"MonoidPairContainer({self.monoid.name})"


# ---------------------------------------------------------------------------
# Stack contexts (pushdown automata)
# ---------------------------------------------------------------------------


class StackVal:
    """A function stack -> inner-container of (value, stack)."""

    __slots__ = ("run",)

    def __init__(self, run: Callable):
        self.run = run

    def __repr__(self):
        return "StackVal(<fun>)"


class StackContextContainer(EffectContainer):
    """State-transformer over stacks, on top of any inner container."""

    def __init__(self, inner: EffectContainer):
        self.inner = inner

    @property
    def weights(self):
        return self.inner.weights

    def unit(self, x):
        return StackVal(lambda s: self.inner.unit((x, s)))

    def bind(self, c, f):
        def run(s):
            return self.inner.bind(c.run(s), lambda pair: f(pair[0]).run(pair[1]))

        return StackVal(run)

    @property
    def neutral(self):
        return StackVal(lambda _s: self.inner.neutral)

    def combine(self, a, b):
        return StackVal(lambda s: self.inner.combine(a.run(s), b.run(s)))

    def act_left(self, w, c):
        return StackVal(lambda s: self.inner.act_left(w, c.run(s)))

    def act_right(self, c, w):
        return self.act_left(w, c)

    def finality_step(self, c, final):
        # Recognition applies the context to a designated stack instead;
        # see empty-stack acceptance in the automata module.
        raise UnsupportedOperation("stack contexts are weighed by stack application")

    def __repr__(self):
        return f"StackContextContainer({self.inner!r})"


# ---------------------------------------------------------------------------
# Deterministic-complete (identity monad; internal)
# ---------------------------------------------------------------------------


class DeterministicContainer(EffectContainer):
    """The identity monad: exactly one element, no monoid structure.

    Used to represent complete deterministic automata so that the generic
    configuration/weight/exploration machinery applies to them unchanged.
    """

    weights = BOOLEANS

    def unit(self, x):
        return x

    def bind(self, c, f):
        return f(c)

    def sequence(self, cs):
        return tuple(cs)

    def finality_step(self, c, final):
        return final(c)

    def support(self, c):
        return [c]

    def __repr__(self):
        return "DeterministicContainer()"


OPTIONAL = OptionalContainer()
FINITE_SET = FiniteSetContainer()
BOOL_EXPR = BoolExprContainer()
DETERMINISTIC = DeterministicContainer()


def lin_comb(weights: StarSemiring) -> LinCombContainer:
    return LinCombContainer(weights)


def gen_expr(weights: StarSemiring) -> GenExprContainer:
    return GenExprContainer(weights)


def monoid_pair(monoid: MonoidValue) -> MonoidPairContainer:
    return MonoidPairContainer(monoid)


def stack_context(inner: EffectContainer) -> StackContextContainer:
    return StackContextContainer(inner)


# ---------------------------------------------------------------------------
# Law checking
# ---------------------------------------------------------------------------


@dataclass
class LawReport:
    container: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, law: str, good: bool):
        self.checked += 1
        if not good:
            self.failures.append(law)


def check_container_laws(
    container: EffectContainer,
    elements: list,
    functions: list[Callable],
    cases: int = 100,
    equal: Callable = operator.eq,
    monoid_laws: bool = True,
    action_laws: bool = True,
    finals: list[Callable] | None = None,
) -> LawReport:
    """Probe monad, monoid and action laws on random cases.

    `functions` map elements to container values.  `equal` defaults to `==`
    on container values; stack contexts pass an extensional comparator.
    `finals`, when given, map elements to weights, and the algebra law of
    `finality_step` ("finality-bind") is probed with them.
    """
    rng = random.Random(0)
    report = LawReport(repr(container))

    def rand_value():
        picks = [container.unit(rng.choice(elements))]
        if monoid_laws:
            for _ in range(rng.randrange(3)):
                picks.append(container.unit(rng.choice(elements)))
            acc = picks[0]
            for p in picks[1:]:
                acc = container.combine(acc, p)
            return acc
        return picks[0]

    for _ in range(cases):
        x = rng.choice(elements)
        f = rng.choice(functions)
        g = rng.choice(functions)
        c = rand_value()
        report.record(
            "left-identity", equal(container.bind(container.unit(x), f), f(x))
        )
        report.record("right-identity", equal(container.bind(c, container.unit), c))
        report.record(
            "associativity",
            equal(
                container.bind(container.bind(c, f), g),
                container.bind(c, lambda y: container.bind(f(y), g)),
            ),
        )
        if monoid_laws:
            a, b, d = rand_value(), rand_value(), rand_value()
            report.record(
                "monoid-assoc",
                equal(
                    container.combine(container.combine(a, b), d),
                    container.combine(a, container.combine(b, d)),
                ),
            )
            report.record("monoid-left-neutral", equal(container.combine(container.neutral, a), a))
            report.record("monoid-right-neutral", equal(container.combine(a, container.neutral), a))
        if action_laws:
            w = container.weights
            k1 = rng.choice([w.zero, w.one] + ([2, 3, -1] if w.name == "int" else []))
            k2 = rng.choice([w.zero, w.one] + ([2, 5] if w.name == "int" else []))
            a = rand_value()
            report.record("action-one", equal(container.act_left(w.one, a), a))
            report.record(
                "action-times",
                equal(
                    container.act_left(w.times(k1, k2), a),
                    container.act_left(k1, container.act_left(k2, a)),
                ),
            )
            if monoid_laws:
                b = rand_value()
                report.record(
                    "action-combine",
                    equal(
                        container.act_left(k1, container.combine(a, b)),
                        container.combine(
                            container.act_left(k1, a), container.act_left(k1, b)
                        ),
                    ),
                )
                report.record(
                    "action-plus",
                    equal(
                        container.act_left(w.plus(k1, k2), a),
                        container.combine(
                            container.act_left(k1, a), container.act_left(k2, a)
                        ),
                    ),
                )
        if finals:
            final = rng.choice(finals)
            step = container.finality_step
            report.record(
                "finality-bind",
                step(container.bind(c, f), final)
                == step(c, lambda y: step(f(y), final)),
            )
    return report


def check_semiring_laws(weights: StarSemiring, probe: list, starrable: list | None = None) -> LawReport:
    """Exhaustive semiring laws over a finite probe set, star law on request."""
    report = LawReport(f"semiring {weights.name}")
    p, t = weights.plus, weights.times
    for a in probe:
        report.record("plus-zero", p(a, weights.zero) == a)
        report.record("times-one", t(a, weights.one) == a and t(weights.one, a) == a)
        report.record("times-zero", t(a, weights.zero) == weights.zero)
        for b in probe:
            report.record("plus-comm", p(a, b) == p(b, a))
            for c in probe:
                report.record("plus-assoc", p(p(a, b), c) == p(a, p(b, c)))
                report.record("times-assoc", t(t(a, b), c) == t(a, t(b, c)))
                report.record("distrib-left", t(a, p(b, c)) == p(t(a, b), t(a, c)))
                report.record("distrib-right", t(p(a, b), c) == p(t(a, c), t(b, c)))
    for x in starrable or []:
        s = weights.star(x)
        report.record("star-law", s == p(weights.one, t(x, s)))
    return report
