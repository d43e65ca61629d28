"""Enriched expressions: one expression type for words and trees.

Atoms are tensor pairs of a symbol with variables; substitution (`Sub`) and
iteration (`Star`) are guarded by a variable, and variables mark where runs
start.  A word atom is a symbol tensored with the unit variable, that is the
unary tree atom (words read as unary trees), so word regular expressions are
the enriched expressions over the unit variable and tree regular expressions
those whose atoms carry one variable per child.  Three constructions are
provided for each: positions (via predecessors), derivation and induction.
The inductive tree construction composes `BottomUpContainerTA`s, one per
subexpression, each reading its container from the automata it is built
from.  The reversed word position and derivation automata, and the word
inductive one, are the tree automata read along unary trees; the forward
word variants are written independently.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any, Sequence

from .algebra import RankedSymbol, StarSemiring
from .automata import WordAutomaton
from .containers import EffectContainer
from .treeauto import BottomUpContainerTA, TopDownContainerTA
from .util import Inl, Inr, Scanner, UNIT, UnsupportedOperation, render
from .wordexpr import PosSym

# ---------------------------------------------------------------------------
# Expression type and atoms
# ---------------------------------------------------------------------------


class EnrichedExpression:
    __slots__ = ()


@dataclass(frozen=True)
class EEmpty(EnrichedExpression):
    def __str__(self):
        return "0"


@dataclass(frozen=True)
class EVar(EnrichedExpression):
    var: Any

    def __str__(self):
        return f"${render(self.var)}"


@dataclass(frozen=True)
class ETensor(EnrichedExpression):
    atom: Any

    def __str__(self):
        return render(self.atom)


@dataclass(frozen=True)
class ESum(EnrichedExpression):
    left: EnrichedExpression
    right: EnrichedExpression

    def __str__(self):
        return f"({render(self.left)}+{render(self.right)})"


@dataclass(frozen=True)
class ESub(EnrichedExpression):
    """`Sub(v, e1, e2)`: runs of e2 whose uses of v continue into e1."""

    var: Any
    left: EnrichedExpression
    right: EnrichedExpression

    def __str__(self):
        return f"({render(self.left)}.{render(self.var)} {render(self.right)})"


@dataclass(frozen=True)
class EStar(EnrichedExpression):
    var: Any
    body: EnrichedExpression

    def __str__(self):
        return f"({render(self.body)})*{render(self.var)}"


E_EMPTY = EEmpty()


@dataclass(frozen=True)
class WordAtom:
    """A word symbol tensored with the unit variable: the unary tree atom."""

    symbol: Any
    vars = (UNIT,)  # a class attribute, not a field

    def __str__(self):
        return render(self.symbol)


@dataclass(frozen=True)
class TreeAtom:
    """A ranked symbol tensored with one variable per child slot."""

    symbol: Any  # RankedSymbol, or PosSym over one after linearization
    vars: tuple

    def __str__(self):
        name = render(self.symbol)
        if not self.vars:
            return f"@{name}"
        return f"@{name}(" + ",".join(render(v) for v in self.vars) + ")"


def _matches(atom, symbol) -> bool:
    """Does an input symbol match this (possibly positioned) atom?"""
    base = atom.symbol.base if isinstance(atom.symbol, PosSym) else atom.symbol
    return base == symbol


# ---------------------------------------------------------------------------
# Structural analysis
# ---------------------------------------------------------------------------


def nullable_var(v, e: EnrichedExpression, weights: StarSemiring):
    """Weight of the run that reaches variable `v` through `e`."""
    if isinstance(e, (ETensor, EEmpty)):
        return weights.zero
    if isinstance(e, EVar):
        return weights.one if e.var == v else weights.zero
    if isinstance(e, ESum):
        return weights.plus(
            nullable_var(v, e.left, weights), nullable_var(v, e.right, weights)
        )
    if isinstance(e, ESub):
        n1 = nullable_var(v, e.left, weights)
        n2 = nullable_var(v, e.right, weights)
        if v == e.var:
            return weights.times(n1, n2)
        return weights.plus(
            n2, weights.times(n1, nullable_var(e.var, e.right, weights))
        )
    if isinstance(e, EStar):
        # empty iterations through the star's variable, then the body's
        # empty run to `v` (or none, for the star's own variable)
        iterate = weights.star(nullable_var(e.var, e.body, weights))
        if v == e.var:
            return iterate
        return weights.times(nullable_var(v, e.body, weights), iterate)
    raise TypeError(f"not an enriched expression: {e!r}")


def variables_of(e: EnrichedExpression, container: EffectContainer):
    """Container of the variables reachable at the start of runs."""
    w = container.weights
    if isinstance(e, (EEmpty, ETensor)):
        return container.neutral
    if isinstance(e, EVar):
        return container.unit(e.var)
    if isinstance(e, ESum):
        return container.combine(
            variables_of(e.left, container), variables_of(e.right, container)
        )
    if isinstance(e, ESub):
        vs2 = variables_of(e.right, container)
        vs1 = variables_of(e.left, container)
        return container.bind(
            vs2, lambda u: vs1 if u == e.var else container.unit(u)
        )
    if isinstance(e, EStar):
        inner = container.combine(container.unit(e.var), variables_of(e.body, container))
        return container.act_right(inner, w.star(nullable_var(e.var, e.body, w)))
    raise TypeError(f"not an enriched expression: {e!r}")


def final_symbols(e: EnrichedExpression, container: EffectContainer):
    """Container of the (possibly positioned) symbols ending runs of `e`."""
    w = container.weights
    if isinstance(e, (EEmpty, EVar)):
        return container.neutral
    if isinstance(e, ETensor):
        return container.unit(e.atom.symbol)
    if isinstance(e, ESum):
        return container.combine(
            final_symbols(e.left, container),
            final_symbols(e.right, container),
        )
    if isinstance(e, ESub):
        f1 = container.act_right(
            final_symbols(e.left, container),
            nullable_var(e.var, e.right, w),
        )
        return container.combine(f1, final_symbols(e.right, container))
    if isinstance(e, EStar):
        return container.act_right(
            final_symbols(e.body, container),
            w.star(nullable_var(e.var, e.body, w)),
        )
    raise TypeError(f"not an enriched expression: {e!r}")


def final_weight(symbol, e: EnrichedExpression, weights: StarSemiring):
    """Final weight of one symbol in `e`."""
    if isinstance(e, (EEmpty, EVar)):
        return weights.zero
    if isinstance(e, ETensor):
        return weights.one if e.atom.symbol == symbol else weights.zero
    if isinstance(e, ESum):
        return weights.plus(
            final_weight(symbol, e.left, weights),
            final_weight(symbol, e.right, weights),
        )
    if isinstance(e, ESub):
        return weights.plus(
            weights.times(
                final_weight(symbol, e.left, weights),
                nullable_var(e.var, e.right, weights),
            ),
            final_weight(symbol, e.right, weights),
        )
    if isinstance(e, EStar):
        return weights.times(
            final_weight(symbol, e.body, weights),
            weights.star(nullable_var(e.var, e.body, weights)),
        )
    raise TypeError(f"not an enriched expression: {e!r}")


def occurs(v, e: EnrichedExpression) -> bool:
    """Does variable `v` occur (as an atom slot, a `Var` or a binder use)?"""
    if isinstance(e, EEmpty):
        return False
    if isinstance(e, EVar):
        return e.var == v
    if isinstance(e, ETensor):
        return v in e.atom.vars
    if isinstance(e, ESum):
        return occurs(v, e.left) or occurs(v, e.right)
    if isinstance(e, ESub):
        return occurs(v, e.left) or occurs(v, e.right)
    if isinstance(e, EStar):
        return occurs(v, e.body)
    raise TypeError(f"not an enriched expression: {e!r}")


def reverse_expression(e: EnrichedExpression) -> EnrichedExpression:
    """Flip the substitution orientation (word atoms are symmetric)."""
    if isinstance(e, (EEmpty, EVar, ETensor)):
        return e
    if isinstance(e, ESum):
        return ESum(reverse_expression(e.left), reverse_expression(e.right))
    if isinstance(e, ESub):
        return ESub(e.var, reverse_expression(e.right), reverse_expression(e.left))
    if isinstance(e, EStar):
        return EStar(e.var, reverse_expression(e.body))
    raise TypeError(f"not an enriched expression: {e!r}")


def aci_normalize(e: EnrichedExpression, weights: StarSemiring) -> EnrichedExpression:
    """Flatten and sort sums, dropping empty terms; duplicates are removed
    only when one + one = one in `weights` (dedup changes weights over the
    integers).  Rewrites `Sub(v, e, Var v) -> e` when `v` does not occur in
    `e`."""
    dedupe = weights.plus(weights.one, weights.one) == weights.one

    def go(e):
        if isinstance(e, (EEmpty, EVar, ETensor)):
            return e
        if isinstance(e, ESum):
            terms: list = []

            def collect(node):
                if isinstance(node, ESum):
                    collect(node.left)
                    collect(node.right)
                else:
                    norm = go(node)
                    if not isinstance(norm, EEmpty):
                        terms.append(norm)

            collect(e)
            terms = sorted(set(terms) if dedupe else terms, key=render)
            if not terms:
                return E_EMPTY
            out = terms[0]
            for t in terms[1:]:
                out = ESum(out, t)
            return out
        if isinstance(e, ESub):
            left, right = go(e.left), go(e.right)
            if right == EVar(e.var) and not occurs(e.var, left):
                return left
            return ESub(e.var, left, right)
        if isinstance(e, EStar):
            return EStar(e.var, go(e.body))
        raise TypeError(f"not an enriched expression: {e!r}")

    return go(e)


def weighted_sum_decomposition(e: EnrichedExpression, weights: StarSemiring) -> list:
    """Split a top-level sum into (term, multiplicity) pairs; duplicated
    summands accumulate multiplicity in the given semiring."""
    terms: list = []

    def collect(node):
        if isinstance(node, ESum):
            collect(node.left)
            collect(node.right)
        elif not isinstance(node, EEmpty):
            terms.append(node)

    collect(e)
    counted: dict = {}
    for t in terms:
        counted[t] = weights.plus(counted.get(t, weights.zero), weights.one)
    return sorted(counted.items(), key=lambda kv: render(kv[0]))


def linearize(e: EnrichedExpression) -> EnrichedExpression:
    """Index the symbol side of every atom; variables stay untouched."""
    counter = 1

    def go(node):
        nonlocal counter
        if isinstance(node, ETensor):
            atom = replace(node.atom, symbol=PosSym(counter, node.atom.symbol))
            counter += 1
            return ETensor(atom)
        if isinstance(node, ESum):
            return ESum(go(node.left), go(node.right))
        if isinstance(node, ESub):
            return ESub(node.var, go(node.left), go(node.right))
        if isinstance(node, EStar):
            return EStar(node.var, go(node.body))
        return node

    return go(e)


def atoms_of(e: EnrichedExpression) -> list:
    out = []

    def walk(node):
        if isinstance(node, ETensor):
            out.append(node.atom)
        elif isinstance(node, ESum):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ESub):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, EStar):
            walk(node.body)

    walk(e)
    return out


# ---------------------------------------------------------------------------
# Predecessors (position functions)
# ---------------------------------------------------------------------------


def _substitute(container, v, to_add, c):
    """Replace `Inl(v)` atoms inside a container of atom vectors."""

    def subst_one(x):
        if isinstance(x, Inl) and x.value == v:
            return to_add
        return container.unit(x)

    return container.bind(
        c, lambda vect: container.sequence([subst_one(x) for x in vect])
    )


def _finals_and_vars(e, container):
    return container.combine(
        container.map(Inr, final_symbols(e, container)),
        container.map(Inl, variables_of(e, container)),
    )


def predecessors(p, e: EnrichedExpression, container: EffectContainer):
    """Container of the predecessor vectors of a positioned symbol `p`.

    Each vector has one `Inl(var)`/`Inr(symbol)` entry per child slot of `p`
    (a single entry for word symbols)."""
    w = container.weights
    if isinstance(e, (EEmpty, EVar)):
        return container.neutral
    if isinstance(e, ETensor):
        if e.atom.symbol == p:
            vect = tuple(Inl(v) for v in e.atom.vars)
            return container.unit(vect)
        return container.neutral
    if isinstance(e, ESum):
        return container.combine(
            predecessors(p, e.left, container),
            predecessors(p, e.right, container),
        )
    if isinstance(e, ESub):
        to_add = _finals_and_vars(e.left, container)
        return container.combine(
            predecessors(p, e.left, container),
            _substitute(container, e.var, to_add, predecessors(p, e.right, container)),
        )
    if isinstance(e, EStar):
        inner = container.combine(
            container.map(Inr, final_symbols(e.body, container)),
            container.map(
                Inl,
                container.combine(container.unit(e.var), variables_of(e.body, container)),
            ),
        )
        to_add = container.act_right(inner, w.star(nullable_var(e.var, e.body, w)))
        return _substitute(container, e.var, to_add, predecessors(p, e.body, container))
    raise TypeError(f"not an enriched expression: {e!r}")


# ---------------------------------------------------------------------------
# Position automata
# ---------------------------------------------------------------------------


def _read_root_first(td: TopDownContainerTA) -> WordAutomaton:
    """A top-down tree automaton read along unary trees, root first: each
    step keeps the one child state, and a state's final weight is what it
    pays toward the unit variable."""
    c = td.container

    def delta(x, state):
        return c.map(lambda vect: vect[0], td.delta(x, state))

    def final(state):
        return c.element_weight(td.var_weight(state), UNIT)

    return WordAutomaton(c, td.initial, delta, final)


def word_position_automaton(
    e: EnrichedExpression, container: EffectContainer, variant: str = "reversed"
) -> WordAutomaton:
    """Position automaton of a word-shaped enriched expression.

    `reversed` is the top-down tree position automaton of the reversed
    expression, read root first; `forward` keeps the expression and inverts
    the predecessor links.  Both give the same weights."""
    if variant == "reversed":
        return _read_root_first(tree_position_automaton(reverse_expression(e), container))
    if variant != "forward":
        raise ValueError("variant must be 'reversed' or 'forward'")
    w = container.weights
    lin = linearize(e)
    positions = [a.symbol for a in atoms_of(lin)]
    pred_list = [
        (q, container.map(lambda vect: vect[0], predecessors(q, lin, container)))
        for q in positions
    ]

    def succs_of(atom_state):
        out = container.neutral
        for q, preds in pred_list:
            hits = container.bind(
                preds,
                lambda x, q=q: container.unit(Inr(q)) if x == atom_state else container.neutral,
            )
            out = container.combine(out, hits)
        return out

    def delta(x, state):
        if isinstance(state, Inr) and state.value.base == x:
            exit_w = final_weight(state.value, lin, w)
            return container.combine(
                container.act_left(exit_w, container.unit(Inl(UNIT))),
                succs_of(state),
            )
        return container.neutral

    def final(state):
        return w.one if isinstance(state, Inl) else w.zero

    initial = container.combine(
        succs_of(Inl(UNIT)),
        container.act_left(nullable_var(UNIT, lin, w), container.unit(Inl(UNIT))),
    )
    return WordAutomaton(container, initial, delta, final)


def tree_position_automaton(e: EnrichedExpression, container: EffectContainer) -> TopDownContainerTA:
    """Top-down position automaton: states are variables and positioned
    symbols; transitions follow predecessor vectors."""
    lin = linearize(e)

    def delta(symbol, state):
        if isinstance(state, Inr):
            pos = state.value
            if pos.base == symbol:
                return predecessors(pos, lin, container)
        return container.neutral

    def var_weight(state):
        if isinstance(state, Inl):
            return container.unit(state.value)
        return container.neutral

    return TopDownContainerTA(
        container, _finals_and_vars(lin, container), delta, var_weight
    )


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def enriched_derive(symbol, e: EnrichedExpression, container: EffectContainer):
    """Derivative by one (ranked) symbol: a container of vectors of
    continuation expressions, one per child slot."""
    w = container.weights
    if isinstance(e, (EEmpty, EVar)):
        return container.neutral
    if isinstance(e, ETensor):
        if _matches(e.atom, symbol):
            return container.unit(tuple(EVar(v) for v in e.atom.vars))
        return container.neutral
    if isinstance(e, ESum):
        return container.combine(
            enriched_derive(symbol, e.left, container),
            enriched_derive(symbol, e.right, container),
        )
    if isinstance(e, ESub):
        left = container.act_left(
            nullable_var(e.var, e.right, w),
            enriched_derive(symbol, e.left, container),
        )
        right = container.map(
            lambda vect: tuple(ESub(e.var, e.left, d) for d in vect),
            enriched_derive(symbol, e.right, container),
        )
        return container.combine(left, right)
    if isinstance(e, EStar):
        inner = container.map(
            lambda vect: tuple(ESub(e.var, e, d) for d in vect),
            enriched_derive(symbol, e.body, container),
        )
        return container.act_left(w.star(nullable_var(e.var, e.body, w)), inner)
    raise TypeError(f"not an enriched expression: {e!r}")


def enriched_derive_left(symbol, e: EnrichedExpression, container: EffectContainer):
    """Mirror-image word derivation, consuming the first symbol instead of
    the last; word-shaped expressions only."""
    w = container.weights
    if isinstance(e, (EEmpty, EVar)):
        return container.neutral
    if isinstance(e, ETensor):
        if _matches(e.atom, symbol):
            return container.unit(EVar(UNIT))
        return container.neutral
    if isinstance(e, ESum):
        return container.combine(
            enriched_derive_left(symbol, e.left, container),
            enriched_derive_left(symbol, e.right, container),
        )
    if isinstance(e, ESub):
        left = container.map(
            lambda d: ESub(e.var, d, e.right),
            enriched_derive_left(symbol, e.left, container),
        )
        right = container.act_left(
            nullable_var(e.var, e.left, w),
            enriched_derive_left(symbol, e.right, container),
        )
        return container.combine(left, right)
    if isinstance(e, EStar):
        inner = container.map(
            lambda d: ESub(e.var, d, e),
            enriched_derive_left(symbol, e.body, container),
        )
        return container.act_left(w.star(nullable_var(e.var, e.body, w)), inner)
    raise TypeError(f"not an enriched expression: {e!r}")


def _normalize_states(container, c):
    """ACI-normalize every expression in a derivation step's vectors, folding
    duplicate summands into container coefficients so that normalization
    preserves weights over any semiring."""
    w = container.weights

    def norm_vector(vect):
        parts = [weighted_sum_decomposition(aci_normalize(d, w), w) for d in vect]
        out = container.neutral
        for combo in itertools.product(*parts):
            weight = w.one
            exprs = []
            for term, k in combo:
                weight = w.times(weight, k)
                exprs.append(term)
            piece = container.act_left(weight, container.unit(tuple(exprs)))
            out = container.combine(out, piece)
        return out

    return container.bind(c, norm_vector)


def word_derivation_automaton(
    e: EnrichedExpression, container: EffectContainer, orientation: str = "reversed"
) -> WordAutomaton:
    """Derivation automaton of a word-shaped enriched expression.

    `reversed` is the top-down tree derivation automaton of the reversed
    expression, read root first; `forward` derives by the first symbol with
    the mirrored clause set."""
    if orientation == "reversed":
        return _read_root_first(tree_derivation_automaton(reverse_expression(e), container))
    if orientation != "forward":
        raise ValueError("orientation must be 'reversed' or 'forward'")
    w = container.weights

    def delta(x, state):
        d = container.map(lambda expr: (expr,), enriched_derive_left(x, state, container))
        return container.map(lambda vect: vect[0], _normalize_states(container, d))

    return WordAutomaton(
        container,
        container.unit(aci_normalize(e, w)),
        delta,
        lambda state: nullable_var(UNIT, state, w),
    )


def tree_derivation_automaton(e: EnrichedExpression, container: EffectContainer) -> TopDownContainerTA:
    """Top-down derivation automaton with expression states."""

    def delta(symbol, state):
        return _normalize_states(container, enriched_derive(symbol, state, container))

    def var_weight(state):
        return variables_of(state, container)

    return TopDownContainerTA(
        container,
        container.unit(aci_normalize(e, container.weights)),
        delta,
        var_weight,
    )


# ---------------------------------------------------------------------------
# Induction
# ---------------------------------------------------------------------------


def _var_pieces(v, container) -> BottomUpContainerTA:
    w = container.weights
    return BottomUpContainerTA(
        container,
        init=lambda u: container.unit(u),
        delta=lambda *_args: container.neutral,
        final=lambda u: w.one if u == v else w.zero,
    )


def _empty_pieces(container) -> BottomUpContainerTA:
    return BottomUpContainerTA(
        container,
        init=lambda _u: container.neutral,
        delta=lambda *_args: container.neutral,
        final=lambda _s: container.weights.zero,
    )


def _var_weight_of(p: BottomUpContainerTA, var):
    return p.container.finality_step(p.init(var), p.final)


_value = attrgetter("value")  # of an Inl/Inr state


def _sum_pieces(p1: BottomUpContainerTA, p2: BottomUpContainerTA) -> BottomUpContainerTA:
    container = p1.container

    def init(u):
        return container.combine(
            container.map(Inl, p1.init(u)), container.map(Inr, p2.init(u))
        )

    def final(s):
        return p1.final(s.value) if isinstance(s, Inl) else p2.final(s.value)

    def delta(symbol, states):
        # children from one side fire that side; a leaf fires both
        sides = set(map(type, states))
        if len(sides) > 1:
            return container.neutral
        values = tuple(map(_value, states))
        if not sides:
            return container.combine(
                container.map(Inl, p1.delta(symbol, values)),
                container.map(Inr, p2.delta(symbol, values)),
            )
        if Inl in sides:
            return container.map(Inl, p1.delta(symbol, values))
        return container.map(Inr, p2.delta(symbol, values))

    return BottomUpContainerTA(container, init, delta, final)


def _sub_pieces(v, p1: BottomUpContainerTA, p2: BottomUpContainerTA) -> BottomUpContainerTA:
    """Substitution: runs of p1 hop into p2's configuration for `v` at their
    final states; only p2's states are final."""
    container = p1.container
    w = container.weights
    base = _sum_pieces(p1, p2)

    def hop(state):
        if isinstance(state, Inl):
            return container.combine(
                container.unit(state),
                container.act_left(
                    p1.final(state.value), container.map(Inr, p2.init(v))
                ),
            )
        return container.unit(state)

    def delta(symbol, states):
        return container.bind(base.delta(symbol, states), hop)

    def init(u):
        # a zero-length p1 run from u continues straight into p2's v entry;
        # the hop in delta only covers runs that took at least one step
        entry = container.combine(
            container.map(Inl, p1.init(u)),
            container.act_left(_var_weight_of(p1, u), container.map(Inr, p2.init(v))),
        )
        if u == v:
            return entry
        return container.combine(entry, container.map(Inr, p2.init(u)))

    def final(s):
        return p2.final(s.value) if isinstance(s, Inr) else w.zero

    return BottomUpContainerTA(container, init, delta, final)


def _positive_star_pieces(v, p: BottomUpContainerTA) -> BottomUpContainerTA:
    container = p.container
    w = container.weights
    eps = _var_weight_of(p, v)
    star_eps = w.star(eps)

    def hop(state):
        return container.combine(
            container.unit(state),
            container.act_left(p.final(state), p.init(v)),
        )

    def delta(symbol, states):
        return container.bind(p.delta(symbol, states), hop)

    def init(u):
        if u == v:
            return container.act_left(star_eps, p.init(v))
        # a zero-length body run from u ends an iteration, as a final
        # state does in `hop`
        return container.combine(
            p.init(u),
            container.act_left(w.times(_var_weight_of(p, u), star_eps), p.init(v)),
        )

    def final(s):
        return w.times(p.final(s), star_eps)

    return BottomUpContainerTA(container, init, delta, final)


def _tensor_pieces(atom, container) -> BottomUpContainerTA:
    w = container.weights
    expected = tuple(Inl(v) for v in atom.vars)

    def init(u):
        return container.unit(Inl(u))

    def delta(symbol, states):
        if states == expected and _matches(atom, symbol):
            return container.unit(Inr(atom.symbol))
        return container.neutral

    def final(s):
        return w.one if isinstance(s, Inr) else w.zero

    return BottomUpContainerTA(container, init, delta, final)


def _inductive_pieces(e: EnrichedExpression, container) -> BottomUpContainerTA:
    if isinstance(e, EEmpty):
        return _empty_pieces(container)
    if isinstance(e, EVar):
        return _var_pieces(e.var, container)
    if isinstance(e, ETensor):
        return _tensor_pieces(e.atom, container)
    if isinstance(e, ESum):
        return _sum_pieces(
            _inductive_pieces(e.left, container), _inductive_pieces(e.right, container)
        )
    if isinstance(e, ESub):
        return _sub_pieces(
            e.var, _inductive_pieces(e.left, container), _inductive_pieces(e.right, container)
        )
    if isinstance(e, EStar):
        inner = _positive_star_pieces(e.var, _inductive_pieces(e.body, container))
        return _sum_pieces(inner, _var_pieces(e.var, container))
    raise TypeError(f"not an enriched expression: {e!r}")


def word_inductive_automaton(e: EnrichedExpression, container: EffectContainer) -> WordAutomaton:
    """The bottom-up inductive tree automaton read along unary trees, leaf
    first: the initial configuration is the unit variable's, and each step
    fires on the one child state."""
    bu = tree_inductive_automaton(e, container)
    return WordAutomaton(container, bu.init(UNIT), lambda x, s: bu.delta(x, (s,)), bu.final)


def tree_inductive_automaton(
    e: EnrichedExpression, container: EffectContainer
) -> BottomUpContainerTA:
    """Structural construction of a bottom-up tree automaton; holes draw
    their configurations from the per-variable initial morphism."""
    return _inductive_pieces(e, container)


# ---------------------------------------------------------------------------
# Word expression translation
# ---------------------------------------------------------------------------


def from_word_expression(e) -> EnrichedExpression:
    """Translate a simple word expression (sum/concat/star only) into the
    enriched form over the unit variable."""
    from . import wordexpr as wx

    if isinstance(e, wx.Epsilon):
        return EVar(UNIT)
    if isinstance(e, wx.Empty):
        return E_EMPTY
    if isinstance(e, wx.Sym):
        return ETensor(WordAtom(e.symbol))
    if isinstance(e, wx.Op):
        op = e.operator
        if isinstance(op, wx.Plus):
            return ESum(
                from_word_expression(e.operands[0]), from_word_expression(e.operands[1])
            )
        if isinstance(op, wx.Concat):
            return ESub(
                UNIT,
                from_word_expression(e.operands[0]),
                from_word_expression(e.operands[1]),
            )
        if isinstance(op, wx.Star):
            return EStar(UNIT, from_word_expression(e.operands[0]))
    raise UnsupportedOperation(f"no enriched form for {e!r}")


# ---------------------------------------------------------------------------
# Text format and random generation
# ---------------------------------------------------------------------------

DEFAULT_TREE_ALPHABET = (
    RankedSymbol("a", 0),
    RankedSymbol("b", 0),
    RankedSymbol("c", 0),
    RankedSymbol("f", 1),
    RankedSymbol("h", 1),
    RankedSymbol("g", 2),
)


def expression_to_text(e: EnrichedExpression) -> str:
    """The text of `e`: for a tree expression, what `parse_tree_expression`
    reads back to `e`."""
    return str(e)


class _TreeExprParser(Scanner):
    """Parser for the enriched tree expression format."""

    def __init__(self, text: str, alphabet: Sequence[RankedSymbol]):
        super().__init__(text)
        self.by_name = {s.name: s for s in alphabet}

    def varref(self):
        if self.peek() == "(":
            self.eat("(")
            self.eat(")")
            return UNIT
        return self.name("_")

    def expr(self):
        start = self.depth
        e = self.term()
        while self.chained("+"):
            e = ESum(e, self.term())
        self.depth = start
        return e

    def term(self):
        start = self.depth
        e = self.postfix()
        while self.chained("."):
            e = ESub(self.varref(), e, self.postfix())
        self.depth = start
        return e

    def postfix(self):
        start = self.depth
        e = self.atom()
        while self.peek() == "*":
            self.eat("*")
            self.nest()
            e = EStar(self.varref(), e)
        self.depth = start
        return e

    def atom(self):
        ch = self.peek()
        if ch == "(":
            return self.group()
        if ch == "0":
            self.pos += 1
            return E_EMPTY
        if ch == "$":
            self.eat("$")
            return EVar(self.varref())
        if ch == "@":
            self.eat("@")
            name = self.name("_")
            if name not in self.by_name:
                self.error(f"unknown symbol {name!r}")
            symbol = self.by_name[name]
            vars_ = self.listed(self.varref) if self.peek() == "(" and symbol.arity else []
            if len(vars_) != symbol.arity:
                self.error(f"symbol {name!r} expects {symbol.arity} variables")
            return ETensor(TreeAtom(symbol, tuple(vars_)))
        self.error("expected an atom")


def parse_tree_expression(
    text: str, alphabet: Sequence[RankedSymbol] = DEFAULT_TREE_ALPHABET
) -> EnrichedExpression:
    """`e1 .v e2`: substitution of the runs of e1 for `v` inside e2; note the
    operand order follows the enriched orientation."""
    return _TreeExprParser(text, alphabet).parse()


def random_tree_expression(
    seed: int,
    size: int,
    alphabet: Sequence[RankedSymbol] = DEFAULT_TREE_ALPHABET,
    variables: Sequence = (UNIT,),
    rng: random.Random | None = None,
) -> EnrichedExpression:
    """Seed-deterministic closed tree expression with about `size` operator
    nodes; Star/Sub binders always find their variable in scope."""
    r = rng if rng is not None else random.Random(seed)
    alphabet = list(alphabet)
    variables = list(variables)
    nullary = [s for s in alphabet if s.arity == 0]

    def atom():
        symbol = r.choice(alphabet)
        return ETensor(TreeAtom(symbol, tuple(r.choice(variables) for _ in range(symbol.arity))))

    def leaf_base():
        return ETensor(TreeAtom(r.choice(nullary), ()))

    def gen(n, star_ok=True):
        if n <= 0:
            return atom() if r.random() < 0.75 else EVar(r.choice(variables))
        kind = r.choice(["sum", "sub", "star"] if star_ok else ["sum", "sub"])
        if kind == "sum":
            left = r.randint(0, n - 1)
            return ESum(gen(left), gen(n - 1 - left))
        if kind == "star":
            v = r.choice(variables)
            body = gen(n - 1, star_ok=False)
            if not occurs(v, body):
                body = ESum(body, atom_with(v))
            # a body that reaches the star's variable on an empty run has
            # an undefined star weight over the integers; the check covers
            # every variable so that the random stream stays as it was
            from .algebra import BOOLEANS

            if any(nullable_var(u, body, BOOLEANS) for u in variables):
                body = atom_with(v)
            return EStar(v, body)
        v = r.choice(variables)
        left = r.randint(0, n - 1)
        e1 = gen(left)
        e2 = gen(n - 1 - left)
        if not occurs(v, e2):
            e2 = ESum(e2, atom_with(v))
        return ESub(v, e1, e2)

    def atom_with(v):
        usable = [s for s in alphabet if s.arity > 0]
        symbol = r.choice(usable) if usable else nullary[0]
        vars_ = [r.choice(variables) for _ in range(symbol.arity)]
        if symbol.arity:
            vars_[r.randrange(symbol.arity)] = v
        return ETensor(TreeAtom(symbol, tuple(vars_)))

    core = gen(size)
    # close the expression so it denotes nullary trees: substitute every
    # variable's runs by a nullary leaf
    closed = core
    for v in variables:
        if occurs(v, closed):
            closed = ESub(v, leaf_base(), closed)
    return closed
