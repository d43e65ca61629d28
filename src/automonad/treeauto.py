"""Bottom-up and top-down tree automata over ranked alphabets.

Holes in input trees stand for variables, consumed left to right; the weight
of a k-ary tree is therefore a k-ary function of variable assignments.  Four
flavors ship: container-valued bottom-up, its deterministic-complete
(identity-container) case with variable initialization and a root weight,
container-valued top-down and multi-operator-weighted bottom-up (transitions
weighted by n-ary functions on a monoid).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from .algebra import HOLE, MonoidValue, Node, RankedSymbol, RankedTree, subtrees
from .containers import DETERMINISTIC, EffectContainer, FiniteSetContainer, lin_comb
from .algebra import INTEGERS
from .automata import (
    DEFAULT_MAX_STATES,
    ExplorationResult,
    Transition,
    _MISSING,
    _StateIds,
    _accepting_node,
    _breadth_first,
    _dot_graph,
    _dot_label,
    _dot_starts,
    _dot_states,
    _memo,
    _require,
    _weighed_by,
)
from .util import UNIT, UnsupportedOperation, render


def _split_by_arity(values, children):
    """Slice a flat tuple of variables into per-child groups."""
    out = []
    i = 0
    for child in children:
        n = child.arity()
        out.append(tuple(values[i : i + n]))
        i += n
    return out


# ---------------------------------------------------------------------------
# Container-valued bottom-up automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BottomUpContainerTA:
    """Bottom-up automaton whose transitions land in an effect container.

    `init` assigns a configuration to each variable; child configurations
    combine by cartesian expansion (all member tuples feed the transition).
    States must be hashable: a fold keys its node steps by them."""

    container: EffectContainer
    init: Callable[[Any], Any] | None
    delta: Callable[[RankedSymbol, tuple], Any]
    final: Callable[[Any], Any]

    def config(self, t: RankedTree, variables: tuple = ()):
        """The configuration of `t` with its holes bound to `variables`.
        Each node step `(symbol, child configurations)` is computed once per
        call, or once per table for a `tabulated()` automaton."""
        cont = self.container
        if len(variables) != t.arity():
            raise ValueError(f"tree of arity {t.arity()} needs {t.arity()} variables")
        steps = self._steps()

        def go(tree, vs):
            if tree is HOLE:
                if self.init is None:
                    raise UnsupportedOperation("automaton has no variable initialization")
                return self.init(vs[0])
            assert isinstance(tree, Node)
            groups = _split_by_arity(vs, tree.children)
            children = tuple([go(c, g) for c, g in zip(tree.children, groups)])
            key = (tree.symbol, children)
            out = steps.get(key, _MISSING)
            if out is _MISSING:
                out = steps[key] = cont.bind(
                    cont.sequence(children), lambda states: self.delta(tree.symbol, states)
                )
            return out

        return go(t, tuple(variables))

    def _steps(self) -> dict:
        """The `(symbol, child configurations) -> configuration` memo of a fold."""
        return {}

    def weight(self, t: RankedTree, variables: tuple = ()):
        return self.container.finality_step(self.config(t, variables), self.final)

    def recognizes(self, t: RankedTree) -> bool:
        return bool(self.weight(t))

    def tabulated(self) -> BottomUpContainerTA:
        """The same automaton over integer state ids, kept as a table.  Each
        row `(symbol, id tuple)`, each variable's initial configuration, each
        final weight and each node step `(symbol, child configurations)` is
        computed the first time it is used and looked up afterwards; weights
        are unchanged."""
        ids = _StateIds(self.container)
        states = ids.states
        init = None if self.init is None else _memo(lambda var: ids.value(self.init(var)))
        return _BottomUpTable(
            self.container,
            init,
            _memo(lambda symbol, key: ids.value(self.delta(symbol, tuple(states[i] for i in key)))),
            _memo(lambda i: self.final(states[i])),
        )


@dataclass(frozen=True)
class _BottomUpTable(BottomUpContainerTA):
    """A tabulated bottom-up automaton: its states are already ids, so it is
    its own table.  It keeps each node step it reads,
    `(symbol, child configurations) -> bind(sequence(children), row)`, for
    its lifetime, so `steps` grows with the distinct configurations read;
    a hole reads the memoized `init`."""

    steps: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def _steps(self) -> dict:
        return self.steps

    def tabulated(self) -> BottomUpContainerTA:
        return self


class BottomUpDetTA(BottomUpContainerTA):
    """Complete deterministic bottom-up automaton: the identity-container
    (`DETERMINISTIC`) case, whose configuration is a single state.  `init`
    maps a variable to a state, `final` the root state to a weight (a
    boolean for plain recognizers)."""

    def __init__(
        self,
        init: Callable[[Any], Any] | None,
        delta: Callable[[RankedSymbol, tuple], Any],
        final: Callable[[Any], Any],
    ):
        super().__init__(DETERMINISTIC, init, delta, final)

    state_of = BottomUpContainerTA.config

    def weight_fn(self, t: RankedTree) -> Callable:
        """The k-ary function Var^k -> weight denoted by a k-ary tree."""
        return lambda *variables: self.weight(t, variables)


def bu_determinize(auto: BottomUpContainerTA) -> BottomUpDetTA:
    """Subset construction for variable-free finite-set tree automata:
    delta(f, (Q1..Qn)) is the union over all member tuples."""
    _require(auto, FiniteSetContainer, "bu_determinize")
    if auto.init is not None:
        raise UnsupportedOperation("determinization is restricted to variable-free automata")

    cont = auto.container

    def delta(symbol, subsets):
        return cont.bind(cont.sequence(subsets), partial(auto.delta, symbol))

    return BottomUpDetTA(None, _memo(delta), _weighed_by(auto))


# ---------------------------------------------------------------------------
# Container-valued top-down automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopDownContainerTA:
    """Top-down automaton: a state reading an n-ary symbol yields a container
    of n-tuples of states; `var_weight` pays a state's way out toward a
    variable at a hole.  The initial configuration, each transition and each
    hole are weighed through the container's `finality_step`, so any
    container that weighs a word weighs a tree."""

    container: EffectContainer
    initial: Any  # container of states
    delta: Callable[[RankedSymbol, Any], Any]  # -> container of state tuples
    var_weight: Callable[[Any], Any]  # state -> container of variables

    def weight(self, t: RankedTree, variables: tuple = ()):
        """The weight of `t` with its holes bound to `variables`.  Each
        `(state, subtree, variables)` weight is computed once per call, or
        once per table for a `tabulated()` automaton."""
        cont = self.container
        w = cont.weights
        if len(variables) != t.arity():
            raise ValueError(f"tree of arity {t.arity()} needs {t.arity()} variables")
        memo = self._subtree_weights()

        def go(state, tree, vs):
            key = (state, tree, vs)
            out = memo.get(key)
            if out is not None:
                return out
            if tree is HOLE:
                out = cont.element_weight(self.var_weight(state), vs[0])
            else:
                assert isinstance(tree, Node)
                groups = _split_by_arity(vs, tree.children)

                def children(states):
                    prod = w.one
                    for child_state, child, g in zip(states, tree.children, groups):
                        prod = w.times(prod, go(child_state, child, g))
                        if prod == w.zero:
                            break
                    return prod

                out = cont.finality_step(self.delta(tree.symbol, state), children)
            memo[key] = out
            return out

        return cont.finality_step(self.initial, lambda state: go(state, t, tuple(variables)))

    def _subtree_weights(self) -> dict:
        """The `(state, subtree, variables) -> weight` memo of one weighing."""
        return {}

    def recognizes(self, t: RankedTree) -> bool:
        return bool(self.weight(t))

    def tabulated(self) -> TopDownContainerTA:
        """The same automaton over integer state ids.  Each row `(symbol, id)`,
        each state's variable weight and each `(id, subtree, variables)`
        weight is computed the first time it is used and looked up
        afterwards; weights are unchanged."""
        ids = _StateIds(self.container)
        states = ids.states

        def delta(symbol, i):
            vectors = self.delta(symbol, states[i])
            return self.container.map(lambda vect: tuple(map(ids.of, vect)), vectors)

        return _TopDownTable(
            self.container,
            ids.value(self.initial),
            _memo(delta),
            _memo(lambda i: self.var_weight(states[i])),
        )


@dataclass(frozen=True)
class _TopDownTable(TopDownContainerTA):
    """A tabulated top-down automaton: its states are already ids, so it is
    its own table, and it keeps every subtree weight it computes for its
    lifetime, so a subtree that recurs in later trees is weighed once."""

    subtree_weights: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def _subtree_weights(self) -> dict:
        return self.subtree_weights

    def tabulated(self) -> TopDownContainerTA:
        return self


def occurrence_automaton(subject: RankedTree) -> TopDownContainerTA:
    """Count occurrences of a pattern inside `subject`.

    States are the (nullary) subtrees of the subject, initialized with their
    occurrence counts; every state pays one unit toward the unique variable,
    so the weight of a k-ary pattern is its number of matches."""
    if subject.arity() != 0:
        raise ValueError("the subject tree must be nullary")
    ints = lin_comb(INTEGERS)
    counts: dict = {}
    for sub in subtrees(subject):
        counts[sub] = counts.get(sub, 0) + 1
    initial = ints.from_entries(counts.items())

    def delta(symbol, state):
        if isinstance(state, Node) and state.symbol == symbol:
            return ints.unit(tuple(state.children))
        return ints.neutral

    def var_weight(_state):
        return ints.unit(UNIT)

    return TopDownContainerTA(ints, initial, delta, var_weight)


# ---------------------------------------------------------------------------
# Multi-operator-monoid weighted bottom-up automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFun:
    """An n-ary weight function on a monoid, tagged with its arity."""

    arity: int
    fn: Callable

    def __call__(self, *args):
        if len(args) != self.arity:
            raise ValueError(f"{self.arity}-ary weight applied to {len(args)} arguments")
        return self.fn(*args)


@dataclass(frozen=True)
class MultiOpBUTA:
    """Bottom-up automaton weighted by n-ary functions on a monoid.

    `delta(symbol, states)` maps a transition to `{target: WeightFun}`;
    parallel entries for the same target combine pointwise in the monoid."""

    monoid: MonoidValue
    init: Callable[[Any], dict] | None  # variable -> {state: 1-ary WeightFun}
    delta: Callable[[RankedSymbol, tuple], dict]
    final: Callable[[Any], WeightFun]  # 1-ary weight per state

    def _merge(self, acc: dict, state, wf: WeightFun):
        if state in acc:
            old = acc[state]
            if old.arity != wf.arity:
                raise ValueError("weight functions of unequal arity for one state")
            acc[state] = WeightFun(
                wf.arity,
                lambda *xs, f=old.fn, g=wf.fn: self.monoid.combine(f(*xs), g(*xs)),
            )
        else:
            acc[state] = wf

    def weight_fn(self, t: RankedTree, variables: tuple = ()) -> WeightFun:
        """Weight of `t` with holes bound to `variables`: a k-ary function on
        the monoid (k = number of holes)."""
        if len(variables) != t.arity():
            raise ValueError(f"tree of arity {t.arity()} needs {t.arity()} variables")
        vs = list(variables)

        def go(tree) -> dict:
            if tree is HOLE:
                if self.init is None:
                    raise UnsupportedOperation("automaton has no variable initialization")
                return dict(self.init(vs.pop(0)))
            assert isinstance(tree, Node)
            child_maps = [go(c) for c in tree.children]
            arities = [c.arity() for c in tree.children]
            out: dict = {}
            for combo in itertools.product(*(m.items() for m in child_maps)):
                states = tuple(s for s, _ in combo)
                funs = [wf for _, wf in combo]
                for target, op in self.delta(tree.symbol, states).items():
                    composed = _compose(op, funs, arities, tree.arity())
                    self._merge(out, target, composed)
            return out

        weights = go(t)
        total_arity = t.arity()

        def total(*xs):
            acc = self.monoid.neutral
            for state, wf in sorted(weights.items(), key=lambda kv: render(kv[0])):
                acc = self.monoid.combine(acc, self.final(state)(wf(*xs)))
            return acc

        return WeightFun(total_arity, total)

    def weight(self, t: RankedTree, variables: tuple = (), args: tuple = ()):
        """Scalar weight: bind holes to `variables`, then apply the resulting
        k-ary function to the monoid arguments `args`."""
        return self.weight_fn(t, variables)(*args)


def _compose(op: WeightFun, funs: list[WeightFun], arities: list[int], total: int):
    def composed(*xs):
        if len(xs) != total:
            raise ValueError(f"{total}-ary weight applied to {len(xs)} arguments")
        vals = []
        i = 0
        for wf, n in zip(funs, arities):
            vals.append(wf(*xs[i : i + n]))
            i += n
        return op(*vals)

    return WeightFun(total, composed)


# ---------------------------------------------------------------------------
# Exploration and DOT export
# ---------------------------------------------------------------------------


class TreeExploration(ExplorationResult):
    """The exploration of a tree automaton: a transition's `source` is the
    tuple of states it fires from, and `finals` holds each state's final
    weight (bottom-up) or variable weight (top-down)."""


def tree_explore(
    auto: BottomUpContainerTA,
    alphabet: Sequence[RankedSymbol],
    max_states: int = DEFAULT_MAX_STATES,
) -> TreeExploration:
    """Accessible states of a bottom-up automaton: nullary symbols seed the
    worklist, and expanding a state fires every symbol once on each tuple of
    expanded states that contains it (semi-naive evaluation)."""
    cont = auto.container
    transitions = []
    expanded: list = []

    def fire(symbol, combo):
        value = auto.delta(symbol, combo)
        transitions.append(Transition(combo, symbol, value))
        return cont.support(value)

    def successors(state):
        earlier = list(expanded)
        expanded.append(state)
        for symbol in alphabet:
            n = symbol.arity
            # `state` first occurs at slot i: earlier slots hold states
            # expanded before it, later slots any expanded state
            for i in range(n):
                heads = itertools.product(earlier, repeat=i)
                tails = itertools.product(expanded, repeat=n - 1 - i)
                for head, tail in itertools.product(heads, tails):
                    yield from fire(symbol, head + (state,) + tail)

    leaves = [t for sym in alphabet if sym.arity == 0 for t in fire(sym, ())]
    states, truncated = _breadth_first(leaves, successors, max_states)
    finals = {s: auto.final(s) for s in states}
    return TreeExploration(states, transitions, truncated, cont, finals)


def td_explore(
    auto: TopDownContainerTA,
    alphabet: Sequence[RankedSymbol],
    max_states: int = DEFAULT_MAX_STATES,
) -> TreeExploration:
    """Reachable states of a top-down automaton from its initial
    configuration; transitions record the container of child-state tuples."""
    cont = auto.container
    transitions = []

    def successors(state):
        for symbol in alphabet:
            value = auto.delta(symbol, state)
            transitions.append(Transition((state,), symbol, value))
            yield from (t for vect in cont.support(value) for t in vect)

    states, truncated = _breadth_first(cont.support(auto.initial), successors, max_states)
    finals = {s: auto.var_weight(s) for s in states}
    return TreeExploration(states, transitions, truncated, cont, finals, auto.initial)


def td_to_dot(result: TreeExploration) -> str:
    """DOT for a top-down automaton: fan nodes distribute a state over the
    child states of each transition.  Edges into states beyond a truncated
    exploration are left out."""
    cont = result.container
    neutral = cont.neutral

    def var_weight_node(var_w):
        # default shape; the variable weight unless it is the empty one
        return None, "" if var_w == neutral else render(var_w)

    ids, lines = _dot_states(result.states, result.finals, var_weight_node)
    lines += _dot_starts(ids, cont, result.initial)
    fan = 0
    edges = []
    for (src,), symbol, value in sorted(result.transitions, key=_dot_order):
        for vect in cont.support(value):
            label = _dot_label(symbol.name, cont.element_weight(value, vect))
            if len(vect) == 0:
                edges.append(f'  __acc{fan} [shape=point, label=""];')
                edges.append(f'  {ids[src]} -> __acc{fan} [label="{label}"];')
                fan += 1
            elif len(vect) == 1:
                if vect[0] in ids:
                    edges.append(f'  {ids[src]} -> {ids[vect[0]]} [label="{label}"];')
            else:
                node = f"t{fan}"
                fan += 1
                edges.append(f'  {node} [shape=point, label=""];')
                edges.append(f'  {ids[src]} -> {node} [label="{label}"];')
                for i, child in enumerate(vect):
                    if child in ids:
                        edges.append(f'  {node} -> {ids[child]} [label="{i + 1}"];')
    return _dot_graph("treeautomaton", "TB", lines + edges)


def tree_to_dot(result: TreeExploration) -> str:
    """DOT text; transitions of arity >= 2 are drawn through a fan node.
    Edges into states beyond a truncated exploration are left out."""
    cont = result.container
    ids, lines = _dot_states(result.states, result.finals, _accepting_node)
    edges = []
    fan = 0
    for src, symbol, value in sorted(result.transitions, key=_dot_order):
        targets = [
            (ids[t], _dot_label(symbol.name, cont.element_weight(value, t)))
            for t in cont.support(value)
            if t in ids
        ]
        if symbol.arity == 0:
            for t, label in targets:
                edges.append(f'  __leaf{fan} [shape=point, label=""];')
                edges.append(f'  __leaf{fan} -> {t} [label="{label}"];')
                fan += 1
        elif symbol.arity == 1:
            for t, label in targets:
                edges.append(f'  {ids[src[0]]} -> {t} [label="{label}"];')
        else:
            node = f"t{fan}"
            fan += 1
            edges.append(f'  {node} [shape=point, label=""];')
            for i, s in enumerate(src):
                edges.append(f'  {ids[s]} -> {node} [label="{i + 1}"];')
            for t, label in targets:
                edges.append(f'  {node} -> {t} [label="{label}"];')
    return _dot_graph("treeautomaton", "BT", lines + edges)


def _dot_order(transition):
    """Sort key of an explored tree transition: source, symbol, target."""
    return tuple(map(render, transition))
