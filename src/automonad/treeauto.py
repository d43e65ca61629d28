"""Bottom-up and top-down tree automata over ranked alphabets.

Holes in input trees stand for variables, consumed left to right; the weight
of a k-ary tree is therefore a k-ary function of variable assignments.  Four
flavors ship: deterministic-complete bottom-up (with variable initialization
and a root weight), container-valued bottom-up, container-valued top-down and
multi-operator-weighted bottom-up (transitions weighted by n-ary functions on
a monoid).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .algebra import HOLE, MonoidValue, Node, RankedSymbol, RankedTree, subtrees
from .containers import EffectContainer, FiniteSetContainer, lin_comb
from .algebra import INTEGERS
from .automata import DEFAULT_MAX_STATES, _breadth_first
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
# Deterministic-complete bottom-up automata with a root weight
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BottomUpDetTA:
    """Complete deterministic bottom-up automaton; `final` maps the root
    state to a weight (a boolean for plain recognizers)."""

    init: Callable[[Any], Any] | None  # variable -> state
    delta: Callable[[RankedSymbol, tuple], Any]
    final: Callable[[Any], Any]

    def state_of(self, t: RankedTree, variables: tuple = ()):
        if len(variables) != t.arity():
            raise ValueError(f"tree of arity {t.arity()} needs {t.arity()} variables")

        def go(tree, vs):
            if tree is HOLE:
                if self.init is None:
                    raise UnsupportedOperation("automaton has no variable initialization")
                return self.init(vs[0])
            assert isinstance(tree, Node)
            groups = _split_by_arity(vs, tree.children)
            children = tuple(go(c, g) for c, g in zip(tree.children, groups))
            return self.delta(tree.symbol, children)

        return go(t, tuple(variables))

    def weight(self, t: RankedTree, variables: tuple = ()):
        return self.final(self.state_of(t, variables))

    def weight_fn(self, t: RankedTree) -> Callable:
        """The k-ary function Var^k -> weight denoted by a k-ary tree."""
        return lambda *variables: self.weight(t, variables)

    def recognizes(self, t: RankedTree, variables: tuple = ()) -> bool:
        return bool(self.weight(t, variables))


def bu_complement(auto: BottomUpDetTA) -> BottomUpDetTA:
    """Flip the boolean finality of a complete deterministic automaton."""
    return BottomUpDetTA(auto.init, auto.delta, lambda s: not auto.final(s))


# ---------------------------------------------------------------------------
# Container-valued bottom-up automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BottomUpContainerTA:
    """Bottom-up automaton whose transitions land in an effect container.

    `init` assigns a configuration to each variable; child configurations
    combine by cartesian expansion (all member tuples feed the transition)."""

    container: EffectContainer
    init: Callable[[Any], Any] | None
    delta: Callable[[RankedSymbol, tuple], Any]
    final: Callable[[Any], Any]

    def config(self, t: RankedTree, variables: tuple = ()):
        cont = self.container
        if len(variables) != t.arity():
            raise ValueError(f"tree of arity {t.arity()} needs {t.arity()} variables")

        def go(tree, vs):
            if tree is HOLE:
                if self.init is None:
                    raise UnsupportedOperation("automaton has no variable initialization")
                return self.init(vs[0])
            assert isinstance(tree, Node)
            groups = _split_by_arity(vs, tree.children)
            children = [go(c, g) for c, g in zip(tree.children, groups)]
            tuples = cont.sequence(children)
            return cont.bind(tuples, lambda states: self.delta(tree.symbol, states))

        return go(t, tuple(variables))

    def weight(self, t: RankedTree, variables: tuple = ()):
        return self.container.finality_step(self.config(t, variables), self.final)

    def recognizes(self, t: RankedTree, variables: tuple = ()) -> bool:
        return bool(self.weight(t, variables))


def bu_pack(container, delta, is_final) -> BottomUpContainerTA:
    """Variable-free container automaton from a transition and a finality."""
    return BottomUpContainerTA(container, None, delta, is_final)


def bu_determinize(auto: BottomUpContainerTA) -> BottomUpDetTA:
    """Subset construction for variable-free finite-set tree automata:
    delta(f, (Q1..Qn)) is the union over all member tuples."""
    if not isinstance(auto.container, FiniteSetContainer):
        raise UnsupportedOperation("bu_determinize needs the finite-set container")
    if auto.init is not None:
        raise UnsupportedOperation("determinization is restricted to variable-free automata")
    cache: dict = {}

    def delta(symbol, subsets):
        key = (symbol, subsets)
        if key not in cache:
            out = set()
            for states in itertools.product(*subsets):
                out.update(auto.delta(symbol, states))
            cache[key] = frozenset(out)
        return cache[key]

    def final(subset):
        return any(bool(auto.final(s)) for s in subset)

    return BottomUpDetTA(None, delta, final)


# ---------------------------------------------------------------------------
# Container-valued top-down automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopDownContainerTA:
    """Top-down automaton: a state reading an n-ary symbol yields a container
    of n-tuples of states; `var_weight` pays a state's way out toward a
    variable at a hole."""

    container: EffectContainer
    initial: Any  # container of states
    delta: Callable[[RankedSymbol, Any], Any]  # -> container of state tuples
    var_weight: Callable[[Any], Any]  # state -> container of variables

    def weight(self, t: RankedTree, variables: tuple = ()):
        cont = self.container
        w = cont.weights
        if len(variables) != t.arity():
            raise ValueError(f"tree of arity {t.arity()} needs {t.arity()} variables")
        memo: dict = {}

        def var_pay(state, var):
            total = w.zero
            for u, k in cont.weighted_elements(self.var_weight(state)):
                if u == var:
                    total = w.plus(total, k)
            return total

        def go(state, tree, vs):
            key = (state, tree, vs)
            if key in memo:
                return memo[key]
            if tree is HOLE:
                out = var_pay(state, vs[0])
            else:
                assert isinstance(tree, Node)
                groups = _split_by_arity(vs, tree.children)
                total = w.zero
                for states, k in cont.weighted_elements(self.delta(tree.symbol, state)):
                    prod = k
                    for child_state, child, g in zip(states, tree.children, groups):
                        prod = w.times(prod, go(child_state, child, g))
                        if prod == w.zero:
                            break
                    total = w.plus(total, prod)
                out = total
            memo[key] = out
            return out

        total = w.zero
        for state, k in cont.weighted_elements(self.initial):
            total = w.plus(total, w.times(k, go(state, t, tuple(variables))))
        return total

    def recognizes(self, t: RankedTree, variables: tuple = ()) -> bool:
        return bool(self.weight(t, variables))


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


def const_fun(arity: int, value) -> WeightFun:
    return WeightFun(arity, lambda *_: value)


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


@dataclass
class TreeExploration:
    states: list
    # (source tuple, symbol, target states, rendered target, container value)
    transitions: list
    truncated: bool
    finals: dict = field(default_factory=dict)

    def dump(self) -> str:
        lines = [
            f"({','.join(render(s) for s in src)}) --{sym.name}--> {rendered}"
            for src, sym, _targets, rendered, _value in self.transitions
        ]
        return "\n".join(sorted(lines))


def tree_explore(
    auto,
    alphabet: Sequence[RankedSymbol],
    max_states: int = DEFAULT_MAX_STATES,
) -> TreeExploration:
    """Saturate the accessible states of a bottom-up automaton: start from
    nullary transitions and fire symbols over known tuples to a fixpoint."""
    if isinstance(auto, BottomUpDetTA):
        supported = lambda value: [value]
        rendered = lambda value: render(value)
        final = auto.final
    elif isinstance(auto, BottomUpContainerTA):
        supported = lambda value: auto.container.support(value)
        rendered = lambda value: auto.container.render_value(value)
        final = auto.final
    else:
        raise UnsupportedOperation(f"cannot explore {auto!r}")
    known: dict = {}
    transitions = []
    seen_keys = set()
    truncated = False
    changed = True
    while changed:
        changed = False
        for symbol in alphabet:
            pool = sorted(known, key=render)
            for combo in itertools.product(pool, repeat=symbol.arity):
                key = (symbol, combo)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                value = auto.delta(symbol, combo)
                targets = supported(value)
                transitions.append((combo, symbol, targets, rendered(value), value))
                for target in targets:
                    if target not in known:
                        if len(known) >= max_states:
                            truncated = True
                            continue
                        known[target] = None
                        changed = True
    states = sorted(known, key=render)
    return TreeExploration(
        states=states,
        transitions=transitions,
        truncated=truncated,
        finals={s: final(s) for s in states},
    )


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
            targets = [t for vect in cont.support(value) for t in vect]
            transitions.append(((state,), symbol, targets, cont.render_value(value), value))
            yield from targets

    reached, truncated = _breadth_first(cont.support(auto.initial), successors, max_states)
    states = sorted(reached, key=render)
    finals = {s: cont.render_value(auto.var_weight(s)) for s in states}
    return TreeExploration(states, transitions, truncated, finals)


def td_to_dot(auto: TopDownContainerTA, result: TreeExploration, name: str = "treeautomaton") -> str:
    """DOT for a top-down automaton: fan nodes distribute a state over the
    child states of each transition."""
    cont = auto.container
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=circle];"]
    ids = {s: f"q{i}" for i, s in enumerate(result.states)}
    for s in result.states:
        var_w = result.finals.get(s, "")
        label = render(s).replace('"', "'")
        if var_w and var_w not in ("{}", "0", "#"):
            label += f" | {var_w}"
        lines.append(f'  {ids[s]} [label="{label}"];')
    entries = cont.weighted_elements(auto.initial)
    for i, (s, w) in enumerate(entries):
        if s not in ids:
            continue
        lines.append(f'  __start{i} [shape=point, label=""];')
        label = "" if w is True else render(w).replace('"', "'")
        attr = f' [label="{label}"]' if label else ""
        lines.append(f"  __start{i} -> {ids[s]}{attr};")
    fan = 0
    edges = []
    for (src,), symbol, _targets, _rendered, value in sorted(
        result.transitions, key=lambda t: (render(t[0]), t[1].name, t[3])
    ):
        for vect, w in cont.weighted_elements(value):
            label = symbol.name if w is True else f"{symbol.name}/{render(w)}"
            if len(vect) == 0:
                edges.append(f'  __acc{fan} [shape=point, label=""];')
                edges.append(f'  {ids[src]} -> __acc{fan} [label="{label}"];')
                fan += 1
            elif len(vect) == 1:
                edges.append(f'  {ids[src]} -> {ids[vect[0]]} [label="{label}"];')
            else:
                node = f"t{fan}"
                fan += 1
                edges.append(f'  {node} [shape=point, label=""];')
                edges.append(f'  {ids[src]} -> {node} [label="{label}"];')
                for i, child in enumerate(vect):
                    edges.append(f'  {node} -> {ids[child]} [label="{i + 1}"];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_dot(result: TreeExploration, name: str = "treeautomaton") -> str:
    """DOT text; transitions of arity >= 2 are drawn through a fan node."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];"]
    ids = {s: f"q{i}" for i, s in enumerate(result.states)}
    for s in result.states:
        w = result.finals.get(s)
        accepting = w not in (False, 0, None)
        shape = "doublecircle" if accepting else "circle"
        label = render(s).replace('"', "'")
        if accepting and w is not True:
            label += f" | {render(w)}"
        lines.append(f'  {ids[s]} [shape={shape}, label="{label}"];')
    edges = []
    fan = 0
    for src, symbol, targets, _rendered, _value in sorted(
        result.transitions, key=lambda t: (render(t[0]), t[1].name, t[3])
    ):
        if symbol.arity == 0:
            for t in targets:
                edges.append(f'  __leaf{fan} [shape=point, label=""];')
                edges.append(f'  __leaf{fan} -> {ids[t]} [label="{symbol.name}"];')
                fan += 1
        elif symbol.arity == 1:
            for t in targets:
                edges.append(
                    f'  {ids[src[0]]} -> {ids[t]} [label="{symbol.name}"];'
                )
        else:
            node = f"t{fan}"
            fan += 1
            edges.append(f'  {node} [shape=point, label=""];')
            for i, s in enumerate(src):
                edges.append(f'  {ids[s]} -> {node} [label="{i + 1}"];')
            for t in targets:
                edges.append(f'  {node} -> {ids[t]} [label="{symbol.name}"];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
