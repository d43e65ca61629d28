"""Container-parametric word automata and the classic algorithm zoo.

An automaton is an initial configuration, a per-symbol Kleisli transition
`(symbol, state) -> container<state>` and a per-state final weight.  Reading a
word is a bind-fold of the transition over the configuration (`config`).  The
weight of a word folds the final map through the container, forward through
`bind` or, where the container `folds_backward`, right to left; both give the
same weight, because `finality_step` is an algebra of the container's monad.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

from .algebra import product_monoid, INT_SUM, TUPLE_CONCAT
from .containers import (
    DETERMINISTIC,
    FINITE_SET,
    OPTIONAL,
    BoolExprContainer,
    EffectContainer,
    FiniteSetContainer,
    OptionalContainer,
    bool_and,
    bool_expr_to_clauses,
    monoid_pair,
    normalize_bool_expr,
)
from .util import Inl, Inr, UNIT, UnsupportedOperation, render

DEFAULT_MAX_STATES = 100_000


@dataclass(frozen=True)
class WordAutomaton:
    """A word automaton over an effect container.

    `initial` is a container value over states, `delta(symbol, state)` yields
    a container value, `final(state)` a weight of the container's semiring
    (or monoid, for sequential automata).  States must be hashable: they key
    the transition table that `weight` reads through.
    """

    container: EffectContainer
    initial: Any
    delta: Callable[[Any, Any], Any]
    final: Callable[[Any], Any]

    def config(self, word) -> Any:
        """Configuration reached after reading `word` (bind-fold of delta)."""
        c = self.initial
        for sym in word:
            c = self.container.bind(c, lambda s, sym=sym: self.delta(sym, s))
        return c

    def weight(self, word):
        """The weight of `word`, read through `tabulated()`.  On a kept table
        (one that is its own table) the fold reads through the table's
        configuration steps.  Otherwise the table is fresh, so each
        (symbol, state) row is computed once per call, and the table, which
        keeps no step, is dropped when the call returns: the configurations
        of one long word rarely repeat, and keeping them would hash each.

        The word folds forward through `bind` (`config`) and the final map
        weighs the configuration reached, where configurations stay small.
        Under a container that `folds_backward`, whose configurations grow
        with the word, it is weighed right to left and no configuration is
        built."""
        table = self.tabulated()
        if table.container.folds_backward:
            return table.weigh_backward(word)
        c = table.config(word) if table is self else WordAutomaton.config(table, word)
        return table.container.finality_step(c, table.final)

    def recognizes(self, word) -> bool:
        return bool(self.weight(word))

    def tabulated(self) -> WordAutomaton:
        """The same automaton over integer state ids, kept as a table.  Each
        transition row `(symbol, id)`, each final weight and each
        configuration step `(symbol, configuration)` is computed the first
        time it is used and looked up afterwards; weights are unchanged."""
        ids = _StateIds(self.container)
        states = ids.states
        return _Table(
            self.container,
            ids.value(self.initial),
            _memo(lambda sym, i: ids.value(self.delta(sym, states[i]))),
            _memo(lambda i: self.final(states[i])),
        )


@dataclass(frozen=True)
class _Table(WordAutomaton):
    """A tabulated automaton: its states are already ids, so it is its own
    table.  It keeps each configuration step it reads,
    `(symbol, configuration) -> bind(configuration, row)`, for its lifetime,
    so `steps` grows with the distinct configurations read."""

    steps: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def config(self, word) -> Any:
        steps, bind, delta = self.steps, self.container.bind, self.delta
        c = self.initial
        for sym in word:
            key = (sym, c)
            out = steps.get(key, _MISSING)  # an OPTIONAL configuration may be None
            if out is _MISSING:
                out = steps[key] = bind(c, lambda s, sym=sym: delta(sym, s))
            c = out
        return c

    def tabulated(self) -> WordAutomaton:
        return self

    def weigh_backward(self, word):
        """The weight of `word`, folded right to left.  A forward pass keeps
        the rows of the ids reached at each position; the backward pass
        weighs each of those ids, `beta_n(q) = final(q)` and
        `beta_i(q) = finality_step(delta(word[i], q), beta_(i+1))`, and the
        weight is `finality_step(initial, beta_0)`.  This equals the forward
        fold by the algebra law of `finality_step`."""
        container = self.container

        def step(sym, reached):
            rows = tuple((i, self.delta(sym, i)) for i in reached)
            return rows, frozenset(j for _i, row in rows for j in container.support(row))

        step = _memo(step)
        steps = []
        reached = frozenset(container.support(self.initial))
        for sym in word:
            rows, reached = step(sym, reached)
            steps.append(rows)
        beta = {i: self.final(i) for i in reached}
        for rows in reversed(steps):
            weigh = beta.__getitem__
            beta = {i: container.finality_step(row, weigh) for i, row in rows}
        return container.finality_step(self.initial, beta.__getitem__)


_MISSING = object()


def _memo(fn: Callable) -> Callable:
    """`fn`, computed once per argument tuple and looked up afterwards."""
    cache: dict = {}

    def memo(*args):
        out = cache.get(args, _MISSING)
        if out is _MISSING:
            out = cache[args] = fn(*args)
        return out

    return memo


class _StateIds:
    """Integer ids for the states of one automaton, in order of first sight;
    `states[i]` is the state of id `i`.  Looking an id up hashes an int, where
    looking a state up may hash a deep expression."""

    def __init__(self, container: EffectContainer):
        self.container = container
        self.states: list = []
        self._ids: dict = {}

    def of(self, state) -> int:
        i = self._ids.get(state)
        if i is None:
            i = self._ids[state] = len(self.states)
            self.states.append(state)
        return i

    def value(self, c):
        """The container value `c` with each state replaced by its id."""
        return self.container.map(self.of, c)


def complete_dfa(initial, delta: Callable, final: Callable) -> WordAutomaton:
    """A complete deterministic automaton (identity-container automaton)."""
    return WordAutomaton(DETERMINISTIC, initial, delta, final)


# ---------------------------------------------------------------------------
# Exploration and DOT export
# ---------------------------------------------------------------------------


class Transition(NamedTuple):
    """One explored transition: `source` is a word state, or the tuple of
    states a tree transition fires from; `target` is the container value."""

    source: Any
    symbol: Any
    target: Any


@dataclass
class ExplorationResult:
    states: list
    transitions: list[Transition]
    truncated: bool
    container: EffectContainer
    finals: dict  # state -> final weight, or variable weight for top-down trees
    initial: Any = None  # the initial configuration, where there is one

    def dump(self) -> str:
        lines = (f"{render(s)} --{render(sym)}--> {render(t)}" for s, sym, t in self.transitions)
        return "\n".join(sorted(lines))


def _breadth_first(roots, successors: Callable, max_states: int):
    """Breadth-first closure of `roots` under `successors(state)`, which
    yields target states (and may record the transitions it computes).

    Each reached state is expanded once.  A root or target beyond
    `max_states` is skipped and sets the truncated flag.  Returns the reached
    states in `render` order and that flag."""
    seen: dict = {}
    truncated = False

    def admit(targets) -> list:
        nonlocal truncated
        fresh = []
        for target in targets:
            if target not in seen:
                if len(seen) >= max_states:
                    truncated = True
                    continue
                seen[target] = None
                fresh.append(target)
        return fresh

    worklist = admit(roots)
    for state in worklist:  # grows as the loop admits targets
        worklist += admit(successors(state))
    return sorted(seen, key=render), truncated


def explore(
    auto: WordAutomaton,
    alphabet: Sequence,
    max_states: int = DEFAULT_MAX_STATES,
) -> ExplorationResult:
    """Breadth-first closure of the states reachable from the initial
    configuration.  Each (state, symbol) transition is computed once; the
    truncated flag is set when a cap bites."""
    container = auto.container
    transitions: list[Transition] = []

    def successors(state):
        for sym in alphabet:
            value = auto.delta(sym, state)
            transitions.append(Transition(state, sym, value))
            yield from container.support(value)

    states, truncated = _breadth_first(container.support(auto.initial), successors, max_states)
    finals = {s: auto.final(s) for s in states}
    return ExplorationResult(states, transitions, truncated, container, finals, auto.initial)


def to_dot(result: ExplorationResult) -> str:
    """Graphviz text for an explored automaton, deterministically ordered."""
    container = result.container
    ids, lines = _dot_states(result.states, result.finals, _accepting_node)
    lines += _dot_starts(ids, container, result.initial)
    edges = []
    for source, symbol, value in result.transitions:
        if source not in ids:
            continue
        for target in container.support(value):
            if target in ids:
                label = _dot_label(render(symbol), container.element_weight(value, target))
                edges.append(f'  {ids[source]} -> {ids[target]} [label="{label}"];')
    return _dot_graph("automaton", "LR", lines + sorted(edges))


def _dot_label(symbol: str, w) -> str:
    """An edge label: the symbol, and its weight unless that is `True`."""
    return symbol if w is True else f"{symbol}/{render(w)}"


def _accepting_node(w):
    """Shape and label suffix of a state node whose final weight is `w`."""
    if w in (False, 0, None):
        return "circle", ""
    return "doublecircle", "" if w is True else render(w)


def _dot_states(states, finals: dict, decorate: Callable):
    """Node ids and DOT lines for `states`; `decorate(finals.get(state))`
    gives the node's shape (None keeps the default) and the suffix shown
    after ` | ` in its label (empty for none)."""
    ids = {s: f"q{i}" for i, s in enumerate(states)}
    lines = []
    for s in states:
        shape, suffix = decorate(finals.get(s))
        label = render(s).replace('"', "'") + (f" | {suffix}" if suffix else "")
        attrs = f'shape={shape}, label="{label}"' if shape else f'label="{label}"'
        lines.append(f"  {ids[s]} [{attrs}];")
    return ids, lines


def _dot_starts(ids: dict, container: EffectContainer, initial) -> list:
    """Entry arrows from point nodes to the initial states in `ids`, labelled
    with their initial weight unless it is `True`."""
    lines = []
    for i, s in enumerate(container.support(initial)):
        if s not in ids:
            continue
        lines.append(f'  __start{i} [shape=point, label=""];')
        w = container.element_weight(initial, s)
        label = "" if w is True else render(w).replace('"', "'")
        attr = f' [label="{label}"]' if label else ""
        lines.append(f"  __start{i} -> {ids[s]}{attr};")
    return lines


def _dot_graph(name: str, rankdir: str, body: list) -> str:
    return "\n".join(
        [f"digraph {name} {{", f"  rankdir={rankdir};", "  node [shape=circle];", *body, "}"]
    ) + "\n"


# ---------------------------------------------------------------------------
# Determinization and friends
# ---------------------------------------------------------------------------


def _weighed_by(auto) -> Callable:
    """The final map of a construction whose states are configurations of
    `auto`: each is weighed as `auto` weighs its own configurations."""
    return lambda c: auto.container.finality_step(c, auto.final)


def _configurations(auto: WordAutomaton) -> WordAutomaton:
    """The configuration automaton of `auto` (the generalized powerset
    construction): its states are the configurations of `auto`, a symbol
    steps one through the container's `bind`, and each is weighed as `auto`
    weighs it.  It is finite wherever the reachable configurations are."""
    return complete_dfa(
        auto.initial,
        lambda sym, c: auto.container.bind(c, partial(auto.delta, sym)),
        _weighed_by(auto),
    )


def determinize(auto: WordAutomaton) -> WordAutomaton:
    """Subset construction of a finite-set automaton; the empty subset is an
    explicit sink.  The result is a complete deterministic automaton whose
    states are canonical subsets."""
    _require(auto, FiniteSetContainer, "determinize")
    return _configurations(auto)


def complete(auto: WordAutomaton) -> WordAutomaton:
    """Totalize a partial deterministic automaton with a non-final sink.

    The sink is `None`; original states must therefore not be None."""
    _require(auto, OptionalContainer, "complete")
    return _configurations(auto)


def nfa_to_partial_dfa(auto: WordAutomaton) -> WordAutomaton:
    """Subset construction mapping the empty subset to absence."""
    _require(auto, FiniteSetContainer, "nfa_to_partial_dfa")
    subsets = determinize(auto).delta
    return WordAutomaton(
        OPTIONAL, auto.initial or None, lambda sym, s: subsets(sym, s) or None, _weighed_by(auto)
    )


def afa_to_nfa(auto: WordAutomaton) -> WordAutomaton:
    """Clause construction: configurations of an alternating automaton become
    sets of conjunctive clauses; a clause steps by evolving the conjunction of
    its members and is final when all members are."""
    _require(auto, BoolExprContainer, "afa_to_nfa")

    def delta(sym, clause):
        return bool_expr_to_clauses(bool_and(*(auto.delta(sym, q) for q in clause)))

    def final(clause):
        return all(bool(auto.final(q)) for q in clause)

    return WordAutomaton(FINITE_SET, bool_expr_to_clauses(auto.initial), delta, final)


def afa_to_complete_dfa(auto: WordAutomaton) -> WordAutomaton:
    """Determinize an alternating automaton: states are ACI-normalized
    boolean expressions, stepping by substituting each variable's image."""
    _require(auto, BoolExprContainer, "afa_to_complete_dfa")
    return _configurations(replace(auto, initial=normalize_bool_expr(auto.initial)))


# ---------------------------------------------------------------------------
# Products and boolean/weighted combinations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelAutomaton:
    """Two automata run side by side; configurations and weights are pairs."""

    left: WordAutomaton
    right: WordAutomaton

    def config(self, word):
        return (self.left.config(word), self.right.config(word))

    def weight(self, word):
        return (self.left.weight(word), self.right.weight(word))


def _same_container(a: WordAutomaton, b: WordAutomaton, what: str) -> EffectContainer:
    if type(a.container) is not type(b.container):
        raise UnsupportedOperation(f"{what} requires matching containers")
    return a.container


def intersection(a: WordAutomaton, b: WordAutomaton) -> WordAutomaton:
    """Product-state automaton; weights multiply (Hadamard for weighted)."""
    cont = _same_container(a, b, "intersection")
    times = cont.weights.times

    def pairs(c1, c2):
        return cont.bind(c1, lambda x: cont.map(lambda y: (x, y), c2))

    def delta(sym, pq):
        p, q = pq
        return pairs(a.delta(sym, p), b.delta(sym, q))

    def final(pq):
        return times(a.final(pq[0]), b.final(pq[1]))

    return WordAutomaton(cont, pairs(a.initial, b.initial), delta, final)


def union(a: WordAutomaton, b: WordAutomaton) -> WordAutomaton:
    """Disjoint-sum automaton; initial configurations combine, weights add."""
    cont = _same_container(a, b, "union")

    def delta(sym, s):
        if isinstance(s, Inl):
            return cont.map(Inl, a.delta(sym, s.value))
        return cont.map(Inr, b.delta(sym, s.value))

    def final(s):
        return a.final(s.value) if isinstance(s, Inl) else b.final(s.value)

    initial = cont.combine(cont.map(Inl, a.initial), cont.map(Inr, b.initial))
    return WordAutomaton(cont, initial, delta, final)


def concatenate(a: WordAutomaton, b: WordAutomaton) -> WordAutomaton:
    """Concatenation over disjoint-sum states: a-states gain b's one-step
    initial successors scaled by their finality; a-finality is scaled by b's
    empty-word weight."""
    cont = _same_container(a, b, "concatenate")
    eps_b = b.weight(())

    def delta(sym, s):
        if isinstance(s, Inl):
            own = cont.map(Inl, a.delta(sym, s.value))
            hop = cont.act_left(
                a.final(s.value), cont.map(Inr, b.config((sym,)))
            )
            return cont.combine(own, hop)
        return cont.map(Inr, b.delta(sym, s.value))

    def final(s):
        if isinstance(s, Inl):
            return cont.weights.times(a.final(s.value), eps_b)
        return b.final(s.value)

    return WordAutomaton(cont, cont.map(Inl, a.initial), delta, final)


@dataclass(frozen=True)
class StarNew:
    """The fresh initial state added by the Kleene star construction."""

    def __repr__(self):
        return "new"


@dataclass(frozen=True)
class StarOld:
    state: Any

    def __str__(self):
        return f"O:{render(self.state)}"


def kleene_star(auto: WordAutomaton) -> WordAutomaton:
    """Kleene star with one fresh state; requires a starrable empty-word
    weight."""
    cont = auto.container
    eps = auto.weight(())
    star_eps = cont.weights.star(eps)

    def inits_by(sym):
        return cont.map(StarOld, auto.config((sym,)))

    def delta(sym, s):
        if isinstance(s, StarNew):
            return inits_by(sym)
        hop = cont.act_left(auto.final(s.state), inits_by(sym))
        return cont.combine(hop, cont.map(StarOld, auto.delta(sym, s.state)))

    def final(s):
        if isinstance(s, StarNew):
            return cont.weights.one
        return cont.weights.times(auto.final(s.state), star_eps)

    initial = cont.act_left(star_eps, cont.unit(StarNew()))
    return WordAutomaton(cont, initial, delta, final)


def scale_left(w, auto: WordAutomaton) -> WordAutomaton:
    return replace(auto, initial=auto.container.act_left(w, auto.initial))


def scale_right(auto: WordAutomaton, w) -> WordAutomaton:
    times = auto.container.weights.times
    return replace(auto, final=lambda s: times(auto.final(s), w))


def complement_complete_dfa(auto: WordAutomaton) -> WordAutomaton:
    _require(auto, type(DETERMINISTIC), "complement")
    return replace(auto, final=lambda s: not auto.final(s))


def bool_combination(fn: Callable, autos: Sequence[WordAutomaton]) -> WordAutomaton:
    """Synchronized product of complete DFAs; finality is `fn` applied to the
    component finalities."""
    for a in autos:
        _require(a, type(DETERMINISTIC), "bool_combination")

    def delta(sym, states):
        return tuple(a.delta(sym, s) for a, s in zip(autos, states))

    def final(states):
        return bool(fn(*(a.final(s) for a, s in zip(autos, states))))

    return complete_dfa(tuple(a.initial for a in autos), delta, final)


def to_k_dfa(inits: Sequence, auto: WordAutomaton) -> WordAutomaton:
    """Run k synchronized copies of a complete DFA from the given states;
    accept when any copy accepts."""
    _require(auto, type(DETERMINISTIC), "to_k_dfa")
    return bool_combination(lambda *f: any(f), [replace(auto, initial=q) for q in inits])


# ---------------------------------------------------------------------------
# Pushdown automata
# ---------------------------------------------------------------------------


class _Stack:
    """An immutable cons cell `(top, rest)` of a pushdown stack; `rest` is
    a cell or None for the empty rest.  The hash is cached when the cell is
    built and equality walks the cells in a loop, so long stacks neither
    recurse nor cost more than a step to hash."""

    __slots__ = ("top", "rest", "_hash")

    def __init__(self, top, rest: _Stack | None):
        self.top = top
        self.rest = rest
        self._hash = hash((top, rest))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        a, b = self, other
        while a is not b:  # shared tails are equal
            if not (isinstance(a, _Stack) and isinstance(b, _Stack)):
                return False
            if a._hash != b._hash or a.top != b.top:
                return False
            a, b = a.rest, b.rest
        return True


def _push(word, rest: _Stack | None) -> _Stack | None:
    """The stack with `word` on top of `rest`, its first symbol topmost."""
    for symbol in reversed(tuple(word)):
        rest = _Stack(symbol, rest)
    return rest


def _stack_tuple(stack: _Stack | None) -> tuple:
    out = []
    while stack is not None:
        out.append(stack.top)
        stack = stack.rest
    return tuple(out)


@dataclass(frozen=True)
class PushdownAutomaton:
    """A word automaton over the inner container whose states are
    (state, stack) configurations, plus its initial stack symbol.

    Transitions consult only the top of the stack and replace it by a word of
    stack symbols; an empty stack admits no transition.  (The stack-context
    container is the monadic presentation of the same runs.)"""

    auto: WordAutomaton
    initial_stack_symbol: Any

    def runs(self, word):
        """Inner-container of (state, stack) pairs after reading `word`; a
        stack is a tuple, top first."""
        return self.auto.container.map(
            lambda config: (config[0], _stack_tuple(config[1])), self.auto.config(word)
        )

    def empty_stack_recognizes(self, word) -> bool:
        inner = self.auto.container
        return any(stack == () for _state, stack in inner.support(self.runs(word)))


def make_pda(
    initials: Sequence,
    initial_stack_symbol,
    trans: Callable,
    inner: EffectContainer = OPTIONAL,
) -> PushdownAutomaton:
    """Build a pushdown automaton.

    `trans(symbol, state, top) -> inner<(stack word, state)>` where the stack
    word replaces the top symbol.  With the optional-value inner container
    this is a deterministic PDA; with finite sets, a nondeterministic one.
    """
    z0 = initial_stack_symbol
    bottom = _Stack(z0, None)
    initial = inner.neutral
    for q in initials:
        initial = inner.combine(initial, inner.unit((q, bottom)))

    def delta(sym, config):
        state, stack = config
        if stack is None:
            return inner.neutral
        moves = trans(sym, state, stack.top)
        return inner.map(lambda mv: (mv[1], _push(mv[0], stack.rest)), moves)

    return PushdownAutomaton(WordAutomaton(inner, initial, delta, lambda _config: True), z0)


# ---------------------------------------------------------------------------
# Sequential (monoid-output) automata
# ---------------------------------------------------------------------------


def sequential_pair_automaton(predicate: Callable[[Any], bool]) -> WordAutomaton:
    """Single-state sequential automaton computing (count, filtered subword)
    over the product monoid; each matching symbol contributes (1, [symbol])."""
    m = product_monoid(INT_SUM, TUPLE_CONCAT)
    cont = monoid_pair(m)

    def delta(sym, state):
        if predicate(sym):
            return cont.write(state, (1, (sym,)))
        return cont.write(state, m.neutral)

    return WordAutomaton(cont, cont.unit(UNIT), delta, lambda _s: m.neutral)


def _require(auto, kind, what: str):
    if not isinstance(auto.container, kind):
        raise UnsupportedOperation(
            f"{what} expects a {kind.__name__} automaton, got {auto.container!r}"
        )
