"""Container-parametric word automata and the classic algorithm zoo.

An automaton is an initial configuration, a per-symbol Kleisli transition
`(symbol, state) -> container<state>` and a per-state final weight.  Reading a
word is a bind-fold of the transition over the configuration; the weight of a
word folds the final map through the container.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from .algebra import MonoidValue, product_monoid, INT_SUM, TUPLE_CONCAT
from .containers import (
    BAnd,
    BTRUE,
    DETERMINISTIC,
    FINITE_SET,
    OPTIONAL,
    BoolExprContainer,
    EffectContainer,
    FiniteSetContainer,
    OptionalContainer,
    StackVal,
    bool_expr_to_clauses,
    eval_bool_expr,
    monoid_pair,
    normalize_bool_expr,
    stack_context,
    _bool_subst,
)
from .util import Inl, Inr, UNIT, UnsupportedOperation, render

DEFAULT_MAX_STATES = 100_000


@dataclass(frozen=True)
class WordAutomaton:
    """A word automaton over an effect container.

    `initial` is a container value over states, `delta(symbol, state)` yields
    a container value, `final(state)` a weight of the container's semiring
    (or monoid, for sequential automata).
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
        return self.container.finality_step(self.config(word), self.final)

    def recognizes(self, word) -> bool:
        return bool(self.weight(word))


def delta_from_table(table: dict, container: EffectContainer) -> Callable:
    """Transition function from a `{(state, symbol): value}` dict; missing
    entries are the container's neutral."""

    def delta(sym, state):
        try:
            return table[(state, sym)]
        except KeyError:
            return container.neutral

    return delta


def complete_dfa(initial, delta: Callable, final: Callable) -> WordAutomaton:
    """A complete deterministic automaton (identity-container automaton)."""
    return WordAutomaton(DETERMINISTIC, initial, delta, final)


def memoize_automaton(auto: WordAutomaton, counter: dict | None = None) -> WordAutomaton:
    """Cache (state, symbol) transitions; `counter` counts real computations."""
    cache: dict = {}

    def delta(sym, state):
        key = (state, sym)
        if key not in cache:
            cache[key] = auto.delta(sym, state)
            if counter is not None:
                counter[key] = counter.get(key, 0) + 1
        return cache[key]

    return replace(auto, delta=delta)


# ---------------------------------------------------------------------------
# Exploration and DOT export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionRecord:
    source: Any
    symbol: Any
    target: Any  # container value
    rendered: str

    def dump_line(self) -> str:
        return f"{render(self.source)} --{render(self.symbol)}--> {self.rendered}"


@dataclass
class ExplorationResult:
    states: list
    transitions: list[TransitionRecord]
    truncated: bool
    initial: Any = None
    container: EffectContainer | None = None
    finals: dict = field(default_factory=dict)

    def dump(self) -> str:
        return "\n".join(sorted(t.dump_line() for t in self.transitions))


def _breadth_first(roots, successors: Callable, max_states: int, max_depth: int | None = None):
    """Breadth-first closure of `roots` under `successors(state)`, which
    yields target states (and may record the transitions it computes).

    Each reached state is expanded once.  A target beyond `max_states`, or a
    level beyond `max_depth`, is skipped and sets the truncated flag.
    Returns the reached states in discovery order and that flag."""
    seen = dict.fromkeys(roots)
    frontier = list(seen)
    truncated = False
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            truncated = True
            break
        nxt: list = []
        for state in frontier:
            for target in successors(state):
                if target not in seen:
                    if len(seen) >= max_states:
                        truncated = True
                        continue
                    seen[target] = None
                    nxt.append(target)
        frontier = nxt
        depth += 1
    return list(seen), truncated


def explore(
    auto: WordAutomaton,
    alphabet: Sequence,
    max_states: int = DEFAULT_MAX_STATES,
    max_depth: int | None = None,
) -> ExplorationResult:
    """Breadth-first closure of the states reachable from the initial
    configuration.  Each (state, symbol) transition is computed once; the
    truncated flag is set when a cap bites."""
    container = auto.container
    transitions: list[TransitionRecord] = []

    def successors(state):
        for sym in alphabet:
            value = auto.delta(sym, state)
            transitions.append(
                TransitionRecord(state, sym, value, container.render_value(value))
            )
            yield from container.support(value)

    reached, truncated = _breadth_first(
        container.support(auto.initial), successors, max_states, max_depth
    )
    states = sorted(reached, key=render)
    finals = {s: auto.final(s) for s in states}
    return ExplorationResult(
        states=states,
        transitions=transitions,
        truncated=truncated,
        initial=auto.initial,
        container=container,
        finals=finals,
    )


def to_dot(result: ExplorationResult, name: str = "automaton") -> str:
    """Graphviz text for an explored automaton, deterministically ordered."""
    container = result.container
    zero_like = (False, 0, None)
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=circle];']
    ids = {s: f"q{i}" for i, s in enumerate(result.states)}
    for s in result.states:
        w = result.finals.get(s)
        accepting = w not in zero_like
        shape = "doublecircle" if accepting else "circle"
        label = render(s).replace('"', "'")
        if accepting and w is not True:
            label += f" | {render(w)}"
        lines.append(f'  {ids[s]} [shape={shape}, label="{label}"];')
    if container is not None and result.initial is not None:
        entries = _entry_weights(container, result.initial)
        for i, (s, w) in enumerate(entries):
            if s not in ids:
                continue
            lines.append(f"  __start{i} [shape=point, label=\"\"];")
            label = "" if w is True else render(w).replace('"', "'")
            attr = f' [label="{label}"]' if label else ""
            lines.append(f"  __start{i} -> {ids[s]}{attr};")
    edges = []
    for t in result.transitions:
        if t.source not in ids:
            continue
        try:
            weighted = container.weighted_elements(t.target)
        except UnsupportedOperation:
            weighted = [(s, True) for s in container.support(t.target)]
        for target, w in weighted:
            if target not in ids:
                continue
            label = render(t.symbol) if w is True else f"{render(t.symbol)}/{render(w)}"
            edges.append(f'  {ids[t.source]} -> {ids[target]} [label="{label}"];')
    lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _entry_weights(container, initial):
    try:
        return container.weighted_elements(initial)
    except UnsupportedOperation:
        return [(s, True) for s in container.support(initial)]


# ---------------------------------------------------------------------------
# Determinization and friends
# ---------------------------------------------------------------------------


def determinize(auto: WordAutomaton) -> WordAutomaton:
    """Subset construction of a finite-set automaton; the empty subset is an
    explicit sink.  The result is a complete deterministic automaton whose
    states are canonical subsets."""
    _require(auto, FiniteSetContainer, "determinize")

    def delta(sym, subset):
        out = set()
        for s in subset:
            out.update(auto.delta(sym, s))
        return frozenset(out)

    def final(subset):
        return any(bool(auto.final(s)) for s in subset)

    return complete_dfa(auto.initial, delta, final)


def complete(auto: WordAutomaton) -> WordAutomaton:
    """Totalize a partial deterministic automaton with a non-final sink.

    The sink is `None`; original states must therefore not be None."""
    _require(auto, OptionalContainer, "complete")

    def delta(sym, state):
        if state is None:
            return None
        return auto.delta(sym, state)

    def final(state):
        return False if state is None else bool(auto.final(state))

    return complete_dfa(auto.initial, delta, final)


def nfa_to_partial_dfa(auto: WordAutomaton) -> WordAutomaton:
    """Subset construction mapping the empty subset to absence."""
    _require(auto, FiniteSetContainer, "nfa_to_partial_dfa")

    def delta(sym, subset):
        out = set()
        for s in subset:
            out.update(auto.delta(sym, s))
        return frozenset(out) if out else None

    def final(subset):
        return any(bool(auto.final(s)) for s in subset)

    initial = auto.initial if auto.initial else None
    return WordAutomaton(OPTIONAL, initial, delta, final)


def afa_to_nfa(auto: WordAutomaton) -> WordAutomaton:
    """Clause construction: configurations of an alternating automaton become
    sets of conjunctive clauses; a clause steps by evolving the conjunction of
    its members and is final when all members are."""
    _require(auto, BoolExprContainer, "afa_to_nfa")

    def delta(sym, clause):
        evolved = normalize_bool_expr(
            _conjunction([auto.delta(sym, q) for q in sorted(clause, key=render)])
        )
        return bool_expr_to_clauses(evolved)

    def final(clause):
        return all(bool(auto.final(q)) for q in clause)

    return WordAutomaton(FINITE_SET, bool_expr_to_clauses(auto.initial), delta, final)


def _conjunction(exprs):
    if not exprs:
        return BTRUE
    return BAnd(tuple(exprs))


def afa_to_complete_dfa(auto: WordAutomaton) -> WordAutomaton:
    """Determinize an alternating automaton: states are ACI-normalized
    boolean expressions, stepping by substituting each variable's image."""
    _require(auto, BoolExprContainer, "afa_to_complete_dfa")

    def delta(sym, expr):
        return normalize_bool_expr(_bool_subst(expr, lambda q: auto.delta(sym, q)))

    def final(expr):
        return eval_bool_expr(expr, env=lambda q: bool(auto.final(q)))

    return complete_dfa(normalize_bool_expr(auto.initial), delta, final)


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


def parallel_product(a: WordAutomaton, b: WordAutomaton) -> ParallelAutomaton:
    return ParallelAutomaton(a, b)


def _same_container(a: WordAutomaton, b: WordAutomaton, what: str) -> EffectContainer:
    if type(a.container) is not type(b.container):
        raise UnsupportedOperation(f"{what} requires matching containers")
    return a.container


def intersection(a: WordAutomaton, b: WordAutomaton) -> WordAutomaton:
    """Product-state automaton; weights multiply (Hadamard for weighted)."""
    cont = _same_container(a, b, "intersection")
    times = cont.weights.times

    def delta(sym, pq):
        p, q = pq
        return cont.tensor_pair(a.delta(sym, p), b.delta(sym, q))

    def final(pq):
        return times(a.final(pq[0]), b.final(pq[1]))

    return WordAutomaton(cont, cont.tensor_pair(a.initial, b.initial), delta, final)


hadamard = intersection


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


sum_weighted = union


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


@render.register(StarNew)
def _render_star_new(_s):
    return "new"


@render.register(StarOld)
def _render_star_old(s):
    return f"O:{render(s.state)}"


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

    def delta(sym, states):
        return tuple(auto.delta(sym, s) for s in states)

    def final(states):
        return any(bool(auto.final(s)) for s in states)

    return complete_dfa(tuple(inits), delta, final)


# ---------------------------------------------------------------------------
# Pushdown automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PushdownAutomaton:
    """A word automaton over a stack context, plus its initial stack symbol.

    Transitions consult only the top of the stack and replace it by a word of
    stack symbols; an empty stack admits no transition."""

    auto: WordAutomaton
    initial_stack_symbol: Any

    def runs(self, word):
        """Inner-container of (state, stack) pairs after reading `word`."""
        ctx = self.auto.config(word)
        return ctx.run(())

    def empty_stack_recognizes(self, word) -> bool:
        inner = self.auto.container.inner
        runs = self.runs(word)
        return any(stack == () for _state, stack in inner.support(runs))


def make_pda(
    initials: Sequence,
    initial_stack_symbol,
    trans: Callable,
    finality: Callable = lambda _s: True,
    inner: EffectContainer = OPTIONAL,
) -> PushdownAutomaton:
    """Build a pushdown automaton.

    `trans(symbol, state, top) -> inner<(stack word, state)>` where the stack
    word replaces the top symbol.  With the optional-value inner container
    this is a deterministic PDA; with finite sets, a nondeterministic one.
    """
    cont = stack_context(inner)
    z0 = initial_stack_symbol

    start_states = list(initials)

    def start(_stack):
        return inner.combine_all(inner.unit((q, (z0,))) for q in start_states)

    initial = StackVal(start)

    def delta(sym, state):
        def run(stack):
            if not stack:
                return inner.neutral
            top, rest = stack[0], stack[1:]
            moves = trans(sym, state, top)
            return inner.map(lambda mv: (mv[1], tuple(mv[0]) + rest), moves)

        return StackVal(run)

    def final(state):
        return bool(finality(state))

    return PushdownAutomaton(WordAutomaton(cont, initial, delta, final), z0)


# ---------------------------------------------------------------------------
# Sequential (monoid-output) automata
# ---------------------------------------------------------------------------


def sequential_pair_automaton(
    predicate: Callable[[Any], bool],
    monoid: MonoidValue | None = None,
    emit: Callable[[Any], Any] | None = None,
) -> WordAutomaton:
    """Single-state sequential automaton computing (count, filtered subword)
    over the product monoid; each matching symbol contributes (1, [symbol]).

    `emit` maps a matching symbol to its monoid contribution and must agree
    with `monoid` when both are supplied."""
    m = monoid if monoid is not None else product_monoid(INT_SUM, TUPLE_CONCAT)
    out = emit if emit is not None else (lambda sym: (1, (sym,)))
    cont = monoid_pair(m)

    def delta(sym, state):
        if predicate(sym):
            return cont.write(state, out(sym))
        return cont.write(state, m.neutral)

    return WordAutomaton(cont, cont.unit(UNIT), delta, lambda _s: m.neutral)


def _require(auto: WordAutomaton, kind, what: str):
    if not isinstance(auto.container, kind):
        raise UnsupportedOperation(
            f"{what} expects a {kind.__name__} automaton, got {auto.container!r}"
        )
