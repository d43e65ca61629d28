import dataclasses
import itertools
import random
import re

import pytest

from automonad.algebra import (
    HOLE,
    INT_PRODUCT,
    INTEGERS,
    Node,
    RankedSymbol,
    enumerate_trees,
    parse_tree,
    subtrees,
)
from automonad.containers import BOOL_EXPR, DETERMINISTIC, FINITE_SET, gen_expr, lin_comb
from automonad.enriched import (
    DEFAULT_TREE_ALPHABET,
    parse_tree_expression,
    random_tree_expression,
    tree_derivation_automaton,
    tree_inductive_automaton,
    tree_position_automaton,
)
from automonad.treeauto import (
    BottomUpContainerTA,
    BottomUpDetTA,
    MultiOpBUTA,
    TopDownContainerTA,
    WeightFun,
    bu_determinize,
    occurrence_automaton,
    td_explore,
    td_to_dot,
    tree_explore,
    tree_to_dot,
)
from automonad.util import UNIT, UnsupportedOperation, render
from automonad.validate import tree_probes

A = RankedSymbol("a", 0)
B = RankedSymbol("b", 0)
F = RankedSymbol("f", 1)
H = RankedSymbol("h", 1)
G = RankedSymbol("g", 2)
ALPHABET = [A, B, H, F, G]


def modular_delta(n):
    """Interpret string-labelled trees as modular arithmetic; unparsable
    leaves and unknown operators land in the error state None."""

    def delta(sym, states):
        if sym.arity == 0:
            try:
                return int(sym.name) % n
            except ValueError:
                return None
        if None in states:
            return None
        if sym.arity == 1 and sym.name == "-":
            return (-states[0]) % n
        if sym.arity == 2 and sym.name in "+-*":
            x, y = states
            return {"+": x + y, "-": x - y, "*": x * y}[sym.name] % n
        return None

    return delta


VAR_INIT = {"X1": 65, "X2": 9, "X3": None}


def rwta(n=19):
    return BottomUpDetTA(VAR_INIT.__getitem__, modular_delta(n), lambda s: s)


def even_recognizer(n=19):
    return BottomUpDetTA(
        VAR_INIT.__getitem__, modular_delta(n), lambda s: s is not None and s % 2 == 0
    )


T_OK = parse_tree("*(-(+(513,838)),37)")
T_KO = parse_tree("*(-(+(KO,838)),37)")
T_VAR = parse_tree("*(-(+(_,_)),37)")


class TestModularRwta:
    def test_valid_tree_weight(self):
        assert rwta().weight(T_OK) == 2

    def test_valid_tree_recognized_as_even(self):
        assert even_recognizer().recognizes(T_OK)

    def test_invalid_tree_rejected(self):
        assert rwta().weight(T_KO) is None
        assert not even_recognizer().recognizes(T_KO)

    def test_complement_flips(self):
        even = even_recognizer()
        comp = BottomUpDetTA(even.init, even.delta, lambda s: not even.final(s))
        assert not comp.recognizes(T_OK)
        assert comp.recognizes(T_KO)
        double = BottomUpDetTA(comp.init, comp.delta, lambda s: not comp.final(s))
        assert double.recognizes(T_OK) == even_recognizer().recognizes(T_OK)

    def test_variable_weights(self):
        auto = rwta()
        assert auto.weight(T_VAR, ("X1", "X2")) == ((-(65 + 9)) % 19) * 37 % 19
        assert auto.weight(T_VAR, ("X1", "X3")) is None
        fn = auto.weight_fn(T_VAR)
        assert fn("X2", "X2") == ((-(9 + 9)) % 19) * 37 % 19

    def test_hole_weight_is_final_of_init(self):
        auto = rwta()
        even = even_recognizer()
        for v in VAR_INIT:
            assert auto.weight(HOLE, (v,)) == VAR_INIT[v]
            assert even.weight(HOLE, (v,)) == even.final(VAR_INIT[v])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            rwta().weight(T_VAR, ("X1",))

    def test_identity_container_case(self):
        auto = rwta()
        assert isinstance(auto, BottomUpContainerTA) and auto.container is DETERMINISTIC
        assert auto.state_of(T_OK) == auto.config(T_OK) == 2

    def test_tabulated_is_a_container_automaton_with_equal_weights(self):
        auto = rwta()
        table = auto.tabulated()
        assert type(table) is BottomUpContainerTA and table.container is DETERMINISTIC
        cases = [(T_OK, ()), (T_KO, ()), (T_VAR, ("X1", "X2")), (T_VAR, ("X1", "X3")), (HOLE, ("X2",))]
        for t, variables in cases:
            assert table.weight(t, variables) == auto.weight(t, variables)


def figure_nta():
    """The nondeterministic bottom-up automaton with states {1, 2}."""

    def delta(sym, states):
        if sym in (A, B):
            return frozenset({1})
        if sym == F:
            return frozenset({1, 2}) if states[0] == 1 else frozenset()
        if sym == H:
            return frozenset({2}) if states[0] == 2 else frozenset()
        if sym == G:
            return frozenset({1}) if states == (1, 1) else frozenset()
        return frozenset()

    return BottomUpContainerTA(FINITE_SET, None, delta, lambda s: s == 2)


class TestContainerAutomata:
    def test_single_leaf_weight(self):
        auto = figure_nta()
        assert auto.weight(Node(A)) is False
        assert auto.weight(Node(F, (Node(A),))) is True

    def test_config_of_figure_example(self):
        auto = figure_nta()
        assert auto.config(Node(F, (Node(A),))) == frozenset({1, 2})

    def test_deterministic_input_determinizes_to_singletons(self):
        def delta(sym, states):
            return frozenset({(sym.name, states)})

        auto = BottomUpContainerTA(FINITE_SET, None, delta, lambda _s: True)
        det = bu_determinize(auto)
        t = parse_tree("g(a,b)", ALPHABET)
        config = auto.config(t)
        assert det.state_of(t) == config
        assert len(config) == 1

    def test_determinize_preserves_recognition_depth4(self):
        auto = figure_nta()
        det = bu_determinize(auto)
        for t in enumerate_trees(ALPHABET, 4):
            assert auto.recognizes(t) == det.recognizes(t), render(t)

    def test_determinize_rejects_variables(self):
        auto = BottomUpContainerTA(
            FINITE_SET, lambda v: frozenset({v}), lambda s, st: frozenset(), lambda s: True
        )
        with pytest.raises(UnsupportedOperation):
            bu_determinize(auto)

    def test_cartesian_child_expansion(self):
        # g over child sets {1,2} x {1,2} must union all four transitions
        def delta(sym, states):
            if sym.arity == 0:
                return frozenset({1, 2})
            return frozenset({states})

        auto = BottomUpContainerTA(FINITE_SET, None, delta, lambda _s: True)
        t = parse_tree("g(a,b)", ALPHABET)
        assert auto.config(t) == frozenset(itertools.product((1, 2), repeat=2))

    def test_expression_containers_weigh_every_construction(self):
        # top-down automata weigh through `finality_step`, so alternating and
        # generalized containers weigh trees as sets and linear combinations do
        builders = (tree_position_automaton, tree_derivation_automaton, tree_inductive_automaton)
        readings = [
            (BOOL_EXPR, FINITE_SET, bool),
            (gen_expr(INTEGERS), lin_comb(INTEGERS), lambda w: w),
        ]
        for seed in range(20):
            e = random_tree_expression(seed, 3)
            probes = tree_probes(e, random.Random(seed), 10, DEFAULT_TREE_ALPHABET)
            for build in builders:
                for container, reference, read in readings:
                    auto, ref = build(e, container), build(e, reference)
                    for t in probes:
                        assert read(auto.weight(t)) == read(ref.weight(t)), (
                            seed, build.__name__, repr(container), render(t)
                        )


SUBJECT = parse_tree("g(g(g(a,f(b)),h(g(a,f(b)))),g(a,f(b)))")


class TestOccurrence:
    def test_subject_in_itself(self):
        assert occurrence_automaton(SUBJECT).weight(SUBJECT) == 1

    def test_paper_counts(self):
        occ = occurrence_automaton(SUBJECT)
        assert occ.weight(parse_tree("g(_,f(_))"), (UNIT, UNIT)) == 3
        assert occ.weight(parse_tree("g(_,_)"), (UNIT, UNIT)) == 5

    def test_against_bruteforce_matcher(self):
        rng = random.Random(8)
        for _ in range(25):
            subject = _random_tree(rng, 6)
            occ = occurrence_automaton(subject)
            pattern = _random_pattern(rng, 4)
            expected = sum(
                1 for sub in subtrees(subject) if _matches(pattern, sub)
            )
            got = occ.weight(pattern, (UNIT,) * pattern.arity())
            assert got == expected, (render(subject), render(pattern))

    def test_subject_must_be_nullary(self):
        with pytest.raises(ValueError):
            occurrence_automaton(Node(F, (HOLE,)))


def _random_tree(rng, size):
    if size <= 1:
        return Node(rng.choice([A, B]))
    sym = rng.choice([F, H, G])
    if sym.arity == 1:
        return Node(sym, (_random_tree(rng, size - 1),))
    left = rng.randint(1, size - 1)
    return Node(sym, (_random_tree(rng, left), _random_tree(rng, size - left)))


def _random_pattern(rng, size):
    if size <= 1 or rng.random() < 0.35:
        return HOLE if rng.random() < 0.5 else Node(rng.choice([A, B]))
    sym = rng.choice([F, H, G])
    if sym.arity == 1:
        return Node(sym, (_random_pattern(rng, size - 1),))
    left = rng.randint(1, size - 1)
    return Node(sym, (_random_pattern(rng, left), _random_pattern(rng, size - left)))


def _matches(pattern, tree):
    if pattern is HOLE:
        return True
    if tree is HOLE:
        return False
    if pattern.symbol != tree.symbol:
        return False
    return all(_matches(p, t) for p, t in zip(pattern.children, tree.children))


def height_width_automaton():
    HS, WS = "H", "W"

    def delta(sym, states):
        if sym.arity == 0:
            return {HS: WeightFun(0, lambda: 1), WS: WeightFun(0, lambda: 1)}
        n = sym.arity
        if all(s == HS for s in states):
            return {HS: WeightFun(n, lambda *xs: 1 + max(xs))}
        if all(s == WS for s in states):
            return {WS: WeightFun(n, lambda *xs: 1 + sum(xs))}
        return {None: WeightFun(n, lambda *_: 1)}

    def init(var):
        return {HS: WeightFun(1, lambda _x: 1), WS: WeightFun(1, lambda _x, v=var: len(v))}

    return MultiOpBUTA(INT_PRODUCT, init, delta, lambda _s: WeightFun(1, lambda x: x))


class TestMultiOperator:
    def test_paper_values(self):
        auto = height_width_automaton()
        a1 = parse_tree("g(a,f(b))")
        a2 = parse_tree("g(g(a,f(b)),h(g(a,f(b))))")
        a3 = parse_tree("g(g(g(a,f(b)),h(g(a,f(b)))),_)")
        assert auto.weight(a1) == 12
        assert auto.weight(a2) == 50
        assert auto.weight(a3, ("operade plus",), (0,)) == 138

    def test_height_width_against_bruteforce(self):
        auto = height_width_automaton()
        # per-component automata: keep only one state's contribution
        def select(keep):
            base = height_width_automaton()
            return MultiOpBUTA(
                base.monoid,
                base.init,
                base.delta,
                lambda s: WeightFun(1, (lambda x: x) if s == keep else (lambda _x: 1)),
            )

        height_only, width_only = select("H"), select("W")
        rng = random.Random(17)
        for _ in range(25):
            t = _random_tree(rng, rng.randint(1, 20))
            assert auto.weight(t) == _height(t) * _width(t)
            assert height_only.weight(t) == _height(t)
            assert width_only.weight(t) == _width(t)

    def test_weight_fn_arity_checked(self):
        auto = height_width_automaton()
        fn = auto.weight_fn(parse_tree("g(_,_)"), ("x", "y"))
        assert fn.arity == 2
        with pytest.raises(ValueError):
            fn(1)


def _height(t):
    if not t.children:
        return 1
    return 1 + max(_height(c) for c in t.children)


def _width(t):
    return 1 + sum(_width(c) for c in t.children)


class TestExploration:
    def test_empty_alphabet(self):
        result = tree_explore(figure_nta(), [])
        assert result.states == [] and result.transitions == []

    def test_figure_accessible_states(self):
        result = tree_explore(figure_nta(), ALPHABET)
        assert result.states == [1, 2]

    def test_fixpoint_closure(self):
        result = tree_explore(figure_nta(), ALPHABET)
        auto = figure_nta()
        for combo in itertools.product(result.states, repeat=2):
            assert set(auto.delta(G, combo)) <= set(result.states)

    def test_delta_fired_once_per_reached_tuple(self):
        auto = figure_nta()
        calls = []

        def counting_delta(symbol, states):
            calls.append((symbol, states))
            return auto.delta(symbol, states)

        result = tree_explore(dataclasses.replace(auto, delta=counting_delta), ALPHABET)
        expected = sum(len(result.states) ** sym.arity for sym in ALPHABET)
        assert len(calls) == len(set(calls)) == expected

    def test_cap_below_leaf_states(self):
        leaves = [RankedSymbol(f"c{i}", 0) for i in range(5)]
        auto = BottomUpContainerTA(
            FINITE_SET, None, lambda sym, _states: frozenset({sym.name}), bool
        )
        result = tree_explore(auto, leaves + [F], max_states=3)
        assert result.truncated
        assert len(result.states) == 3

    def test_truncated_dot_names_only_kept_states(self):
        leaves = [RankedSymbol(name, 0) for name in "abcde"]
        auto = BottomUpContainerTA(
            FINITE_SET, None, lambda sym, _states: frozenset({sym.name}), bool
        )
        result = tree_explore(auto, leaves, max_states=3)
        assert result.truncated
        _assert_names_only_kept_states(tree_to_dot(result), result)

    def test_determinized_dump_golden(self):
        det = bu_determinize(figure_nta())
        result = tree_explore(det, ALPHABET, max_states=50)
        dump = result.dump()
        assert "() --a--> {1}" in dump
        assert "({1}) --f--> {1,2}" in dump
        assert "({1,2},{1,2}) --g--> {1}" in dump

    def test_dot_renders_fan_nodes(self):
        result = tree_explore(figure_nta(), ALPHABET)
        dot = tree_to_dot(result)
        assert dot.startswith("digraph")
        assert "t" in dot  # fan node for the binary symbol
        assert 'label="g"' in dot

    def test_td_explore_occurrence(self):
        occ = occurrence_automaton(parse_tree("g(a,b)"))
        result = td_explore(occ, ALPHABET)
        assert len(result.states) == 3
        assert not result.truncated

    def test_td_dot_reuses_explored_transitions(self):
        occ = occurrence_automaton(parse_tree("g(a,b)"))
        calls = []

        def counting_delta(symbol, state):
            calls.append((symbol, state))
            return occ.delta(symbol, state)

        auto = dataclasses.replace(occ, delta=counting_delta)
        result = td_explore(auto, ALPHABET)
        dot = td_to_dot(auto, result)
        assert len(calls) == len(set(calls)) == 3 * len(ALPHABET)
        assert 'label="g' in dot

    @pytest.mark.parametrize("cont, paid", [(FINITE_SET, True), (lin_comb(INTEGERS), 2)])
    def test_td_dot_shows_variable_weights_but_neutral(self, cont, paid):
        # "p" pays nothing toward a variable and reads f into "q", which pays
        var_weights = {"p": cont.neutral, "q": cont.act_left(paid, cont.unit(UNIT))}

        def delta(symbol, state):
            return cont.unit(("q",)) if (symbol, state) == (F, "p") else cont.neutral

        auto = TopDownContainerTA(cont, cont.unit("p"), delta, var_weights.get)
        result = td_explore(auto, ALPHABET)
        assert result.finals == var_weights
        dot = td_to_dot(auto, result)
        assert 'q0 [label="p"];' in dot
        assert f'q1 [label="q | {render(var_weights["q"])}"];' in dot

    def test_truncated_td_dot_names_only_kept_states(self):
        e = parse_tree_expression("@a .() (@g((),()) + @f(()))*()")
        auto = tree_derivation_automaton(e, FINITE_SET)
        result = td_explore(auto, DEFAULT_TREE_ALPHABET, max_states=1)
        assert result.truncated
        _assert_names_only_kept_states(td_to_dot(auto, result), result)


def _assert_names_only_kept_states(dot, result):
    assert dot.startswith("digraph")
    kept = {f"q{i}" for i in range(len(result.states))}
    assert set(re.findall(r"\bq\d+\b", dot)) == kept
