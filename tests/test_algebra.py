import random

import pytest
from hypothesis import given, settings, strategies as st

from automonad.algebra import (
    BOOLEANS,
    HOLE,
    INT_PRODUCT,
    INT_SUM,
    INTEGERS,
    Node,
    RankedSymbol,
    STR_CONCAT,
    TUPLE_CONCAT,
    parse_tree,
    product_monoid,
    tree_fold,
    tree_to_text,
    word_fold,
)
from automonad.containers import check_semiring_laws
from automonad.util import ExprSyntaxError, WeightError

A0 = RankedSymbol("a", 0)
B0 = RankedSymbol("b", 0)
F1 = RankedSymbol("f", 1)
G2 = RankedSymbol("g", 2)


class TestSemirings:
    def test_boolean_laws(self):
        report = check_semiring_laws(BOOLEANS, [False, True], starrable=[False, True])
        assert report.ok, report.failures

    def test_integer_laws(self):
        report = check_semiring_laws(INTEGERS, [-2, -1, 0, 1, 2, 3], starrable=[0])
        assert report.ok, report.failures

    def test_boolean_star_total(self):
        assert BOOLEANS.star(False) is True
        assert BOOLEANS.star(True) is True

    def test_integer_star_partial(self):
        assert INTEGERS.star(0) == 1
        with pytest.raises(WeightError):
            INTEGERS.star(2)
        with pytest.raises(WeightError):
            INTEGERS.star(-1)


class TestMonoids:
    @pytest.mark.parametrize(
        "monoid,values",
        [
            (INT_SUM, [0, 1, 5, -3]),
            (INT_PRODUCT, [1, 2, 3]),
            (STR_CONCAT, ["", "a", "xy"]),
            (TUPLE_CONCAT, [(), (1,), (1, 2)]),
            (product_monoid(INT_SUM, STR_CONCAT), [(0, ""), (1, "a"), (2, "bc")]),
        ],
    )
    def test_laws(self, monoid, values):
        for a in values:
            assert monoid.combine(monoid.neutral, a) == a
            assert monoid.combine(a, monoid.neutral) == a
            for b in values:
                for c in values:
                    assert monoid.combine(monoid.combine(a, b), c) == monoid.combine(
                        a, monoid.combine(b, c)
                    )


class TestTrees:
    def test_arity_of_hole(self):
        assert HOLE.arity() == 1

    def test_arity_of_nullary_leaf(self):
        assert Node(A0).arity() == 0

    def test_arity_of_mixed_tree(self):
        t = Node(G2, (HOLE, Node(F1, (HOLE,))))
        assert t.arity() == 2

    def test_parse_print_round_trip(self):
        for text in ["a", "g(a,f(b))", "g(_,f(_))", "f(g(a,a))", "*(-(+(513,838)),37)"]:
            t = parse_tree(text)
            assert tree_to_text(t) == text

    def test_parse_with_alphabet_checks_arity(self):
        parse_tree("g(a,b)", [A0, B0, G2])
        with pytest.raises(ExprSyntaxError):
            parse_tree("g(a)", [A0, G2])
        with pytest.raises(ExprSyntaxError):
            parse_tree("z", [A0])

    def test_parse_depth_limit(self):
        assert tree_to_text(parse_tree("f(" * 100 + "a" + ")" * 100)).count("f") == 100
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse_tree("f(" * 3000 + "a" + ")" * 3000)

    def test_compose_unit_law(self):
        t = Node(G2, (Node(A0), Node(B0)))
        assert HOLE.compose([t]) == t

    def test_compose_plug_leaf(self):
        assert Node(F1, (HOLE,)).compose([Node(A0)]) == Node(F1, (Node(A0),))

    def test_compose_arity_mismatch(self):
        with pytest.raises(ValueError):
            HOLE.compose([])

    def test_compose_associativity_bruteforce(self):
        # vertical associativity on all trees of size <= 4 over {a, f, g}
        trees = _all_trees(4)
        rng = random.Random(5)
        cases = 0
        for t in trees:
            k = t.arity()
            if k == 0 or k > 2:
                continue
            for us in _pick_lists(trees, k, rng, limit=6):
                m = sum(u.arity() for u in us)
                if m > 2:
                    continue
                for vs in _pick_lists(trees, m, rng, limit=4):
                    left = t.compose(us).compose(vs)
                    pieces, rest = [], list(vs)
                    for u in us:
                        n = u.arity()
                        pieces.append(u.compose(rest[:n]))
                        rest = rest[n:]
                    right = t.compose(pieces)
                    assert left == right
                    cases += 1
        assert cases > 50

    def test_tree_format_hole_text(self):
        assert tree_to_text(parse_tree("g(_,f(_))")) == "g(_,f(_))"


def _all_trees(max_size):
    # all trees (holes allowed) with at most max_size nodes over {a, f, g}
    out = [HOLE, Node(A0)]
    by_size = {1: [HOLE, Node(A0)]}
    for size in range(2, max_size + 1):
        layer = []
        for sub in by_size.get(size - 1, []):
            layer.append(Node(F1, (sub,)))
        for left_size in range(1, size - 1):
            for left in by_size.get(left_size, []):
                for right in by_size.get(size - 1 - left_size, []):
                    layer.append(Node(G2, (left, right)))
        by_size[size] = layer
        out.extend(layer)
    return out


def _pick_lists(trees, k, rng, limit):
    if k == 0:
        return [[]]
    picks = []
    for _ in range(limit):
        picks.append([rng.choice(trees) for _ in range(k)])
    return picks


class TestWordFold:
    def test_empty_word_is_identity(self):
        fold = word_fold(lambda sym: lambda xs: xs + [sym], "")
        assert fold([1, 2]) == [1, 2]

    def test_two_symbol_composition_order(self):
        # reading "ab" applies the a-map first, then the b-map
        fold = word_fold(lambda sym: lambda s: s + sym, "ab")
        assert fold("") == "ab"

    @given(
        st.text(alphabet="abc", max_size=6),
        st.text(alphabet="abc", max_size=6),
        st.text(alphabet="abc", max_size=4),
    )
    @settings(max_examples=60)
    def test_monoid_homomorphism(self, u, v, start):
        m = lambda sym: (lambda s: s + sym + ".")
        both = word_fold(m, u + v)
        composed = lambda s: word_fold(m, v)(word_fold(m, u)(s))
        assert both(start) == composed(start)


class TestTreeFold:
    def test_leaf(self):
        assert tree_fold(lambda sym: (lambda: sym.name), Node(A0)) == "a"

    def test_boolean_evaluation(self):
        ops = {
            "and": lambda x, y: x and y,
            "true": lambda: True,
            "false": lambda: False,
        }
        t = parse_tree("and(true,false)")
        assert tree_fold(lambda sym: ops[sym.name], t) is False

    def test_rejects_holes(self):
        with pytest.raises(ValueError):
            tree_fold(lambda sym: (lambda *xs: 0), Node(F1, (HOLE,)))

    def test_arithmetic_fold_matches_tree_automaton(self):
        # evaluating an arithmetic tree directly agrees with the
        # deterministic tree automaton interpretation
        from automonad.treeauto import BottomUpDetTA

        n = 19

        def by_fold(sym):
            if sym.arity == 0:
                return lambda: int(sym.name) % n
            if sym.name == "-" and sym.arity == 1:
                return lambda x: (-x) % n
            return {
                "+": lambda x, y: (x + y) % n,
                "-": lambda x, y: (x - y) % n,
                "*": lambda x, y: (x * y) % n,
            }[sym.name]

        def delta(sym, states):
            return by_fold(sym)(*states)

        auto = BottomUpDetTA(None, delta, lambda s: s)
        rng = random.Random(11)
        leaves = ["3", "17", "100", "838"]
        for _ in range(40):
            t = _random_arith(rng, leaves, depth=4)
            assert tree_fold(by_fold, t) == auto.weight(t)


def _random_arith(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.3:
        return Node(RankedSymbol(rng.choice(leaves), 0))
    op = rng.choice(["+", "-", "*", "neg"])
    if op == "neg":
        return Node(RankedSymbol("-", 1), (_random_arith(rng, leaves, depth - 1),))
    return Node(
        RankedSymbol(op, 2),
        (_random_arith(rng, leaves, depth - 1), _random_arith(rng, leaves, depth - 1)),
    )
