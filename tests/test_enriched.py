import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from automonad.algebra import BOOLEANS, INTEGERS, Node, enumerate_trees
from automonad.containers import FINITE_SET, lin_comb
from automonad.enriched import (
    DEFAULT_TREE_ALPHABET,
    EStar,
    ESub,
    ESum,
    ETensor,
    EVar,
    E_EMPTY,
    TreeAtom,
    WordAtom,
    aci_normalize,
    atoms_of,
    enriched_derive,
    expression_to_text,
    final_symbols,
    final_weight,
    from_word_expression,
    linearize,
    nullable_var,
    occurs,
    parse_tree_expression,
    predecessors,
    random_tree_expression,
    reverse_expression,
    tree_derivation_automaton,
    tree_inductive_automaton,
    tree_position_automaton,
    variables_of,
    weighted_sum_decomposition,
    word_derivation_automaton,
    word_inductive_automaton,
    word_position_automaton,
)
from automonad import wordexpr as wx
from automonad.treeauto import td_explore
from automonad.util import Inl, Inr, UNIT, render
from automonad.validate import CONSTRUCTIONS, WEIGHTS, construct
from automonad.wordexpr import PosSym
from test_tabulated import with_hole

INT_LIN = lin_comb(INTEGERS)
A, B, C, F, H, G = DEFAULT_TREE_ALPHABET


def watom(ch):
    return ETensor(WordAtom(ch))


def tatom(sym, *vars_):
    return ETensor(TreeAtom(sym, tuple(vars_)))


class TestNullableVar:
    def test_var_itself(self):
        assert nullable_var("v", EVar("v"), INTEGERS) == 1

    def test_other_var(self):
        assert nullable_var("v", EVar("w"), INTEGERS) == 0

    def test_star_clause(self):
        e = EStar("v", ESum(EVar("v"), watom("a")))
        assert nullable_var("v", e, BOOLEANS) == BOOLEANS.star(True)

    def test_star_clause_for_another_variable(self):
        # empty iterations through v, then the body's empty run to u
        e = EStar("v", ESum(tatom(F, "v"), EVar("u")))
        assert nullable_var("u", e, INTEGERS) == 1

    def test_sub_clauses(self):
        same = ESub("v", EVar("v"), EVar("v"))
        assert nullable_var("v", same, INTEGERS) == 1
        other = ESub("u", EVar("v"), EVar("u"))
        # v != u: n_v(e2) + n_v(e1) * n_u(e2) = 0 + 1*1
        assert nullable_var("v", other, INTEGERS) == 1


class TestVariablesOf:
    def test_var(self):
        assert variables_of(EVar("v"), FINITE_SET) == frozenset({"v"})

    def test_tensor_is_neutral(self):
        assert variables_of(watom("a"), FINITE_SET) == frozenset()

    def test_sub_substitutes(self):
        e = ESub("v", EVar("u"), EVar("v"))
        assert variables_of(e, FINITE_SET) == frozenset({"u"})


class TestFinal:
    def test_empty(self):
        assert final_symbols(E_EMPTY, FINITE_SET) == frozenset()

    def test_tensor_weight_one(self):
        assert final_weight("f", ETensor(WordAtom("f")), INTEGERS) == 1

    def test_star_clause_arithmetic(self):
        e = EStar("v", ETensor(WordAtom("f")))
        # star(nullable_var(v, atom)) = star(zero) = one
        assert final_weight("f", e, INTEGERS) == 1


class TestStructuralOps:
    def test_reverse_involution(self):
        for seed in range(20):
            e = random_tree_expression(seed, 4)
            assert reverse_expression(reverse_expression(e)) == e

    def test_aci_dedupe(self):
        a, b = watom("a"), watom("b")
        e = ESum(a, ESum(a, b))
        assert aci_normalize(e, BOOLEANS) == aci_normalize(ESum(a, b), BOOLEANS)

    def test_aci_non_idempotent_keeps_duplicates(self):
        a = watom("a")
        e = ESum(a, a)
        kept = aci_normalize(e, INTEGERS)
        assert kept == ESum(a, a)

    def test_decomposition_counts(self):
        a = watom("a")
        parts = weighted_sum_decomposition(ESum(a, a), INTEGERS)
        assert parts == [(a, 2)]

    def test_sub_var_simplification(self):
        e = ESub("v", watom("a"), EVar("v"))
        assert aci_normalize(e, BOOLEANS) == watom("a")
        # kept when v occurs in the substituted expression, as in every
        # word expression (a word atom holds the unit variable)
        kept = ESub(UNIT, watom("a"), EVar(UNIT))
        assert aci_normalize(kept, BOOLEANS) == kept

    def test_occurs(self):
        assert WordAtom("a").vars == (UNIT,)  # the unary tree atom
        assert occurs(UNIT, watom("a"))
        assert occurs("x", tatom(G, "x", "y"))
        assert not occurs("z", tatom(G, "x", "y"))


class TestLinearize:
    def test_word_atom_indexing(self):
        e = ESub(UNIT, watom("f"), watom("f"))
        lin = linearize(e)
        assert lin == ESub(
            UNIT, ETensor(WordAtom(PosSym(1, "f"))), ETensor(WordAtom(PosSym(2, "f")))
        )

    def test_variables_untouched(self):
        e = tatom(G, "x", "y")
        lin = linearize(e)
        assert lin.atom.vars == ("x", "y")
        assert lin.atom.symbol == PosSym(1, G)


class TestPredecessors:
    def test_tensor_match_yields_variable_vector(self):
        e = linearize(tatom(G, "x", "y"))
        pos = e.atom.symbol
        preds = predecessors(pos, e, FINITE_SET)
        assert preds == frozenset({(Inl("x"), Inl("y"))})

    def test_empty_has_none(self):
        assert predecessors(PosSym(1, "a"), E_EMPTY, FINITE_SET) == frozenset()

    def test_sub_substitution_step(self):
        # b .() a : predecessor of a's position is b's position
        e = linearize(ESub(UNIT, watom("b"), watom("a")))
        b_pos, a_pos = [atom.symbol for atom in atoms_of(e)]
        preds = predecessors(a_pos, e, FINITE_SET)
        assert preds == frozenset({(Inr(b_pos),)})


class TestWordAutomata:
    def test_single_atom_automaton(self):
        auto = word_position_automaton(watom("a"), FINITE_SET)
        assert auto.recognizes("a")
        assert not auto.recognizes("")
        assert not auto.recognizes("aa")

    def test_variants_agree(self):
        rng = random.Random(2)
        for seed in range(12):
            we = wx.random_expression(seed, 4, "ab", wx.SIMPLE_OPS)
            e = from_word_expression(we)
            rev = word_position_automaton(e, INT_LIN, "reversed")
            fwd = word_position_automaton(e, INT_LIN, "forward")
            der_r = word_derivation_automaton(e, INT_LIN, "reversed")
            der_l = word_derivation_automaton(e, INT_LIN, "forward")
            ind = word_inductive_automaton(e, INT_LIN)
            for _ in range(40):
                w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 8)))
                weights = {rev.weight(w), fwd.weight(w), der_r.weight(w), der_l.weight(w), ind.weight(w)}
                assert len(weights) == 1, (wx.expr_to_text(we), w, weights)

    def test_translation_matches_oracle(self):
        for seed in range(12):
            we = wx.random_expression(seed, 4, "ab", wx.SIMPLE_OPS)
            e = from_word_expression(we)
            oracle = wx.brute_force_language(we, 6, BOOLEANS)
            auto = word_derivation_automaton(e, FINITE_SET)
            pos = word_position_automaton(e, FINITE_SET)
            for n in range(7):
                for w in itertools.product("ab", repeat=n):
                    expected = oracle.get(w, False)
                    assert auto.recognizes(w) == expected
                    assert pos.recognizes(w) == expected

    def test_agreement_with_word_position_construction(self):
        for seed in range(10):
            we = wx.random_expression(seed, 4, "ab", wx.SIMPLE_OPS)
            classic = wx.position_automaton(we, FINITE_SET)
            enriched_auto = word_position_automaton(from_word_expression(we), FINITE_SET)
            for n in range(6):
                for w in itertools.product("ab", repeat=n):
                    assert classic.recognizes(w) == enriched_auto.recognizes(w)

    def test_nullable_var_is_empty_word_weight(self):
        for seed in range(10):
            we = wx.random_expression(seed, 4, "ab", wx.SIMPLE_OPS)
            e = from_word_expression(we)
            expected = nullable_var(UNIT, e, INTEGERS)
            for auto in [
                word_position_automaton(e, INT_LIN, "reversed"),
                word_position_automaton(e, INT_LIN, "forward"),
                word_derivation_automaton(e, INT_LIN, "reversed"),
                word_derivation_automaton(e, INT_LIN, "forward"),
                word_inductive_automaton(e, INT_LIN),
            ]:
                assert auto.weight(()) == expected


    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 5))
    def test_enriched_constructions_match_the_oracle(self, seed, n):
        # the reversed position and derivation automata and the inductive
        # one are the tree constructions read along unary trees
        we = wx.random_expression(seed, n, "ab", wx.SIMPLE_OPS)
        e = from_word_expression(we)
        words = [w for k in range(5) for w in itertools.product("ab", repeat=k)]
        for weights, semiring in (("int", INTEGERS), ("bool", BOOLEANS)):
            oracle = wx.brute_force_language(we, 4, semiring)
            for (kind, method), (_builder, accepted) in CONSTRUCTIONS.items():
                if kind != "enriched" or weights not in accepted:
                    continue
                auto = construct(kind, method, weights, e)
                for w in words:
                    expected = oracle.get(w, semiring.zero)
                    got = auto.weight(w)
                    assert (got if weights == "int" else bool(got)) == expected, (
                        method, weights, wx.expr_to_text(we), w
                    )


class TestDerive:
    def test_tensor_yields_variables(self):
        d = enriched_derive(G, tatom(G, "x", "y"), FINITE_SET)
        assert d == frozenset({(EVar("x"), EVar("y"))})

    def test_empty_is_neutral(self):
        assert enriched_derive(A, E_EMPTY, FINITE_SET) == frozenset()

    def test_sum_is_combine(self):
        e1, e2 = tatom(A), tatom(A)
        both = enriched_derive(A, ESum(e1, e2), FINITE_SET)
        assert both == FINITE_SET.combine(
            enriched_derive(A, e1, FINITE_SET),
            enriched_derive(A, e2, FINITE_SET),
        )


class TestTreeAutomata:
    def test_atom_only_expression_recognizes_one_tree(self):
        e = ESub("v", tatom(A), tatom(F, "v"))  # denotes f(a)
        for auto in [
            tree_position_automaton(e, FINITE_SET),
            tree_derivation_automaton(e, FINITE_SET),
            tree_inductive_automaton(e, FINITE_SET),
        ]:
            assert auto.recognizes(Node(F, (Node(A),)))
            assert not auto.recognizes(Node(A))
            assert not auto.recognizes(Node(F, (Node(B),)))

    def test_sum_of_two_atoms(self):
        e = ESum(tatom(A), tatom(B))
        auto = tree_position_automaton(e, FINITE_SET)
        assert auto.recognizes(Node(A)) and auto.recognizes(Node(B))
        assert not auto.recognizes(Node(C))

    def test_var_expression_weights(self):
        # Var v accepts exactly the hole bound to v, with unit weight
        auto = tree_inductive_automaton(EVar("v"), INT_LIN)
        from automonad.algebra import HOLE

        assert auto.weight(HOLE, ("v",)) == 1
        assert auto.weight(HOLE, ("w",)) == 0

    def test_empty_rejects(self):
        auto = tree_inductive_automaton(E_EMPTY, FINITE_SET)
        assert not auto.recognizes(Node(A))

    def test_cross_method_agreement(self):
        trees = enumerate_trees(DEFAULT_TREE_ALPHABET, 3)
        rng = random.Random(0)
        probes = rng.sample(trees, 60)
        for seed in range(10):
            e = random_tree_expression(seed, 3)
            autos_b = [
                tree_position_automaton(e, FINITE_SET),
                tree_derivation_automaton(e, FINITE_SET),
                tree_inductive_automaton(e, FINITE_SET),
            ]
            autos_i = [
                tree_position_automaton(e, INT_LIN),
                tree_derivation_automaton(e, INT_LIN),
                tree_inductive_automaton(e, INT_LIN),
            ]
            for t in probes:
                rb = {a.recognizes(t) for a in autos_b}
                ri = {a.weight(t) for a in autos_i}
                assert len(rb) == 1, (expression_to_text(e), render(t))
                assert len(ri) == 1, (expression_to_text(e), render(t))

    def test_nullable_var_is_empty_run_weight(self):
        # the hole tree bound to v weighs nullable_var(v, e) in every
        # construction (single-variable expressions)
        from automonad.algebra import HOLE

        open_exprs = [
            EVar(UNIT),
            ESum(EVar(UNIT), tatom(A)),
            ESub(UNIT, EVar(UNIT), ESum(EVar(UNIT), tatom(F, UNIT))),
            EStar(UNIT, tatom(F, UNIT)),
        ]
        for e in open_exprs:
            expected = nullable_var(UNIT, e, INTEGERS)
            for auto in [
                tree_position_automaton(e, INT_LIN),
                tree_derivation_automaton(e, INT_LIN),
                tree_inductive_automaton(e, INT_LIN),
            ]:
                assert auto.weight(HOLE, (UNIT,)) == expected, expression_to_text(e)

    def test_multi_variable_agreement(self):
        # minimal case: a zero-length first-operand run from a foreign
        # variable must still continue into the substitution target
        e = ESub("u", tatom(A), ESub("v", EVar("u"), tatom(F, "v")))
        target = Node(F, (Node(A),))
        for auto in [
            tree_position_automaton(e, INT_LIN),
            tree_derivation_automaton(e, INT_LIN),
            tree_inductive_automaton(e, INT_LIN),
        ]:
            assert auto.weight(target) == 1
        # each probe also with its leftmost leaf a hole bound to u, then to v
        trees = random.Random(1).sample(enumerate_trees(DEFAULT_TREE_ALPHABET, 3), 50)
        probes = [(t, ()) for t in trees]
        probes += [(with_hole(t), (var,)) for t in trees for var in ("u", "v")]
        methods = ("positions", "derivation", "inductive")
        for seed in range(8):
            closed = random_tree_expression(seed, 4, variables=("u", "v"))
            body = closed
            while isinstance(body, ESub):  # outer binders stripped: u, v free
                body = body.right
            for expr, name in itertools.product((closed, body), WEIGHTS):
                autos = [construct("tree", m, name, expr).tabulated() for m in methods]
                for t, vs in probes:
                    weights = {a.weight(t, vs) for a in autos}
                    assert len(weights) == 1, (name, expression_to_text(expr), render(t), vs)

    def test_star_body_reaching_another_variable_on_an_empty_run(self):
        # a zero-length body run to y ends one iteration of the star over x:
        # the tree f(a) is one iteration f(x) around one empty iteration
        # $y, so it weighs 1, not "undefined" or 0
        texts = [
            "(@b .x (@a .y ((@f(x) + $y)*x)))",
            "(@c .y (@a .x ((@g(x,y) + $y)*x)))",
            "(@a .y (@b .x ((@h(x) + (@f(y) + $y))*x .x @f(x))))",
            "(@c .z (@a .y (@b .x ((@f(x) + ($y)*z)*x))))",
        ]
        trees = enumerate_trees(DEFAULT_TREE_ALPHABET, 3)
        for text in texts:
            e = parse_tree_expression(text)
            for container, weigh in ((FINITE_SET, "recognizes"), (INT_LIN, "weight")):
                # tabulated, so that the 363 trees share their subtrees' steps
                autos = [
                    tree_position_automaton(e, container).tabulated(),
                    tree_derivation_automaton(e, container).tabulated(),
                    tree_inductive_automaton(e, container).tabulated(),
                ]
                for t in trees:
                    assert len({getattr(a, weigh)(t) for a in autos}) == 1, (text, render(t))
        e = parse_tree_expression(texts[0])
        assert tree_inductive_automaton(e, INT_LIN).weight(Node(F, (Node(A),))) == 1

    def test_aci_weight_preserving_via_derivation(self):
        trees = enumerate_trees(DEFAULT_TREE_ALPHABET, 3)[:80]
        for seed in range(8):
            e = random_tree_expression(seed, 3)
            dup = ESum(e, e)
            normalized = aci_normalize(dup, INTEGERS)
            assert aci_normalize(normalized, INTEGERS) == normalized
            a1 = tree_derivation_automaton(dup, INT_LIN)
            a2 = tree_derivation_automaton(normalized, INT_LIN)
            for t in trees:
                assert a1.weight(t) == a2.weight(t)


class TestTextFormat:
    def test_round_trip(self):
        for seed in range(25):
            e = random_tree_expression(seed, 4)
            text = expression_to_text(e)
            assert parse_tree_expression(text) == e

    @pytest.mark.parametrize("variables", [(UNIT,), ("x", "y")])
    def test_printed_text_reads_back(self, variables):
        # one printer: state names in dumps are expressions `weight tree` reads
        for seed in range(300):
            e = random_tree_expression(seed, 6, variables=variables)
            assert parse_tree_expression(str(e)) == e
        for seed in range(8):
            e = random_tree_expression(seed, 8, variables=variables)
            result = td_explore(tree_derivation_automaton(e, INT_LIN), DEFAULT_TREE_ALPHABET)
            assert result.states and not result.truncated
            for state in result.states:
                assert parse_tree_expression(render(state)) == state

    def test_explicit_forms(self):
        e = parse_tree_expression("@g(v1,v2) .v1 @a + $v2", [A, G])
        assert e == ESum(
            ESub("v1", ETensor(TreeAtom(G, ("v1", "v2"))), ETensor(TreeAtom(A, ()))),
            EVar("v2"),
        )

    def test_unit_variable_form(self):
        e = parse_tree_expression("(@a .() $()) *()")
        assert e == EStar(UNIT, ESub(UNIT, tatom(A), EVar(UNIT)))


class TestRandomGeneration:
    def test_seed_determinism(self):
        assert random_tree_expression(4, 5) == random_tree_expression(4, 5)

    def test_size_one_is_small(self):
        e = random_tree_expression(2, 0)
        assert isinstance(e, (ETensor, EVar, ESub))

    def test_generated_expressions_are_closed(self):
        for seed in range(30):
            e = random_tree_expression(seed, 4)
            assert variables_of(e, FINITE_SET) == frozenset()

    def test_generated_expressions_denote_nullary_trees(self):
        # no free variable use at run start means holes never surface
        for seed in range(12):
            e = random_tree_expression(seed, 3)
            auto = tree_derivation_automaton(e, FINITE_SET)
            for t in enumerate_trees(DEFAULT_TREE_ALPHABET, 3)[:60]:
                auto.recognizes(t)  # nullary probes evaluate without error
