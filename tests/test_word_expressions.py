import itertools

import pytest

from automonad.algebra import BOOLEANS, INTEGERS, STR_CONCAT
from automonad.automata import explore
from automonad.containers import (
    BOOL_EXPR,
    BTRUE,
    DETERMINISTIC,
    FINITE_SET,
    OPTIONAL,
    BNot,
    BVar,
    GConst,
    GFun,
    GVar,
    bool_and,
    bool_not,
    bool_or,
    gen_expr,
    lin_comb,
    monoid_pair,
    stack_context,
)
from automonad.util import UnsupportedOperation, WeightError, render
from automonad.wordexpr import (
    BOOLEAN_OPS,
    EPSILON,
    EMPTY,
    Epsilon,
    FunctionOp,
    GlushkovInit,
    Inter,
    Not,
    Op,
    PosSym,
    SCALAR_OPS,
    SIMPLE_OPS,
    Sym,
    aci_normalize,
    brute_force_language,
    coerce_scalars,
    collapse_to_expression,
    concat,
    derivation_automaton,
    expr_to_text,
    glushkov_functions,
    inductive_automaton,
    inter,
    linearize,
    monadic_derive,
    mult_l,
    neg,
    nullable,
    parse_expression,
    plus,
    position_automaton,
    random_expression,
    reverse_expression,
    star,
    symbols_of,
)
from automonad.util import ExprSyntaxError

INT_LIN = lin_comb(INTEGERS)


class TestParser:
    def test_precedence(self):
        e = parse_expression("a+b.c*")
        assert e == plus(Sym("a"), concat(Sym("b"), star(Sym("c"))))

    def test_left_scalar(self):
        assert parse_expression("[5]:a") == mult_l(5, Sym("a"))

    def test_negated_intersection(self):
        assert parse_expression("~(a&b)") == neg(inter(Sym("a"), Sym("b")))

    def test_intersection_at_sum_precedence(self):
        e = parse_expression("a.b&c")
        assert e == inter(concat(Sym("a"), Sym("b")), Sym("c"))

    def test_binary_left_associative(self):
        assert parse_expression("a+b+c") == plus(plus(Sym("a"), Sym("b")), Sym("c"))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("a+)")
        assert err.value.position == 2

    def test_nesting_past_the_limit_is_a_syntax_error(self):
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse_expression("(" * 1200 + "a" + ")" * 1200)

    def test_hundred_levels_parse(self):
        nested = "a"
        for _ in range(100):
            nested = f"({nested})*"
        chain = "+".join("a" * 100)
        for text in (nested, "(" * 100 + "a" + ")" * 100, "a" + "*" * 100, chain):
            auto = derivation_automaton(parse_expression(text), FINITE_SET)
            assert auto.recognizes("a")

    def test_round_trip_simple(self):
        for seed in range(40):
            for palette in (SIMPLE_OPS, SCALAR_OPS, BOOLEAN_OPS):
                e = random_expression(seed, 5, "abc", palette)
                assert parse_expression(expr_to_text(e)) == e


class TestNullable:
    def test_epsilon(self):
        assert nullable(EPSILON, INTEGERS) == 1
        assert nullable(EPSILON, BOOLEANS) is True

    def test_star_of_symbol(self):
        assert nullable(star(Sym("a")), INTEGERS) == 1

    def test_partial_star_error(self):
        e = mult_l(5, star(plus(EPSILON, EPSILON)))
        assert nullable(e, BOOLEANS) is True
        with pytest.raises(WeightError):
            nullable(e, INTEGERS)

    def test_function_operator_folds(self):
        op = FunctionOp("mean2", 2, lambda x, y: (x + y) // 2)
        e = Op(op, (mult_l(4, EPSILON), mult_l(8, EPSILON)))
        assert nullable(e, INTEGERS) == 6

    def test_boolean_only_operators(self):
        with pytest.raises(UnsupportedOperation):
            nullable(neg(EPSILON), INTEGERS)


class TestLinearize:
    def test_indices_left_to_right(self):
        e = linearize(concat(Sym("a"), Sym("a")))
        assert e == concat(Sym(PosSym(1, "a")), Sym(PosSym(2, "a")))

    def test_epsilon_unchanged(self):
        assert linearize(EPSILON) == EPSILON

    def test_positions_are_one_to_n(self):
        e = random_expression(3, 6, "ab", SIMPLE_OPS)
        lin = linearize(e)
        indices = [p.index for p in symbols_of(lin)]
        assert indices == list(range(1, len(indices) + 1))


class TestGlushkovFunctions:
    def test_symbol_clause(self):
        p = PosSym(1, "a")
        g = glushkov_functions(Sym(p), FINITE_SET)
        assert g.first == frozenset({p})
        assert g.last_weight(p) is True
        assert g.follow(p) == frozenset()
        assert g.null is False

    def test_star_clause(self):
        p = PosSym(1, "a")
        g = glushkov_functions(star(Sym(p)), FINITE_SET)
        assert g.follow(p) == frozenset({p})
        assert g.null is True

    def test_scalar_action_on_first(self):
        a, b = PosSym(1, "a"), PosSym(2, "b")
        e = mult_l(3, concat(Sym(a), Sym(b)))
        g = glushkov_functions(e, INT_LIN)
        assert g.first == INT_LIN.from_entries([(a, 3)])

    def test_unsupported_operators_raise(self):
        with pytest.raises(UnsupportedOperation):
            glushkov_functions(neg(Sym(PosSym(1, "a"))), FINITE_SET)


class TestPositionAutomaton:
    def test_single_symbol(self):
        auto = position_automaton(Sym("a"), FINITE_SET)
        result = explore(auto, "a")
        assert len(result.states) == 2
        meaningful = [t for t in result.transitions if t.target]
        assert len(meaningful) == 1
        assert auto.weight("a") is True
        assert auto.weight("") is False

    def test_two_letter_star_accepts_everything(self):
        auto = position_automaton(parse_expression("(a+b)*"), FINITE_SET)
        for n in range(6):
            for w in itertools.product("ab", repeat=n):
                assert auto.recognizes(w)

    def test_state_count_is_positions_plus_one(self):
        for seed in range(20):
            e = random_expression(seed, 5, "ab", SIMPLE_OPS)
            lin = linearize(e)
            data = glushkov_functions(lin, FINITE_SET)
            # the automaton's state space is {init} + the positions
            assert len(data.positions) == len(symbols_of(e))
            auto = position_automaton(e, FINITE_SET)
            result = explore(auto, "ab")
            assert len(result.states) <= len(data.positions) + 1
            assert set(result.states) <= {GlushkovInit()} | set(data.positions)

    def test_rejects_boolean_operators(self):
        with pytest.raises(UnsupportedOperation):
            position_automaton(neg(Sym("a")), FINITE_SET)

    def test_expression_container_positions_agree(self):
        # positions also build over the alternating and generalized
        # containers; weights must match the set/linear references
        G = gen_expr(INTEGERS)
        for seed in range(12):
            e = random_expression(seed, 4, "ab", SCALAR_OPS)
            eb = coerce_scalars(e, bool)
            ref_b = position_automaton(eb, FINITE_SET)
            ref_i = position_automaton(e, INT_LIN)
            alt_b = position_automaton(eb, BOOL_EXPR)
            alt_i = position_automaton(e, G)
            for n in range(5):
                for w in itertools.product("ab", repeat=n):
                    assert bool(alt_b.weight(w)) == ref_b.weight(w)
                    assert alt_i.weight(w) == ref_i.weight(w)


class TestDerivation:
    def test_matching_symbol(self):
        assert monadic_derive("a", Sym("a"), FINITE_SET) == frozenset({EPSILON})

    def test_star_clause_keeps_epsilon_concat(self):
        d = monadic_derive("a", star(Sym("a")), FINITE_SET)
        assert d == frozenset({concat(EPSILON, star(Sym("a")))})

    def test_default_negation_hook_over_optional(self):
        d = monadic_derive("a", neg(Sym("a")), OPTIONAL)
        assert d == neg(EPSILON)

    def test_native_negation_over_bool_expr(self):
        d = monadic_derive("a", neg(Sym("a")), BOOL_EXPR)
        assert d == BNot(BVar(EPSILON))

    def test_word_weight_through_derivatives(self):
        e = parse_expression("([3]:a+b).b*")
        auto = derivation_automaton(e, INT_LIN)
        for w in ["a", "ab", "b", "abb", ""]:
            derived = INT_LIN.unit(e)
            for sym in w:
                derived = INT_LIN.bind(derived, lambda d, sym=sym: monadic_derive(sym, d, INT_LIN))
            total = INT_LIN.finality_step(derived, lambda d: nullable(d, INTEGERS))
            assert total == auto.weight(w)

    def test_optional_star_state_count(self):
        auto = derivation_automaton(parse_expression("a*"), OPTIONAL)
        result = explore(auto, "a")
        assert sorted(render(s) for s in result.states) == ["1.a*", "a*"]

    def test_negated_star_rejects(self):
        auto = derivation_automaton(parse_expression("~(a*)"), FINITE_SET)
        assert not auto.recognizes("aa")
        assert auto.recognizes("ab")

    @pytest.mark.parametrize(
        "palette, counts",
        [(SIMPLE_OPS, [6, 5, 7, 7, 6, 6, 7, 5]), (SCALAR_OPS, [4, 5, 5, 6, 4, 5, 4, 4])],
    )
    def test_gen_expr_states_close_like_linear_combinations(self, palette, counts):
        # scalings by a constant stay linear, so gen_expr reaches the same
        # derivation states as lin_comb
        for seed, expected in enumerate(counts):
            e = random_expression(seed, 12, "abc", palette)
            gen = derivation_automaton(e, gen_expr(INTEGERS))
            for auto in (gen, derivation_automaton(e, INT_LIN)):
                result = explore(auto, "abc", max_states=200)
                assert (len(result.states), result.truncated) == (expected, False), seed
            oracle = brute_force_language(e, 4, INTEGERS)
            for n in range(5):
                for w in itertools.product("abc", repeat=n):
                    assert gen.weight(w) == oracle.get(w, 0), (seed, w)

    def test_antimirov_bound_on_linear_expressions(self):
        for seed in range(30):
            e = random_expression(seed, 5, "ab", SIMPLE_OPS)
            lin = linearize(e)
            auto = derivation_automaton(lin, FINITE_SET)
            alphabet = sorted({p for p in symbols_of(lin)}, key=render)
            result = explore(auto, alphabet, max_states=1000)
            assert not result.truncated
            assert len(result.states) <= len(alphabet) + 1


class TestCollapseToExpression:
    A, B, C = Sym("a"), Sym("b"), Sym("c")

    def test_optional(self):
        assert collapse_to_expression(OPTIONAL, None) == EMPTY
        e = parse_expression("a.b")
        assert collapse_to_expression(OPTIONAL, e) is e

    def test_finite_set_sums_in_render_order(self):
        c = frozenset({self.C, star(self.A), self.B})
        assert collapse_to_expression(FINITE_SET, frozenset()) == EMPTY
        assert collapse_to_expression(FINITE_SET, c) == plus(plus(star(self.A), self.B), self.C)

    def test_lin_comb_scales_all_but_unit_coefficients(self):
        c = INT_LIN.from_entries([(self.B, 3), (self.A, 1), (self.C, -2)])
        expected = plus(plus(self.A, mult_l(3, self.B)), mult_l(-2, self.C))
        assert collapse_to_expression(INT_LIN, c) == expected
        assert collapse_to_expression(INT_LIN, INT_LIN.neutral) == EMPTY

    def test_bool_expr_reads_back_nodes(self):
        c = bool_or(bool_and(BVar(self.A), BVar(self.B)), bool_not(BVar(self.C)))
        assert collapse_to_expression(BOOL_EXPR, c) == plus(inter(self.A, self.B), neg(self.C))
        assert collapse_to_expression(BOOL_EXPR, BTRUE) == neg(EMPTY)
        assert collapse_to_expression(BOOL_EXPR, BOOL_EXPR.neutral) == EMPTY

    def test_gen_expr_reads_back_nodes(self):
        G = gen_expr(INTEGERS)
        c = G.combine(GVar(self.A), G.act_left(3, GVar(self.B)))
        out = collapse_to_expression(G, c)
        assert expr_to_text(out) == "+(a,·@3,_(b))"
        scaled = Op(FunctionOp("·@3,_", 1, None), (self.B,))
        assert out == Op(FunctionOp("+", 2, None), (self.A, scaled))
        assert collapse_to_expression(G, GConst(5)) == Op(FunctionOp("const5", 0, None), ())
        six = GFun("·", (GConst(2), GConst(3)), INTEGERS.times)
        assert collapse_to_expression(G, six) == Op(FunctionOp("const6", 0, None), ())
        assert collapse_to_expression(G, G.neutral) == EMPTY

    def test_unweighted_containers_raise(self):
        pairs = monoid_pair(STR_CONCAT)
        with pytest.raises(UnsupportedOperation):
            collapse_to_expression(pairs, pairs.unit(self.A))
        stacks = stack_context(FINITE_SET)
        with pytest.raises(UnsupportedOperation):
            collapse_to_expression(stacks, stacks.unit(self.A))

    def test_deterministic_gives_its_element(self):
        assert collapse_to_expression(DETERMINISTIC, self.A) is self.A


class TestAciNormalize:
    def test_sum_flatten_sort_merge(self):
        e = plus(Sym("b"), plus(Sym("a"), Sym("b")))
        n = aci_normalize(e, BOOLEANS)
        assert n == plus(Sym("a"), Sym("b"))

    def test_zero_rules(self):
        assert aci_normalize(plus(Sym("a"), EMPTY), BOOLEANS) == Sym("a")
        assert aci_normalize(mult_l(0, Sym("a")), INTEGERS) == EMPTY
        assert aci_normalize(concat(EMPTY, Sym("a")), INTEGERS) == EMPTY

    def test_duplicate_merge_is_weighted(self):
        e = plus(Sym("a"), Sym("a"))
        assert aci_normalize(e, INTEGERS) == mult_l(2, Sym("a"))
        assert aci_normalize(e, BOOLEANS) == Sym("a")

    def test_idempotent(self):
        for seed in range(20):
            e = random_expression(seed, 6, "ab", SCALAR_OPS)
            n = aci_normalize(e, INTEGERS)
            assert aci_normalize(n, INTEGERS) == n


class TestInductive:
    def test_epsilon_single_state_unit_finality(self):
        auto = inductive_automaton(EPSILON, FINITE_SET)
        assert auto.recognizes("")
        assert not auto.recognizes("a")
        assert len(auto.initial) == 1

    def test_empty_rejects_everything(self):
        auto = inductive_automaton(EMPTY, FINITE_SET)
        for w in ["", "a", "ab"]:
            assert not auto.recognizes(w)

    def test_function_operators_unsupported(self):
        op = FunctionOp("f1", 1, lambda x: x)
        with pytest.raises(UnsupportedOperation):
            inductive_automaton(Op(op, (Sym("a"),)), FINITE_SET)


class TestRandomExpression:
    def test_seed_determinism(self):
        assert random_expression(9, 8, "abc", SCALAR_OPS) == random_expression(
            9, 8, "abc", SCALAR_OPS
        )

    def test_zero_operators_is_atom(self):
        e = random_expression(1, 0, "abc", SIMPLE_OPS)
        assert isinstance(e, (Sym, Epsilon))

    def test_simple_palette_has_no_boolean_ops(self):
        for seed in range(30):
            e = random_expression(seed, 8, "abc", SIMPLE_OPS)

            def check(node):
                if isinstance(node, Op):
                    assert not isinstance(node.operator, (Not, Inter))
                    for x in node.operands:
                        check(x)

            check(e)

    def test_stars_never_hit_partial_integer_star(self):
        for seed in range(60):
            e = random_expression(seed, 8, "ab", SCALAR_OPS)
            nullable(e, INTEGERS)  # must not raise


class TestOracle:
    def test_concat_example(self):
        lang = brute_force_language(parse_expression("a.b"), 3, BOOLEANS)
        assert lang == {("a", "b"): True}

    def test_star_enumeration(self):
        lang = brute_force_language(parse_expression("(a+b)*"), 2, BOOLEANS)
        assert len(lang) == 7  # epsilon + 2 + 4

    def test_weighted_star(self):
        lang = brute_force_language(parse_expression("([2]:a)*"), 3, INTEGERS)
        assert lang[()] == 1 and lang[("a",)] == 2 and lang[("a", "a")] == 4

    def test_negation_needs_alphabet(self):
        with pytest.raises(UnsupportedOperation):
            brute_force_language(parse_expression("~a"), 2, BOOLEANS)
        lang = brute_force_language(parse_expression("~a"), 1, BOOLEANS, alphabet="ab")
        assert lang == {(): True, ("b",): True}

    def test_reversal_coherence(self):
        for seed in range(25):
            e = random_expression(seed, 5, "ab", SIMPLE_OPS)
            rev = reverse_expression(e)
            lang = brute_force_language(e, 5, BOOLEANS)
            rev_lang = brute_force_language(rev, 5, BOOLEANS)
            assert {tuple(reversed(w)) for w in lang} == set(rev_lang)

    def test_constructions_match_oracle(self):
        for seed in range(25):
            e = random_expression(seed, 4, "ab", SCALAR_OPS)
            eb = coerce_scalars(e, bool)
            oracle_b = brute_force_language(eb, 5, BOOLEANS)
            oracle_i = brute_force_language(e, 5, INTEGERS)
            autos_b = [
                position_automaton(eb, FINITE_SET),
                derivation_automaton(eb, FINITE_SET),
                inductive_automaton(eb, FINITE_SET),
            ]
            autos_i = [
                position_automaton(e, INT_LIN),
                derivation_automaton(e, INT_LIN),
                inductive_automaton(e, INT_LIN),
            ]
            for n in range(6):
                for w in itertools.product("ab", repeat=n):
                    for auto in autos_b:
                        assert auto.weight(w) == oracle_b.get(w, False)
                    for auto in autos_i:
                        assert auto.weight(w) == oracle_i.get(w, 0)

    def test_nullable_matches_empty_word_weight(self):
        for seed in range(15):
            e = random_expression(seed, 4, "ab", SCALAR_OPS)
            expected = nullable(e, INTEGERS)
            for auto in [
                position_automaton(e, INT_LIN),
                derivation_automaton(e, INT_LIN),
                inductive_automaton(e, INT_LIN),
            ]:
                assert auto.weight("") == expected

    def test_boolean_operator_constructions_match_oracle(self):
        for seed in range(15):
            e = random_expression(seed, 4, "ab", BOOLEAN_OPS)
            oracle = brute_force_language(e, 4, BOOLEANS, alphabet="ab")
            autos = [
                derivation_automaton(e, FINITE_SET),
                derivation_automaton(e, BOOL_EXPR),
                derivation_automaton(e, gen_expr(BOOLEANS)),
                inductive_automaton(e, FINITE_SET),
            ]
            for n in range(5):
                for w in itertools.product("ab", repeat=n):
                    for auto in autos:
                        assert bool(auto.weight(w)) == oracle.get(w, False), (
                            expr_to_text(e),
                            w,
                        )
