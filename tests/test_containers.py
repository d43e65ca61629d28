import itertools
import random

import pytest
from hypothesis import given, strategies as st

from automonad.algebra import HOLE, INT_SUM, INTEGERS, STR_CONCAT, RankedSymbol, parse_tree, product_monoid
from automonad.automata import StarNew, StarOld, Transition
from automonad.containers import (
    BFALSE,
    BOOL_EXPR,
    BTRUE,
    BAnd,
    BConst,
    BNot,
    BOr,
    BVar,
    DETERMINISTIC,
    FINITE_SET,
    GConst,
    GFun,
    GVar,
    OPTIONAL,
    Pair,
    bool_and,
    bool_expr_to_clauses,
    bool_not,
    bool_or,
    check_container_laws,
    eval_bool_expr,
    eval_gen_expr,
    gen_expr,
    lin_comb,
    monoid_pair,
    normalize_bool_expr,
    stack_context,
)
from automonad.enriched import E_EMPTY, EStar, ESub, ESum, ETensor, EVar, TreeAtom, WordAtom
from automonad.util import Inl, Inr, UNIT, UnsupportedOperation, render
from automonad.validate import validate_trees, validate_words
from automonad.wordexpr import EMPTY, EPSILON, GlushkovInit, PosSym, Pure, Sym, parse_expression

INT_LIN = lin_comb(INTEGERS)


class TestLawSuites:
    """Monad/monoid/action laws on >= 100 probes per instance."""

    def test_finite_set(self):
        fs = [lambda x: frozenset({x}), lambda x: frozenset({x, x + 1}), lambda _x: frozenset()]
        report = check_container_laws(FINITE_SET, list(range(5)), fs, cases=100)
        assert report.ok, report.failures

    def test_optional(self):
        fs = [lambda x: x, lambda x: x + 1, lambda _x: None]
        report = check_container_laws(OPTIONAL, list(range(5)), fs, cases=100)
        assert report.ok, report.failures

    def test_lin_comb(self):
        fs = [
            lambda x: INT_LIN.unit(x),
            lambda x: INT_LIN.from_entries([(x, 2), (x + 1, -1)]),
            lambda _x: INT_LIN.neutral,
        ]
        report = check_container_laws(INT_LIN, list(range(4)), fs, cases=100)
        assert report.ok, report.failures

    def test_bool_expr(self):
        fs = [
            lambda x: BVar(x),
            lambda x: bool_or(BVar(x), BVar(x + 1)),
            lambda _x: BFALSE,
        ]
        report = check_container_laws(BOOL_EXPR, list(range(4)), fs, cases=100)
        assert report.ok, report.failures

    def test_gen_expr_semantic(self):
        G = gen_expr(INTEGERS)
        fs = [
            lambda x: GVar(x),
            lambda x: G.combine(GVar(x), GVar(x + 1)),
            lambda _x: G.neutral,
        ]

        def eq(a, b):
            for env in [lambda v: v, lambda v: v * v + 1, lambda _v: 0]:
                if eval_gen_expr(a, env) != eval_gen_expr(b, env):
                    return False
            return True

        report = check_container_laws(G, list(range(4)), fs, cases=100, equal=eq)
        assert report.ok, report.failures

    def test_monoid_pair_monad_laws(self):
        M = monoid_pair(product_monoid(INT_SUM, STR_CONCAT))
        fs = [
            lambda x: M.unit(x),
            lambda x: M.write(x + 1, (1, "a")),
            lambda x: M.write(x, (2, "bc")),
        ]
        report = check_container_laws(
            M, list(range(4)), fs, cases=100, monoid_laws=False, action_laws=False
        )
        assert report.ok, report.failures

    def test_finality_law_catches_an_override_that_drops_coefficients(self):
        class Uncounted(type(INT_LIN)):
            def finality_step(self, c, final):
                return sum(final(x) for x, _k in c.items())

        broken = Uncounted(INTEGERS)
        fs = [lambda x: broken.unit(x), lambda x: broken.from_entries([(x, 2), (x + 1, -1)])]
        finals = [lambda x: x, lambda x: 2 * x - 3]
        assert check_container_laws(INT_LIN, list(range(4)), fs, finals=finals).ok
        report = check_container_laws(broken, list(range(4)), fs, finals=finals)
        assert set(report.failures) == {"finality-bind"}

    def test_stack_context_extensional(self):
        S = stack_context(FINITE_SET)
        fs = [
            lambda x: S.unit(x),
            lambda x: S.bind(S.unit(x), lambda y: S.unit(y + 1)),
            lambda _x: S.neutral,
        ]
        probe_stacks = [(), ("z",), ("z", "y")]

        def eq(a, b):
            return all(a.run(s) == b.run(s) for s in probe_stacks)

        report = check_container_laws(
            S, list(range(4)), fs, cases=100, equal=eq, action_laws=True
        )
        assert report.ok, report.failures

    def test_deterministic_monad_laws(self):
        fs = [lambda x: x + 1, lambda x: x * 2]
        report = check_container_laws(
            DETERMINISTIC, list(range(5)), fs, cases=100,
            monoid_laws=False, action_laws=False,
        )
        assert report.ok, report.failures


class TestExamples:
    def test_set_bind(self):
        assert FINITE_SET.bind(frozenset({1, 2}), lambda x: frozenset({x, x + 1})) == frozenset({1, 2, 3})

    def test_lincomb_cancellation(self):
        c = INT_LIN.combine(
            INT_LIN.from_entries([("P", 2), ("Q", 3)]), INT_LIN.from_entries([("Q", -3)])
        )
        assert c == INT_LIN.from_entries([("P", 2)])
        assert "Q" not in c

    def test_optional_absorbing(self):
        assert OPTIONAL.bind(None, lambda x: x) is None

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), max_size=8))
    def test_lincomb_never_stores_zero(self, entries):
        c = INT_LIN.from_entries(entries)
        assert all(k != 0 for _x, k in c.items())
        doubled = INT_LIN.combine(c, INT_LIN.act_left(-1, c))
        assert len(doubled) == 0


# coefficients in -3..3 over five elements, so that sums and products cancel
ELEMENTS = st.integers(0, 4)
ENTRIES = st.lists(st.tuples(ELEMENTS, st.integers(-3, 3)), max_size=6)
SETS = st.frozensets(ELEMENTS)
ROWS = st.lists(ENTRIES, min_size=5, max_size=5)
TARGETS = st.lists(ELEMENTS, min_size=5, max_size=5)


def _checked_operations(container, a, b, rows, targets, w, copy):
    """Every operation on `a` and `b` (`rows[x]` is the bind row of x, and
    `targets[x]` its image under map): no input changes, as `copy` sees it,
    and equal results hash equal."""
    inputs = [a, b, *rows]
    before = [copy(v) for v in inputs]
    results = [
        container.bind(a, rows.__getitem__),
        container.map(targets.__getitem__, a),
        container.combine(a, b),
        container.combine(b, a),
        container.act_left(w, a),
        container.act_right(a, w),
    ]
    assert [copy(v) for v in inputs] == before
    for r, s in itertools.product(results, repeat=2):
        assert r != s or hash(r) == hash(s)
    return results


class TestSharedValues:
    """Container values are never mutated once returned, so operations may
    share them: an operation builds a fresh value or returns an operand."""

    @given(ENTRIES, ENTRIES, ROWS, TARGETS, st.integers(-3, 3))
    def test_lin_comb_operations_leave_inputs_and_cancel(self, a, b, rows, targets, w):
        entries = [a, b, *rows]
        kept = [list(e) for e in entries]
        a, b, *rows = [INT_LIN.from_entries(e) for e in entries]
        assert entries == kept
        results = _checked_operations(INT_LIN, a, b, rows, targets, w, dict)
        for r in [a, b, *results]:
            assert 0 not in r.values()
            plain = dict(r)
            assert not r == plain and r != plain and not plain == r and plain != r

    @given(SETS, SETS, st.lists(SETS, min_size=5, max_size=5), TARGETS, st.booleans())
    def test_finite_set_operations_leave_inputs(self, a, b, rows, targets, w):
        _checked_operations(FINITE_SET, a, b, rows, targets, w, set)

    def test_the_shared_neutral_stays_empty_through_the_harnesses(self):
        assert validate_words(instances=4, probes=20, seed=0).ok
        assert validate_trees(instances=4, probes=20, seed=0).ok
        assert len(INT_LIN.neutral) == 0 and INT_LIN.neutral is lin_comb(INTEGERS).neutral


class TestBoolExpr:
    def test_eval_examples(self):
        assert eval_bool_expr(bool_not(BTRUE)) is False
        assert eval_bool_expr(bool_and(BTRUE, BFALSE)) is False
        e = bool_or(bool_and(BVar("v1"), BVar("v2")), bool_not(BConst(False)))
        assert eval_bool_expr(e, env=lambda _v: True) is True

    def test_eval_free_variable_errors(self):
        with pytest.raises(UnsupportedOperation):
            eval_bool_expr(BVar("p"))

    def test_clauses_var(self):
        assert bool_expr_to_clauses(BVar("p")) == frozenset({frozenset({"p"})})

    def test_clauses_distribute(self):
        e = BAnd((BVar("p"), BOr((BVar("q"), BVar("r")))))
        assert bool_expr_to_clauses(e) == frozenset(
            {frozenset({"p", "q"}), frozenset({"p", "r"})}
        )

    def test_clauses_false(self):
        assert bool_expr_to_clauses(BConst(False)) == frozenset()

    def test_clauses_true_is_empty_clause(self):
        assert bool_expr_to_clauses(BConst(True)) == frozenset({frozenset()})

    def test_clauses_reject_negated_state(self):
        with pytest.raises(UnsupportedOperation):
            bool_expr_to_clauses(BNot(BVar("p")))

    def test_clauses_match_truth_tables(self):
        # exhaustive over all assignments of <= 4 variables
        rng = random.Random(3)
        variables = ["p", "q", "r", "s"]
        for _ in range(120):
            e = _random_positive(rng, variables, 4)
            clauses = bool_expr_to_clauses(e)
            for bits in range(16):
                env = {v: bool(bits >> i & 1) for i, v in enumerate(variables)}
                direct = eval_bool_expr(e, env=env.__getitem__)
                via_clauses = any(all(env[v] for v in clause) for clause in clauses)
                assert direct == via_clauses, (render(e), env)

    def test_normalize_is_aci(self):
        e = BOr((BVar("b"), BOr((BVar("a"), BVar("b")))))
        n = normalize_bool_expr(e)
        assert n == BOr((BVar("a"), BVar("b")))
        assert normalize_bool_expr(n) == n


def _random_positive(rng, variables, budget):
    if budget == 0 or rng.random() < 0.3:
        return rng.choice(
            [BVar(rng.choice(variables)), BConst(rng.random() < 0.5)]
        )
    kind = rng.choice(["and", "or", "notconst"])
    if kind == "notconst":
        return BNot(BConst(rng.random() < 0.5))
    left = _random_positive(rng, variables, budget - 1)
    right = _random_positive(rng, variables, budget - 1)
    return BAnd((left, right)) if kind == "and" else BOr((left, right))


class TestFinalityStep:
    def test_set_of_unit(self):
        assert FINITE_SET.finality_step(frozenset({UNIT}), lambda _u: True) is True
        assert FINITE_SET.finality_step(frozenset(), lambda _u: True) is False

    def test_lincomb_unit_coefficient(self):
        assert INT_LIN.finality_step(INT_LIN.from_entries([(UNIT, 7)]), lambda _u: 1) == 7
        assert INT_LIN.finality_step(INT_LIN.neutral, lambda _u: 1) == 0

    def test_expression_steps_evaluate(self):
        assert BOOL_EXPR.finality_step(bool_and(BTRUE, BTRUE), lambda _u: True) is True
        G = gen_expr(INTEGERS)
        sum_2_3 = GFun("+", (GConst(2), GConst(3)), INTEGERS.plus)
        assert G.finality_step(sum_2_3, lambda _u: 1) == 5

    def test_optional_absence_reads_no_final(self):
        def unreachable(_x):
            raise AssertionError("absence has no element to weigh")

        assert OPTIONAL.finality_step(None, unreachable) is False
        assert OPTIONAL.finality_step(3, lambda x: x > 2) is True
        assert OPTIONAL.finality_step(3, lambda x: x > 5) is False
        assert OPTIONAL.finality_step(0, lambda _x: 1) is True

    def test_stack_context_is_weighed_by_stack_application(self):
        S = stack_context(FINITE_SET)
        with pytest.raises(UnsupportedOperation):
            S.finality_step(S.unit(0), lambda _x: True)


class TestRendering:
    def test_set_rendering_sorted(self):
        assert render(frozenset({"b", "a"})) == "{a,b}"

    def test_lincomb_rendering(self):
        c = INT_LIN.from_entries([("y", 3), ("x", 2)])
        assert render(c) == "2·x + 3·y"

    def test_bool_expr_prefix_form(self):
        e = bool_and(BVar("q"), bool_or(BVar("p"), BVar("r")))
        assert render(e) == "and(or(p,r),q)"

    def test_builtins_whose_str_is_not_canonical(self):
        assert (render(True), render(False), render(None)) == ("true", "false", "#")
        assert render(("a", frozenset({2, 1}), (None, True))) == "(a,{1,2},(#,true))"
        # sets sort by the text of their elements, not by their values
        assert render(frozenset({10, 9, "b"})) == "{10,9,b}"

    def test_tuple_subclasses_render_element_wise(self):
        class Tagged(tuple):
            pass

        assert render(Tagged((1, frozenset({"y", "x"})))) == "(1,{x,y})"
        assert render(Transition(Inl(0), "a", None)) == "(L:0,a,#)"


G = RankedSymbol("g", 2)
F = RankedSymbol("f", 1)
# one value of each package class with its own text, and that text
CANONICAL_TEXTS = [
    (Inl(frozenset({2, 1})), "L:{1,2}"),
    (Inr(None), "R:#"),
    (UNIT, "()"),
    (G, "g"),
    (HOLE, "_"),
    (parse_tree("g(a,_)"), "g(a,_)"),
    (INT_LIN.from_entries([("y", 3), ("x", 2)]), "2·x + 3·y"),
    (INT_LIN.neutral, "0"),
    (BVar(("q", 1)), "(q,1)"),
    (BConst(False), "false"),
    (BNot(BVar("p")), "not(p)"),
    (BAnd((BVar("p"), BTRUE)), "and(p,true)"),
    (BOr((BVar("p"), BVar("q"))), "or(p,q)"),
    (GVar(Inl("p")), "L:p"),
    (GConst(True), "true"),
    (GFun("max", (GVar("p"), GConst(3)), max), "max(p,3)"),
    (Pair("q", ("a", "b")), "(q|(a,b))"),
    (StarOld(Inr(0)), "O:R:0"),
    (StarNew(), "new"),
    (PosSym(3, "a"), "a3"),
    (PosSym(2, F), "f2"),
    (EPSILON, "1"),
    (EMPTY, "0"),
    (Sym("a"), "a"),
    (parse_expression("[2]:a*.~b+1"), "[2]:a*.~b+1"),
    (GlushkovInit(), "i"),
    (Pure(True), "t"),
    (Pure(False), "s"),
    (E_EMPTY, "0"),
    (EVar(UNIT), "$()"),
    (ETensor(WordAtom("a")), "a"),
    (WordAtom("b"), "b"),
    (ETensor(TreeAtom(G, ("x", "y"))), "@g(x,y)"),
    (TreeAtom(RankedSymbol("a", 0), ()), "@a"),
    (ESum(EVar("x"), E_EMPTY), "($x+0)"),
    (ESub("x", EVar("x"), ETensor(WordAtom("a"))), "($x.x a)"),
    (EStar(UNIT, ETensor(TreeAtom(F, (UNIT,)))), "(@f(()))*()"),
]


@pytest.mark.parametrize("value, text", CANONICAL_TEXTS, ids=[type(v).__name__ for v, _ in CANONICAL_TEXTS])
def test_a_package_value_renders_as_its_str(value, text):
    assert render(value) == str(value) == text
