"""Acceptance gate: each test checks one criterion at its stated tolerance
and prints a one-line verdict."""

import gc
import itertools
import random
import sys
import time

import pytest

from automonad.algebra import (
    BOOLEANS,
    INT_PRODUCT,
    INTEGERS,
    Node,
    RankedSymbol,
    enumerate_trees,
    parse_tree,
)
from automonad.automata import (
    WordAutomaton,
    afa_to_nfa,
    bool_combination,
    complete_dfa,
    determinize,
    explore,
    make_pda,
)
from automonad.containers import (
    BOOL_EXPR,
    BVar,
    FINITE_SET,
    OPTIONAL,
    bool_and,
    bool_expr_to_clauses,
    check_container_laws,
    check_semiring_laws,
    eval_bool_expr,
    gen_expr,
    lin_comb,
    monoid_pair,
    stack_context,
)
from automonad import wordexpr as wx
from automonad.treeauto import (
    BottomUpContainerTA,
    BottomUpDetTA,
    MultiOpBUTA,
    WeightFun,
    bu_determinize,
    occurrence_automaton,
)
from automonad.util import UNIT, render
from automonad.validate import validate_trees, validate_words

INT_LIN = lin_comb(INTEGERS)


def report(number, description, elapsed=None):
    suffix = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"PASS criterion {number}: {description}{suffix}")
    sys.stdout.flush()


def mod_dfa(n):
    return complete_dfa(0, lambda _s, p: (p + 1) % n, lambda p: p == 0)


def test_criterion_1_modular_dfa_combination():
    a4 = bool_combination(
        lambda x, y, z: (x and not y) or z, [mod_dfa(2), mod_dfa(4), mod_dfa(8)]
    )
    gc.collect()  # a collection inside the one timed sample would dominate it
    start = time.perf_counter()
    first = a4.weight("aa")
    second = a4.weight("aaaa")
    third = a4.weight("a" * 8)
    elapsed = time.perf_counter() - start
    assert first is True
    assert second is False
    assert third is True
    assert elapsed < 0.001, f"took {elapsed * 1000:.2f} ms"
    report(1, "modular DFA combination weights aa/aaaa/a^8", elapsed)


def test_criterion_2_alternating_automaton():
    start = time.perf_counter()
    symbols = "ABCDE"

    def delta(x, q):
        if q is None:
            return BVar(None)
        return BVar(None) if x == q else BVar(q)

    afa = WordAutomaton(
        BOOL_EXPR, bool_and(*[BVar(s) for s in symbols]), delta, lambda q: q is None
    )
    nfa = afa_to_nfa(afa)
    afa_states = explore(afa, symbols).states
    assert len(afa_states) == 6
    permutations = list(itertools.permutations(symbols))
    assert len(permutations) == 120
    assert all(afa.recognizes(p) for p in permutations)
    assert all(nfa.recognizes(p) for p in permutations)
    shorter = [
        s for r in range(5) for s in itertools.permutations(symbols, r)
    ]
    assert not any(afa.recognizes(s) for s in shorter)
    assert not any(nfa.recognizes(s) for s in shorter)
    nfa_states = explore(nfa, symbols).states
    assert len(nfa_states) >= 2 ** 5
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"alternating automaton: 6 AFA states, {len(nfa_states)} clause states", elapsed)


def exponential_family(n):
    def delta(sym, p):
        if sym == "A":
            return frozenset({(p + 1) % n})
        return frozenset() if p == 0 else frozenset({p})

    return WordAutomaton(FINITE_SET, frozenset(range(n)), delta, lambda p: p == 0)


def test_criterion_3_exponential_determinization():
    start = time.perf_counter()
    for n in range(3, 9):
        det = determinize(exponential_family(n))
        result = explore(det, "AB", max_states=2 ** n + 10)
        assert len(result.states) == 2 ** n, n
        assert not result.truncated
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "subset construction reaches 2^n for n=3..8", elapsed)


def test_criterion_4_pushdown():
    start = time.perf_counter()

    def det_trans(sym, q, _top):
        if sym == "A" and q == 0:
            return (("*", "*"), 0)
        if sym == "B" and q in (0, 1):
            return ((), 1)
        return (("*",), 2)

    det = make_pda([0], "*", det_trans)

    moves = {
        ("A", 0): [(("*", "*"), 1), (("*", "*", "*"), 2)],
        ("B", 0): [((), 3)],
        ("A", 1): [(("*", "*"), 1)],
        ("B", 1): [((), 3)],
        ("A", 2): [(("*", "*", "*"), 2)],
        ("B", 2): [((), 3)],
        ("B", 3): [((), 3)],
    }

    def nondet_trans(sym, q, _top):
        return frozenset((tuple(w), s) for w, s in moves.get((sym, q), []))

    nondet = make_pda([0], "*", nondet_trans, inner=FINITE_SET)

    det_lang = {"A" * n + "B" * (n + 1) for n in range(21)}
    nondet_lang = det_lang | {"A" * n + "B" * (2 * n + 1) for n in range(21)}
    for w in sorted(det_lang):
        assert det.empty_stack_recognizes(w)
    rng = random.Random(123)
    rejected = 0
    while rejected < 200:
        w = "".join(rng.choice("AB") for _ in range(rng.randint(0, 30)))
        if w in det_lang:
            continue
        assert not det.empty_stack_recognizes(w), w
        assert nondet.empty_stack_recognizes(w) == (w in nondet_lang), w
        rejected += 1
    for w in sorted(nondet_lang):
        if len(w) <= 45:
            assert nondet.empty_stack_recognizes(w)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, "pushdown acceptance A^nB^(n+1) and A^nB^(2n+1)", elapsed)


def test_criterion_5_tree_weights():
    start = time.perf_counter()
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
        return {
            HS: WeightFun(1, lambda _x: 1),
            WS: WeightFun(1, lambda _x, v=var: len(v)),
        }

    auto = MultiOpBUTA(INT_PRODUCT, init, delta, lambda _s: WeightFun(1, lambda x: x))
    assert auto.weight(parse_tree("g(a,f(b))")) == 12
    assert auto.weight(parse_tree("g(g(a,f(b)),h(g(a,f(b))))")) == 50
    assert (
        auto.weight(
            parse_tree("g(g(g(a,f(b)),h(g(a,f(b)))),_)"), ("operade plus",), (0,)
        )
        == 138
    )

    subject = parse_tree("g(g(g(a,f(b)),h(g(a,f(b)))),g(a,f(b)))")
    occ = occurrence_automaton(subject)
    assert occ.weight(subject) == 1
    assert occ.weight(parse_tree("g(_,f(_))"), (UNIT, UNIT)) == 3
    assert occ.weight(parse_tree("g(_,_)"), (UNIT, UNIT)) == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, "multi-operator 12/50/138 and occurrence 1/3/5", elapsed)


def test_criterion_6_rwta_modular_arithmetic():
    def modular_delta(n):
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

    t = parse_tree("*(-(+(513,838)),37)")
    t_ko = parse_tree("*(-(+(KO,838)),37)")
    weights = BottomUpDetTA(None, modular_delta(19), lambda s: s)
    even = BottomUpDetTA(
        None, modular_delta(19), lambda s: s is not None and s % 2 == 0
    )
    # independent oracle: direct modular arithmetic
    assert (-(513 + 838) * 37) % 19 == 2
    assert weights.weight(t) == 2
    assert even.recognizes(t)
    assert weights.weight(t_ko) is None
    assert not even.recognizes(t_ko)
    comp = BottomUpDetTA(None, even.delta, lambda s: not even.final(s))
    assert not comp.recognizes(t)
    assert comp.recognizes(t_ko)
    report(6, "RWTA mod-19 weight 2, even, KO rejected, complement flips")


def test_criterion_7_word_harness():
    start = time.perf_counter()
    report_obj = validate_words(instances=100, probes=100, seed=20260810)
    elapsed = time.perf_counter() - start
    assert report_obj.ok, report_obj.summary()
    assert elapsed < 60.0
    report(7, f"word harness, {report_obj.comparisons} comparisons, 0 disagreements", elapsed)


def test_criterion_8_tree_harness():
    start = time.perf_counter()
    report_obj = validate_trees(instances=100, probes=100, seed=20260810)
    elapsed = time.perf_counter() - start
    assert report_obj.ok, report_obj.summary()
    assert elapsed < 120.0
    report(8, f"tree harness, {report_obj.comparisons} comparisons, 0 disagreements", elapsed)


def test_criterion_9_oracle_gate():
    start = time.perf_counter()
    words = [w for n in range(7) for w in itertools.product("ab", repeat=n)]
    for seed in range(500):
        e = wx.random_expression(seed, 5, "ab", wx.SIMPLE_OPS)
        oracle = wx.brute_force_language(e, 6, BOOLEANS)
        tables = [
            wx.position_automaton(e, FINITE_SET).tabulated(),
            wx.derivation_automaton(e, FINITE_SET).tabulated(),
            wx.inductive_automaton(e, FINITE_SET).tabulated(),
        ]
        for w in words:
            expected = oracle.get(w, False)
            for table in tables:
                assert table.recognizes(w) == expected, (wx.expr_to_text(e), w)
    elapsed = time.perf_counter() - start
    report(9, "500 expressions exhaustively match the brute-force oracle", elapsed)


def test_criterion_10_tree_determinization():
    start = time.perf_counter()
    A, B = RankedSymbol("a", 0), RankedSymbol("b", 0)
    F, H, G = RankedSymbol("f", 1), RankedSymbol("h", 1), RankedSymbol("g", 2)

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

    auto = BottomUpContainerTA(FINITE_SET, None, delta, lambda s: s == 2)
    det = bu_determinize(auto)
    trees = enumerate_trees([A, B, F, H, G], 4)
    assert len(trees) == 15130
    for t in trees:
        assert auto.recognizes(t) == det.recognizes(t)
    elapsed = time.perf_counter() - start
    report(10, f"determinization agrees on all {len(trees)} trees of depth <= 4", elapsed)


def test_criterion_11_law_suites():
    start = time.perf_counter()
    assert check_semiring_laws(BOOLEANS, [False, True], starrable=[False, True]).ok
    assert check_semiring_laws(INTEGERS, [-2, -1, 0, 1, 2, 3], starrable=[0]).ok

    # finality maps for the algebra law of `finality_step` ("finality-bind")
    bool_finals = [lambda x: x % 2 == 0, lambda x: x > 2, lambda _x: False]
    int_finals = [lambda x: x, lambda x: 2 * x - 3, lambda _x: 0]
    suites = []
    suites.append(
        check_container_laws(
            FINITE_SET,
            list(range(5)),
            [lambda x: frozenset({x}), lambda x: frozenset({x, x + 1}), lambda _x: frozenset()],
            cases=100,
            finals=bool_finals,
        )
    )
    suites.append(
        check_container_laws(
            OPTIONAL, list(range(5)), [lambda x: x, lambda x: x + 1, lambda _x: None],
            cases=100,
            finals=bool_finals,
        )
    )
    suites.append(
        check_container_laws(
            INT_LIN,
            list(range(4)),
            [
                lambda x: INT_LIN.unit(x),
                lambda x: INT_LIN.from_entries([(x, 2), (x + 1, -1)]),
                lambda _x: INT_LIN.neutral,
            ],
            cases=100,
            finals=int_finals,
        )
    )
    suites.append(
        check_container_laws(
            BOOL_EXPR,
            list(range(4)),
            [lambda x: BVar(x), lambda x: BOOL_EXPR.combine(BVar(x), BVar(x + 1)), lambda _x: BOOL_EXPR.neutral],
            cases=100,
            finals=bool_finals,
        )
    )
    G = gen_expr(INTEGERS)

    def gen_eq(a, b):
        from automonad.containers import eval_gen_expr

        return all(
            eval_gen_expr(a, env) == eval_gen_expr(b, env)
            for env in (lambda v: v, lambda v: v * 2 + 1, lambda _v: 0)
        )

    suites.append(
        check_container_laws(
            G,
            list(range(4)),
            [lambda x: G.unit(x), lambda x: G.combine(G.unit(x), G.unit(x + 1)), lambda _x: G.neutral],
            cases=100,
            equal=gen_eq,
            finals=int_finals,
        )
    )
    from automonad.algebra import INT_SUM, STR_CONCAT, product_monoid

    M = monoid_pair(product_monoid(INT_SUM, STR_CONCAT))
    suites.append(
        check_container_laws(
            M,
            list(range(4)),
            [lambda x: M.unit(x), lambda x: M.write(x + 1, (1, "a"))],
            cases=100,
            monoid_laws=False,
            action_laws=False,
            finals=[lambda x: (x, "b" * x), lambda _x: M.monoid.neutral, lambda x: (-x, "c")],
        )
    )
    S = stack_context(FINITE_SET)
    stacks = [(), ("z",), ("z", "y")]
    suites.append(
        check_container_laws(
            S,
            list(range(4)),
            [lambda x: S.unit(x), lambda x: S.bind(S.unit(x), lambda y: S.unit(y + 1)), lambda _x: S.neutral],
            cases=100,
            equal=lambda a, b: all(a.run(s) == b.run(s) for s in stacks),
        )
    )
    for suite in suites:
        assert suite.ok, suite.failures
        assert suite.checked >= 100

    # clause conversion vs exhaustive truth tables up to 4 variables
    rng = random.Random(99)
    variables = ["p", "q", "r", "s"]
    from automonad.containers import BAnd, BConst, BNot, BOr

    def random_positive(budget):
        if budget == 0 or rng.random() < 0.3:
            return rng.choice([BVar(rng.choice(variables)), BConst(rng.random() < 0.5)])
        kind = rng.choice(["and", "or", "notconst"])
        if kind == "notconst":
            return BNot(BConst(rng.random() < 0.5))
        return (BAnd if kind == "and" else BOr)(
            (random_positive(budget - 1), random_positive(budget - 1))
        )

    for _ in range(150):
        e = random_positive(4)
        clauses = bool_expr_to_clauses(e)
        for bits in range(16):
            env = {v: bool(bits >> i & 1) for i, v in enumerate(variables)}
            direct = eval_bool_expr(e, env=env.__getitem__)
            via = any(all(env[v] for v in clause) for clause in clauses)
            assert direct == via
    elapsed = time.perf_counter() - start
    report(11, "semiring/action/monad law suites and clause truth tables", elapsed)
