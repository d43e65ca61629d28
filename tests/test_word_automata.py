import itertools
import random

import pytest

from automonad.algebra import INTEGERS
from automonad.automata import (
    ParallelAutomaton,
    WordAutomaton,
    afa_to_complete_dfa,
    afa_to_nfa,
    bool_combination,
    complement_complete_dfa,
    complete,
    complete_dfa,
    concatenate,
    determinize,
    explore,
    intersection,
    kleene_star,
    make_pda,
    nfa_to_partial_dfa,
    sequential_pair_automaton,
    to_dot,
    to_k_dfa,
    union,
)
from automonad.containers import (
    BOOL_EXPR,
    BVar,
    FINITE_SET,
    OPTIONAL,
    bool_and,
    lin_comb,
)
from automonad.util import render
from test_tabulated import untabulated_weight

INT_LIN = lin_comb(INTEGERS)


def weighted_figure_automaton():
    """The three-state integer-weighted automaton used as a running example."""
    P, Q, R = "P", "Q", "R"
    f1 = INT_LIN.from_entries([(P, 2), (Q, 3), (R, 5)])
    f2 = INT_LIN.from_entries([(P, 4), (R, -1)])
    f3 = INT_LIN.from_entries([(Q, 3), (R, 5)])
    table = {(P, "A"): f1, (P, "B"): f2, (Q, "A"): f2, (R, "B"): f3}
    final = {P: 5, Q: 2}
    return WordAutomaton(
        INT_LIN,
        f1,
        lambda sym, s: table.get((s, sym), INT_LIN.neutral),
        lambda s: final.get(s, 0),
    )


def exponential_family(n):
    """n-state NFA whose determinization reaches the 2^n bound."""

    def delta(sym, p):
        if sym == "A":
            return frozenset({(p + 1) % n})
        return frozenset() if p == 0 else frozenset({p})

    return WordAutomaton(FINITE_SET, frozenset(range(n)), delta, lambda p: p == 0)


def mod_dfa(n):
    return complete_dfa(0, lambda _sym, p: (p + 1) % n, lambda p: p == 0)


def all_letters_afa(symbols):
    """Alternating automaton accepting words containing every symbol."""

    def delta(x, q):
        if q is None:
            return BVar(None)
        return BVar(None) if x == q else BVar(q)

    initial = bool_and(*[BVar(s) for s in symbols])
    return WordAutomaton(BOOL_EXPR, initial, delta, lambda q: q is None)


def random_nfa(rng, states=5, symbols="ab"):
    def delta(sym, p):
        r = random.Random((hash((sym, p)) ^ 0x9E3779B9) & 0xFFFF)
        return frozenset(q for q in range(states) if r.random() < 0.3)

    initial = frozenset(q for q in range(states) if rng.random() < 0.5) or frozenset({0})
    finals = {q for q in range(states) if rng.random() < 0.4}
    return WordAutomaton(FINITE_SET, initial, delta, lambda q: q in finals)


class TestConfigAndWeight:
    def test_empty_word_config_is_initial(self):
        auto = weighted_figure_automaton()
        assert auto.config("") == auto.initial

    def test_weighted_config_after_A(self):
        auto = weighted_figure_automaton()
        assert render(auto.config("A")) == "16·P + 6·Q + 7·R"

    def test_weight_of_A(self):
        assert weighted_figure_automaton().weight("A") == 92

    def test_exponential_family_config_cycles(self):
        auto = exponential_family(3)
        assert auto.config("AAA") == auto.initial

    def test_fold_coherence(self):
        auto = weighted_figure_automaton()
        rng = random.Random(0)
        for _ in range(25):
            u = [rng.choice("AB") for _ in range(rng.randint(0, 5))]
            v = [rng.choice("AB") for _ in range(rng.randint(0, 5))]
            direct = auto.config(u + v)
            cu = auto.config(u)
            stepped = cu
            for sym in v:
                stepped = INT_LIN.bind(stepped, lambda s, sym=sym: auto.delta(sym, s))
            assert direct == stepped


class TestDeterminize:
    def test_empty_nfa_rejects_everything(self):
        auto = WordAutomaton(
            FINITE_SET, frozenset(), lambda _s, _q: frozenset(), lambda _q: False
        )
        det = determinize(auto)
        assert det.weight("") is False
        assert det.weight("ab") is False

    def test_exponential_family_reaches_bound(self):
        det = determinize(exponential_family(3))
        result = explore(det, "AB", max_states=2000)
        assert len(result.states) == 8

    def test_virtual_exponential_automaton(self):
        # the 2^40-state determinized automaton is never materialized; only
        # the configurations along the read words are computed
        n = 40
        det = determinize(exponential_family(n))
        word = "A" * n
        assert det.config(word) == frozenset(range(n))
        after_b = det.config(word + "B" + word)
        assert after_b == frozenset(range(1, n))
        assert det.weight(word) is True

    def test_equivalence_on_random_words(self):
        rng = random.Random(7)
        for seed in range(10):
            nfa = random_nfa(random.Random(seed))
            det = determinize(nfa)
            partial = nfa_to_partial_dfa(nfa)
            comp = complete(partial)
            for _ in range(30):
                w = [rng.choice("ab") for _ in range(rng.randint(0, 10))]
                expected = nfa.recognizes(w)
                assert det.weight(w) == expected
                assert partial.recognizes(w) == expected
                assert comp.weight(w) == expected


class TestComplete:
    def test_total_automaton_keeps_weights(self):
        auto = WordAutomaton(OPTIONAL, 0, lambda _s, q: (q + 1) % 2, lambda q: q == 0)
        comp = complete(auto)
        for n in range(6):
            assert comp.weight("a" * n) == auto.recognizes("a" * n)

    def test_missing_transition_reaches_sink(self):
        auto = WordAutomaton(
            OPTIONAL, 0, lambda _s, q: 1 if q == 0 else None, lambda q: q == 1
        )
        comp = complete(auto)
        assert comp.weight("a") is True
        assert comp.weight("aa") is False
        assert comp.config("aa") is None  # the sink


class TestPartialDFA:
    def test_empty_subset_becomes_absence(self):
        auto = WordAutomaton(
            FINITE_SET, frozenset({0}), lambda _s, _q: frozenset(), lambda _q: True
        )
        pdfa = nfa_to_partial_dfa(auto)
        assert pdfa.config("a") is None

    def test_singleton_nfa_is_isomorphic(self):
        auto = WordAutomaton(
            FINITE_SET,
            frozenset({0}),
            lambda s, q: frozenset({1}) if (s, q) == ("a", 0) else frozenset(),
            lambda q: q == 1,
        )
        pdfa = nfa_to_partial_dfa(auto)
        assert pdfa.config("a") == frozenset({1})
        assert pdfa.recognizes("a") and not pdfa.recognizes("b")


class TestAlternating:
    def test_single_state_var_afa_converts_isomorphically(self):
        auto = WordAutomaton(BOOL_EXPR, BVar(0), lambda _s, _q: BVar(0), lambda _q: True)
        nfa = afa_to_nfa(auto)
        assert nfa.initial == frozenset({frozenset({0})})
        assert nfa.recognizes("") and nfa.recognizes("abc")

    def test_all_letters_language(self):
        symbols = "ABC"
        afa = all_letters_afa(symbols)
        nfa = afa_to_nfa(afa)
        dfa = afa_to_complete_dfa(afa)
        for perm in itertools.permutations(symbols):
            assert afa.recognizes(perm) and nfa.recognizes(perm) and dfa.weight(perm)
        for sub in itertools.permutations(symbols, 2):
            assert not afa.recognizes(sub)
            assert not nfa.recognizes(sub)
            assert not dfa.weight(sub)

    def test_complete_dfa_constant_true_state_accepts(self):
        from automonad.containers import BTRUE

        auto = WordAutomaton(BOOL_EXPR, BTRUE, lambda _s, q: BVar(q), lambda _q: False)
        dfa = afa_to_complete_dfa(auto)
        assert dfa.weight("") is True

    def test_afa_dfa_weight_agreement_random(self):
        rng = random.Random(1)
        afa = all_letters_afa("AB")
        dfa = afa_to_complete_dfa(afa)
        nfa = afa_to_nfa(afa)
        for _ in range(60):
            w = [rng.choice("AB") for _ in range(rng.randint(0, 6))]
            assert afa.recognizes(w) == dfa.weight(w) == nfa.recognizes(w)

    def test_var_state_steps_to_delta_image(self):
        afa = all_letters_afa("AB")
        dfa = afa_to_complete_dfa(afa)
        state = BVar("A")
        assert dfa.delta("A", state) == BVar(None)
        assert dfa.delta("B", state) == BVar("A")


class TestProductsAndSums:
    def test_parallel_product_pairs_weights(self):
        afa = all_letters_afa("ab")
        counter = sequential_pair_automaton(lambda ch: ch in "aeiouy")
        both = ParallelAutomaton(afa, counter)
        reco, (count, sub) = both.weight("aabe")
        assert reco is True and count == 3 and sub == ("a", "a", "e")
        rng = random.Random(3)
        for _ in range(20):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            assert both.weight(w) == (afa.weight(w), counter.weight(w))

    def test_union_intersection_weights(self):
        rng = random.Random(5)
        a = random_nfa(random.Random(21))
        b = random_nfa(random.Random(22))
        u = union(a, b)
        i = intersection(a, b)
        for _ in range(40):
            w = [rng.choice("ab") for _ in range(rng.randint(0, 8))]
            assert u.recognizes(w) == (a.recognizes(w) or b.recognizes(w))
            assert i.recognizes(w) == (a.recognizes(w) and b.recognizes(w))

    def test_union_with_empty_is_identity(self):
        a = random_nfa(random.Random(31))
        empty = WordAutomaton(
            FINITE_SET, frozenset(), lambda _s, _q: frozenset(), lambda _q: False
        )
        u = union(a, empty)
        rng = random.Random(6)
        for _ in range(20):
            w = [rng.choice("ab") for _ in range(rng.randint(0, 8))]
            assert u.recognizes(w) == a.recognizes(w)

    def test_hadamard_multiplies_weights(self):
        a = weighted_figure_automaton()
        h = intersection(a, a)
        rng = random.Random(7)
        for _ in range(25):
            w = [rng.choice("AB") for _ in range(rng.randint(0, 6))]
            assert h.weight(w) == a.weight(w) * a.weight(w)

    def test_sum_weighted_adds_weights(self):
        a = weighted_figure_automaton()
        s = union(a, a)
        for w in ["", "A", "AB", "BA"]:
            assert s.weight(w) == 2 * a.weight(w)


class TestConcatenateStar:
    def _symbol_nfa(self, sym):
        return WordAutomaton(
            FINITE_SET,
            frozenset({("s", sym)}),
            lambda a, q: frozenset({("t", sym)}) if (a == sym and q == ("s", sym)) else frozenset(),
            lambda q: q == ("t", sym),
        )

    def _eps_nfa(self):
        return WordAutomaton(
            FINITE_SET, frozenset({"e"}), lambda _a, _q: frozenset(), lambda q: q == "e"
        )

    def test_concat_with_epsilon_is_identity(self):
        a = self._symbol_nfa("a")
        c = concatenate(a, self._eps_nfa())
        for w in ["", "a", "aa", "b"]:
            assert c.recognizes(w) == a.recognizes(w)

    def test_star_of_empty_accepts_epsilon_only(self):
        empty = WordAutomaton(
            FINITE_SET, frozenset(), lambda _a, _q: frozenset(), lambda _q: False
        )
        s = kleene_star(empty)
        assert s.recognizes("")
        assert not s.recognizes("a")

    def test_concat_weight_is_split_sum(self):
        # weight(concat(A,B), w) = sum over splits of products, against a
        # brute-force split enumeration
        a = weighted_figure_automaton()
        b = weighted_figure_automaton()
        c = concatenate(a, b)
        rng = random.Random(9)
        for _ in range(12):
            w = [rng.choice("AB") for _ in range(rng.randint(0, 6))]
            brute = sum(
                a.weight(w[:k]) * b.weight(w[k:]) for k in range(len(w) + 1)
            )
            assert c.weight(w) == brute

    def test_star_language(self):
        ab = concatenate(self._symbol_nfa("a"), self._symbol_nfa("b"))
        s = kleene_star(ab)
        for n in range(4):
            assert s.recognizes("ab" * n)
        for bad in ["a", "b", "ba", "aab", "aba", "abba"]:
            assert not s.recognizes(bad)


class TestCompleteDfaAlgebra:
    def test_complement_involution(self):
        a = mod_dfa(3)
        cc = complement_complete_dfa(complement_complete_dfa(a))
        for n in range(8):
            assert cc.weight("a" * n) == a.weight("a" * n)

    def test_complement_of_all_accepting(self):
        always = complete_dfa(0, lambda _s, q: q, lambda _q: True)
        never = complement_complete_dfa(always)
        assert not never.weight("") and not never.weight("xyz")

    def test_de_morgan(self):
        a, b = mod_dfa(2), mod_dfa(3)
        lhs = complement_complete_dfa(
            bool_combination(lambda x, y: x and y, [a, b])
        )
        rhs = bool_combination(
            lambda x, y: x or y,
            [complement_complete_dfa(a), complement_complete_dfa(b)],
        )
        for n in range(12):
            assert lhs.weight("a" * n) == rhs.weight("a" * n)

    def test_triple_and_combination(self):
        combo = bool_combination(
            lambda x, y, z: x and y and z, [mod_dfa(3), mod_dfa(7), mod_dfa(11)]
        )
        accepted = [n for n in range(463) if combo.weight("a" * n)]
        assert accepted == [0, 231, 462]

    def test_projection_combination(self):
        a = mod_dfa(5)
        proj = bool_combination(lambda x, _y: x, [a, mod_dfa(3)])
        for n in range(16):
            assert proj.weight("a" * n) == a.weight("a" * n)

    def test_modular_combination_example(self):
        a4 = bool_combination(
            lambda x, y, z: (x and not y) or z, [mod_dfa(2), mod_dfa(4), mod_dfa(8)]
        )
        assert a4.weight("aa") is True
        assert a4.weight("aaaa") is False
        assert a4.weight("a" * 8) is True

    def test_to_k_dfa_single_start(self):
        a = mod_dfa(4)
        k = to_k_dfa([2], a)
        for n in range(10):
            assert k.weight("a" * n) == ((2 + n) % 4 == 0)

    def test_to_k_dfa_two_starts(self):
        k = to_k_dfa([2, 5], mod_dfa(11))
        accepted = [n for n in range(23) if k.weight("a" * n)]
        assert accepted == [6, 9, 17, 20]

    def test_to_k_dfa_duplicate_starts(self):
        a = mod_dfa(6)
        k1 = to_k_dfa([3], a)
        k2 = to_k_dfa([3, 3], a)
        for n in range(14):
            assert k1.weight("a" * n) == k2.weight("a" * n)


def det_pda():
    def trans(sym, q, _top):
        if sym == "A" and q == 0:
            return (("*", "*"), 0)
        if sym == "B" and q in (0, 1):
            return ((), 1)
        return (("*",), 2)

    return make_pda([0], "*", trans)


def nondet_pda():
    moves = {
        ("A", 0): [(("*", "*"), 1), (("*", "*", "*"), 2)],
        ("B", 0): [((), 3)],
        ("A", 1): [(("*", "*"), 1)],
        ("B", 1): [((), 3)],
        ("A", 2): [(("*", "*", "*"), 2)],
        ("B", 2): [((), 3)],
        ("B", 3): [((), 3)],
    }

    def trans(sym, q, _top):
        return frozenset((tuple(w), s) for w, s in moves.get((sym, q), []))

    return make_pda([0], "*", trans, inner=FINITE_SET)


class TestPushdown:
    def test_deterministic_accepts_anbn1(self):
        pda = det_pda()
        for n in range(8):
            assert pda.empty_stack_recognizes("A" * n + "B" * (n + 1))

    def test_deterministic_rejects(self):
        pda = det_pda()
        for w in ["", "AABB", "BB", "AB", "BA", "AAB", "ABBB"]:
            assert not pda.empty_stack_recognizes(w)

    def test_nondeterministic_language(self):
        pda = nondet_pda()
        members = {("A" * n + "B" * (n + 1)) for n in range(6)}
        members |= {("A" * n + "B" * (2 * n + 1)) for n in range(6)}
        assert pda.empty_stack_recognizes("ABBB")  # n=1, 2n+1 branch
        for w in members:
            assert pda.empty_stack_recognizes(w), w
        rng = random.Random(4)
        checked = 0
        while checked < 200:
            w = "".join(rng.choice("AB") for _ in range(rng.randint(0, 12)))
            if w in members:
                continue
            assert not pda.empty_stack_recognizes(w), w
            checked += 1

    def test_long_words_do_not_overflow(self):
        det = det_pda()
        for n in (1000, 5000):
            assert det.empty_stack_recognizes("A" * n + "B" * (n + 1))
        assert not det.empty_stack_recognizes("A" * 1000 + "B" * 1000)
        assert nondet_pda().empty_stack_recognizes("A" * 1000 + "B" * 2001)

    def test_runs_are_states_with_tuple_stacks(self):
        assert det_pda().runs("AA") == (0, ("*", "*", "*"))
        assert sorted(nondet_pda().runs("AB")) == [(3, ("*",)), (3, ("*", "*"))]


def palindrome_pda():
    """Nonempty even-length palindromes over {a, b}: push the first half
    (the first symbol replaces the bottom marker), guess the middle
    nondeterministically, pop against the second half."""
    PUSH, POP = 0, 1

    def trans(sym, q, top):
        moves = set()
        if q == PUSH and top == "$":
            moves.add(((sym,), PUSH))  # first symbol replaces the marker
        elif q == PUSH:
            moves.add(((sym, top), PUSH))  # keep pushing
            if top == sym:
                moves.add(((), POP))  # guess: sym starts the second half
        elif q == POP and top == sym:
            moves.add(((), POP))
        return frozenset(moves)

    return make_pda([PUSH], "$", trans, inner=FINITE_SET)


class TestPalindromePda:
    def test_language(self):
        import itertools as it

        pda = palindrome_pda()

        def expected(w):
            return w != "" and len(w) % 2 == 0 and w == w[::-1]

        for n in range(7):
            for w in it.product("ab", repeat=n):
                word = "".join(w)
                assert pda.empty_stack_recognizes(word) == expected(word), word


class TestGeneralizedAlternating:
    """Configurations are n-ary function expressions; the weight of a word
    is a number computed from per-state counters."""

    def _quadratic_mean_automaton(self, vowels):
        import math

        from automonad.algebra import StarSemiring
        from automonad.containers import GConst, GFun, GVar, gen_expr

        reals = StarSemiring(
            "real", 0.0, 1.0, lambda a, b: a + b, lambda a, b: a * b,
            star=lambda _x: (_ for _ in ()).throw(ValueError("unused")),
        )
        R = gen_expr(reals)

        def plus_all(args):
            out = args[0]
            for a in args[1:]:
                out = GFun("+", (out, a), lambda x, y: x + y)
            return out

        squares = plus_all([GFun("^2", (GVar(v),), lambda x: x * x) for v in vowels])
        present = plus_all(
            [GFun("ind", (GVar(v),), lambda x: 0.0 if x == 0 else 1.0) for v in vowels]
        )
        initial = GFun(
            "sqrt", (GFun("/", (squares, present), lambda x, y: x / y),), math.sqrt
        )

        def delta(ch, p):
            if ch == p:
                return GFun("1+", (GVar(p),), lambda x: 1 + x)
            return GVar(p)

        return WordAutomaton(R, initial, delta, lambda _p: 0.0)

    def test_quadratic_mean_of_vowels(self):
        import math

        auto = self._quadratic_mean_automaton("aeiouy")
        # "automate": a twice, u/o/e once -> sqrt((4+1+1+1)/4)
        assert auto.weight("automate") == pytest.approx(math.sqrt(7 / 4))
        assert auto.weight("eye") == pytest.approx(math.sqrt((4 + 1) / 2))

    def test_counts_match_bruteforce(self):
        import math

        auto = self._quadratic_mean_automaton("aeiou")
        rng = random.Random(12)
        letters = "abcdeiou"
        for _ in range(25):
            w = "".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
            counts = [w.count(v) for v in "aeiou"]
            present = sum(1 for c in counts if c)
            if present == 0:
                continue
            expected = math.sqrt(sum(c * c for c in counts) / present)
            assert auto.weight(w) == pytest.approx(expected)

    def test_long_word_weighs_without_deep_recursion(self):
        # each vowel nests one more `1+` node in the forward configuration
        auto = self._quadratic_mean_automaton("aeiou")
        assert auto.weight("a" * 800) == 800.0

    def test_long_random_word_matches_closed_form(self):
        import math
        import string

        auto = self._quadratic_mean_automaton("aeiou")
        rng = random.Random(2000)
        w = "".join(rng.choice(string.ascii_lowercase) for _ in range(2000))
        counts = [w.count(v) for v in "aeiou"]
        expected = math.sqrt(sum(c * c for c in counts) / sum(1 for c in counts if c))
        assert math.isclose(auto.weight(w), expected, rel_tol=1e-9)


class TestSequential:
    def test_empty_word(self):
        auto = sequential_pair_automaton(lambda _s: True)
        assert auto.weight("") == (0, ())

    def test_always_true_copies_word(self):
        auto = sequential_pair_automaton(lambda _s: True)
        count, sub = auto.weight("abc")
        assert count == 3 and sub == ("a", "b", "c")

    def test_vowel_example(self):
        auto = sequential_pair_automaton(lambda ch: ch in "aeiouy")
        count, sub = auto.weight("automate")
        assert count == 5
        assert "".join(sub) == "auoae"


class TestTabulated:
    """`tabulated()` keeps the weights of automata over every container."""

    def _automata(self):
        return {
            "deterministic": bool_combination(
                lambda x, y: x != y, [mod_dfa(2), mod_dfa(3)]
            ),
            "optional": nfa_to_partial_dfa(exponential_family(3)),
            "finite_set": exponential_family(3),
            "lin_comb": weighted_figure_automaton(),
            "bool_expr": all_letters_afa("AB"),
            "gen_expr": TestGeneralizedAlternating()._quadratic_mean_automaton("AB"),
            "monoid_pair": sequential_pair_automaton(lambda ch: ch == "A"),
        }

    @pytest.mark.parametrize(
        "name",
        ["deterministic", "optional", "finite_set", "lin_comb", "bool_expr", "gen_expr", "monoid_pair"],
    )
    def test_weights_equal_raw_weights(self, name):
        auto = self._automata()[name]
        table = auto.tabulated()
        rng = random.Random(3)
        for _ in range(60):
            w = "".join(rng.choice("AB") for _ in range(rng.randint(0, 7)))
            if name == "gen_expr" and not w:
                continue  # the quadratic mean of no counts divides by zero
            assert table.weight(w) == untabulated_weight(auto, w), w


class TestExploration:
    def test_empty_automaton_dot(self):
        auto = WordAutomaton(
            FINITE_SET, frozenset(), lambda _s, _q: frozenset(), lambda _q: False
        )
        result = explore(auto, "ab")
        dot = to_dot(result)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "->" not in dot

    def test_mod2_dfa_two_nodes_two_edges(self):
        result = explore(mod_dfa(2), "a")
        assert len(result.states) == 2
        dot = to_dot(result)
        assert dot.count("label=\"a\"") == 2

    def test_exponential_family_node_count(self):
        det = determinize(exponential_family(3))
        result = explore(det, "AB")
        assert len(result.states) == 8

    def test_idempotent_and_cap_monotone(self):
        det = determinize(exponential_family(4))
        small = explore(det, "AB", max_states=5)
        assert small.truncated
        full = explore(det, "AB", max_states=100)
        again = explore(det, "AB", max_states=100)
        assert not full.truncated
        assert full.states == again.states
        assert set(small.states) <= set(full.states)
        small_keys = {(t.source, t.symbol) for t in small.transitions}
        full_keys = {(t.source, t.symbol) for t in full.transitions}
        assert small_keys <= full_keys

    def test_memoization_counts_each_transition_once(self):
        counter = {}
        base = exponential_family(3)

        def counting_delta(sym, q):
            counter[(q, sym)] = counter.get((q, sym), 0) + 1
            return base.delta(sym, q)

        auto = WordAutomaton(FINITE_SET, base.initial, counting_delta, base.final).tabulated()
        auto.config("AAABAAA")
        auto.config("AAABAAA")
        assert counter and all(v == 1 for v in counter.values())

    def test_explore_computes_transitions_once(self):
        calls = {}
        base = exponential_family(3)

        def counting_delta(sym, q):
            calls[(q, sym)] = calls.get((q, sym), 0) + 1
            return base.delta(sym, q)

        auto = WordAutomaton(FINITE_SET, base.initial, counting_delta, base.final)
        explore(auto, "AB")
        assert all(v == 1 for v in calls.values())

    def test_cap_counts_initial_states(self):
        auto = WordAutomaton(
            FINITE_SET, frozenset(range(10)), lambda _sym, _q: frozenset(), bool
        )
        small = explore(auto, "a", max_states=3)
        assert small.truncated and len(small.states) == 3
        assert not explore(auto, "a", max_states=10).truncated

    def test_dot_deterministic_across_runs(self):
        det = determinize(exponential_family(3))
        d1 = to_dot(explore(det, "AB"))
        d2 = to_dot(explore(det, "AB"))
        assert d1 == d2

    def test_dump_format(self):
        result = explore(mod_dfa(2), "a")
        dump = result.dump()
        assert "0 --a--> 1" in dump
        assert "1 --a--> 0" in dump
