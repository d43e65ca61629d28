"""The three benchmark workloads: harness, compile, long-words.

Each workload builds, from the run seed, a *round*: a fixed list of
operations that the closed loop in `run.py` repeats whole until the run time
is spent.  Every operation's output is checked, outside the timed region,
against a reference that does not come from the code under test: a count or
closed form computed here, or the brute-force language oracle.

Known defects stay in the operation mix and count as failures:
- `build word --random 0 12 --method derivation --weights genexpr` exits 4
  (state cap) after about 3 s; seed 5 at the same size does too;
- `weight word --random ...` raises AttributeError (the weight parser has no
  --palette);
- `make_pda` AⁿBⁿ⁺¹ raises RecursionError for n around 1000;
- `monoid_pair` over tuple concatenation is quadratic in the word length;
- `gen_expr` (quadratic mean of vowels) is quadratic in the word length.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import string
from dataclasses import dataclass
from typing import Any, Callable

OK, WRONG, ERROR = "ok", "wrong", "error"


@dataclass
class Op:
    """One operation: `fn()` returns an output, `key(output)` a hashable
    summary (equal keys get the same verdict), `verify(output)` a
    (status, detail) pair."""

    label: str
    fn: Callable[[], Any]
    key: Callable[[Any], Any]
    verify: Callable[[Any], tuple[str, str]]
    cli: bool = False


def identity(x):
    return x


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


class Harness:
    """One operation is `validate_words` or `validate_trees` with 2 instances
    x 50 probes at one harness seed; a round holds both harnesses at the seeds
    0..POOL-1.  The pool is the same in every run, because the cost of one
    operation varies about 20-fold between seeds: with seeded pools, ten runs
    of this size would differ by more than any useful bound.  The run seed
    sets the order."""

    name = "harness"
    POOL = 16
    INSTANCES = 2
    PROBES = 50
    TAIL_PERCENTILE = 88.0  # a 30 s run makes at least 3 rounds: 96 samples
    FUNCTIONS = {"word": "validate_words", "tree": "validate_trees"}

    @classmethod
    def expected_comparisons(cls, kind) -> int:
        # Per probe: (bool constructions - 1) + (int constructions - 1) + 1
        # membership check.  Word instances alternate palettes: the simple
        # one adds the enriched variants (7 bool, 8 int), the scalar one has
        # the three word constructions only.
        if kind == "word":
            per_probe = [(7 - 1) + (8 - 1) + 1, (3 - 1) + (3 - 1) + 1]
        else:
            per_probe = [(3 - 1) + (3 - 1) + 1]
        return sum(cls.PROBES * per_probe[i % len(per_probe)] for i in range(cls.INSTANCES))

    def build(self, m, seed: int, adopt) -> list[Op]:
        ops = [self._op(m, kind, s) for kind in self.FUNCTIONS for s in range(self.POOL)]
        random.Random(seed).shuffle(ops)
        return ops

    def _op(self, m, kind, s) -> Op:
        fname = self.FUNCTIONS[kind]
        expected = self.expected_comparisons(kind)

        def verify(report):
            if report.failures:
                return WRONG, f"{len(report.failures)} disagreements: {report.failures[0]}"
            if report.comparisons != expected:
                return WRONG, f"{report.comparisons} comparisons, expected {expected}"
            return OK, ""

        return Op(
            f"{fname}(instances={self.INSTANCES}, probes={self.PROBES}, seed={s})",
            lambda: getattr(m.validate, fname)(
                instances=self.INSTANCES, probes=self.PROBES, seed=s
            ),
            lambda r: (r.comparisons, len(r.failures)),
            verify,
        )

    def states_built(self, m, ops) -> int:
        """States of every automaton the harnesses build, explored with a cap
        of 1000 each (the harnesses themselves explore none: this is the size
        a compiled transition table would have)."""
        total = 0
        for kind in self.FUNCTIONS:
            for s in range(self.POOL):
                for autos in self._harness_automata(m, kind, s):
                    total += sum(len(self._explore(m, kind, auto).states) for auto in autos)
        return total

    @staticmethod
    def _explore(m, kind, auto):
        if kind == "word":
            return m.automata.explore(auto, ("a", "b", "c"), max_states=1000)
        alphabet = m.enriched.DEFAULT_TREE_ALPHABET
        if isinstance(auto, m.treeauto.TopDownContainerTA):
            return m.treeauto.td_explore(auto, alphabet, max_states=1000)
        return m.treeauto.tree_explore(auto, alphabet, max_states=1000)

    def _harness_automata(self, m, kind, seed):
        # Replays the harness's random stream (expression, then probes) to
        # recover the expressions of each instance.
        wx, en, v = m.wordexpr, m.enriched, m.validate
        fs, lc = m.containers.FINITE_SET, m.containers.lin_comb(m.algebra.INTEGERS)
        rng = random.Random(seed)
        for i in range(self.INSTANCES):
            if kind == "word":
                simple = i % 2 == 0
                palette = wx.SIMPLE_OPS if simple else wx.SCALAR_OPS
                e = wx.random_expression(0, 5, ("a", "b", "c"), palette, rng=rng)
                eb = wx.coerce_scalars(e, bool)
                autos = [
                    wx.position_automaton(eb, fs),
                    wx.derivation_automaton(eb, fs),
                    wx.inductive_automaton(eb, fs),
                    wx.position_automaton(e, lc),
                    wx.derivation_automaton(e, lc),
                    wx.inductive_automaton(e, lc),
                ]
                if simple:
                    ee = en.from_word_expression(e)
                    for c in (fs, lc):
                        for side in ("reversed", "forward"):
                            autos.append(en.word_position_automaton(ee, c, side))
                            autos.append(en.word_derivation_automaton(ee, c, side))
                    autos.append(en.word_inductive_automaton(ee, lc))
                yield [a for a in autos if a is not None]
                v.word_probes(e, rng, self.PROBES, ("a", "b", "c"), 10)
            else:
                alphabet = en.DEFAULT_TREE_ALPHABET
                e = en.random_tree_expression(0, 3, alphabet, rng=rng)
                yield [
                    builder(e, c)
                    for c in (fs, lc)
                    for builder in (
                        en.tree_position_automaton,
                        en.tree_derivation_automaton,
                        en.tree_inductive_automaton,
                    )
                ]
                v.tree_probes(e, rng, self.PROBES, alphabet, 5)


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def exponential_family(m, n):
    """n-state NFA whose subset automaton has exactly 2^n states."""

    def delta(sym, p):
        if sym == "A":
            return frozenset({(p + 1) % n})
        return frozenset() if p == 0 else frozenset({p})

    return m.automata.WordAutomaton(
        m.containers.FINITE_SET, frozenset(range(n)), delta, lambda p: p == 0
    )


def five_letter_afa(m):
    """Alternating automaton accepting exactly the words that contain all
    of A..E."""
    c = m.containers

    def delta(x, q):
        if q is None:
            return c.BVar(None)
        return c.BVar(None) if x == q else c.BVar(q)

    return m.automata.WordAutomaton(
        c.BOOL_EXPR, c.bool_and(*[c.BVar(s) for s in "ABCDE"]), delta, lambda q: q is None
    )


class Compile:
    """In-process `automonad.cli.main` calls: `build` over every supported
    method x weights pair, one-shot `weight` queries on the same expressions,
    and the library explorations of the exponential family and the AFA."""

    name = "compile"
    WORD_SEEDS = tuple(range(8))
    WORD_SIZE = 12
    TREE_SEEDS = tuple(range(8))
    TREE_SIZE = 8
    CAPS = 200
    EXP_SIZES = (8, 9, 10)
    TAIL_PERCENTILE = 98.0  # a 30 s run makes at least 4 rounds: 852 samples
    WORD_PAIRS = [
        (method, weights)
        for method in ("positions", "derivation", "inductive")
        for weights in ("bool", "int", "boolexpr", "genexpr")
        # inductive x boolexpr/genexpr is documented as unsupported (exit 3)
        if not (method == "inductive" and weights in ("boolexpr", "genexpr"))
    ]
    TREE_PAIRS = [
        (method, weights)
        for method in ("positions", "derivation", "inductive")
        for weights in ("bool", "int")
    ]
    ORACLE_LEN = 4  # the oracle covers every weight query
    CHECK_LEN = 3  # words a build's construction is checked on

    def build(self, m, seed: int, adopt) -> list[Op]:
        rng = random.Random(seed)
        wx = m.wordexpr
        self.m = m
        self.expressions = {
            s: wx.random_expression(s, self.WORD_SIZE, list("abc"), wx.SIMPLE_OPS)
            for s in self.WORD_SEEDS
        }
        self._oracles: dict = {}
        self._explored: dict = {}
        ops = []
        for s in self.WORD_SEEDS:
            text = wx.expr_to_text(self.expressions[s])
            for method, weights in self.WORD_PAIRS:
                argv = ["build", "word", "--random", str(s), str(self.WORD_SIZE)]
                argv += ["--method", method, "--weights", weights]
                argv += ["--format", "dump", "--caps", str(self.CAPS)]
                ops.append(self._cli_op(m, argv, self._verify_word_build(s, method, weights)))
                word = "".join(rng.choice("abc") for _ in range(rng.randint(0, self.ORACLE_LEN)))
                argv = ["weight", "word", text, word, "--method", method, "--weights", weights]
                ops.append(self._cli_op(m, argv, self._verify_word_weight(s, weights, word)))
        for s in self.TREE_SEEDS:
            for method, weights in self.TREE_PAIRS:
                argv = ["build", "tree", "--random", str(s), str(self.TREE_SIZE)]
                argv += ["--method", method, "--weights", weights]
                argv += ["--format", "dump", "--caps", str(self.CAPS)]
                ops.append(self._cli_op(m, argv, self._verify_tree_build(s, method, weights)))
        # `weight --random` reads an option only `build` defines: kept as a
        # known defect (a traceback, so a failure).
        argv = ["weight", "word", "-", "ab", "--random", "0", str(self.WORD_SIZE)]
        argv += ["--method", "derivation", "--weights", "int"]
        ops.append(self._cli_op(m, argv, self._verify_word_weight(0, "int", "ab")))
        for n in self.EXP_SIZES:
            ops.append(
                Op(
                    f"explore(determinize(exponential_family({n})))",
                    lambda n=n: m.automata.explore(
                        adopt(m.automata.determinize(exponential_family(m, n))),
                        "AB",
                        max_states=2**n + 10,
                    ),
                    lambda r: (len(r.states), r.truncated),
                    lambda r, n=n: self._verify_subsets(n, r),
                )
            )
        ops.append(
            Op(
                "explore(afa_to_nfa(five_letter_afa))",
                lambda: self._afa_op(m, adopt),
                lambda out: (len(out[1].states), len(out[1].transitions)),
                self._verify_afa,
            )
        )
        rng.shuffle(ops)
        return ops

    # -- operations -------------------------------------------------------

    @staticmethod
    def _cli_op(m, argv, verify) -> Op:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = m.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return Op("automonad " + " ".join(argv), run, lambda r: r, verify, cli=True)

    @staticmethod
    def _afa_op(m, adopt):
        nfa = adopt(m.automata.afa_to_nfa(five_letter_afa(m)))
        return nfa, m.automata.explore(nfa, "ABCDE")

    # -- references -------------------------------------------------------

    def _oracle(self, s, weights):
        """Brute-force weights of all words up to ORACLE_LEN letters."""
        semiring = "bool" if weights in ("bool", "boolexpr") else "int"
        key = (s, semiring)
        if key not in self._oracles:
            m = self.m
            e = self.expressions[s]
            if semiring == "bool":
                lang = m.wordexpr.brute_force_language(
                    m.wordexpr.coerce_scalars(e, bool), self.ORACLE_LEN, m.algebra.BOOLEANS
                )
            else:
                lang = m.wordexpr.brute_force_language(e, self.ORACLE_LEN, m.algebra.INTEGERS)
            self._oracles[key] = (semiring, lang)
        return self._oracles[key]

    def _expected_weight(self, s, weights, word):
        semiring, lang = self._oracle(s, weights)
        value = lang.get(tuple(word), False if semiring == "bool" else 0)
        if semiring == "bool":
            return "true" if value else "false"
        return str(value)

    def _word_construction(self, s, method, weights):
        m = self.m
        c = m.containers
        container = {
            "bool": c.FINITE_SET,
            "int": c.lin_comb(m.algebra.INTEGERS),
            "boolexpr": c.BOOL_EXPR,
            "genexpr": c.gen_expr(m.algebra.INTEGERS),
        }[weights]
        e = self.expressions[s]
        if weights == "bool":
            e = m.wordexpr.coerce_scalars(e, bool)
        builder = getattr(m.wordexpr, f"{'position' if method == 'positions' else method}_automaton")
        return builder(e, container)

    def _verify_word_build(self, s, method, weights):
        def verify(out):
            code, stdout, stderr = out
            if code != 0:
                return ERROR, f"exit {code}: {stderr.strip()[:120]}"
            m = self.m
            text = m.wordexpr.expr_to_text(self.expressions[s])
            auto = self._word_construction(s, method, weights)
            result = m.automata.explore(auto, list("abc"), max_states=self.CAPS)
            self._explored[("word", s, method, weights)] = len(result.states)
            if stdout != f"expression: {text}\n{result.dump()}\n":
                return WRONG, "dump differs from the library exploration"
            sources = {line.split(" --", 1)[0] for line in result.dump().splitlines()}
            if len(result.transitions) != 3 * len(sources):
                return WRONG, "explored states lack transitions"
            if method == "positions" and len(sources) != sum(ch in "abc" for ch in text) + 1:
                return WRONG, "position automaton is not one state per letter plus init"
            for n in range(self.CHECK_LEN + 1):
                for word in itertools.product("abc", repeat=n):
                    got = m.util.render(auto.weight(word))
                    if got != self._expected_weight(s, weights, word):
                        return WRONG, f"weight of {''.join(word)!r} is {got}"
            return OK, ""

        return verify

    def _verify_word_weight(self, s, weights, word):
        def verify(out):
            code, stdout, stderr = out
            if code != 0:
                return ERROR, f"exit {code}: {stderr.strip()[:120]}"
            expected = self._expected_weight(s, weights, word)
            got = stdout.strip()
            if got != expected:
                return WRONG, f"weight {got}, oracle {expected}"
            return OK, ""

        return verify

    def _verify_tree_build(self, s, method, weights):
        def verify(out):
            code, stdout, stderr = out
            if code != 0:
                return ERROR, f"exit {code}: {stderr.strip()[:120]}"
            m = self.m
            en, ta = m.enriched, m.treeauto
            alphabet = list(en.DEFAULT_TREE_ALPHABET)  # the CLI's default
            e = en.random_tree_expression(s, self.TREE_SIZE, alphabet)
            container = (
                m.containers.FINITE_SET
                if weights == "bool"
                else m.containers.lin_comb(m.algebra.INTEGERS)
            )
            name = "position" if method == "positions" else method
            auto = getattr(en, f"tree_{name}_automaton")(e, container)
            if isinstance(auto, ta.TopDownContainerTA):
                result = ta.td_explore(auto, alphabet, max_states=self.CAPS)
            else:
                result = ta.tree_explore(auto, alphabet, max_states=self.CAPS)
            self._explored[("tree", s, method, weights)] = len(result.states)
            text = en.expression_to_text(e)
            if stdout != f"expression: {text}\n{result.dump()}\n":
                return WRONG, "dump differs from the library exploration"
            # the three constructions must agree on trees grown from the
            # expression and on random ones
            rng = random.Random(s)
            others = [
                getattr(en, f"tree_{b}_automaton")(e, container)
                for b in ("position", "derivation", "inductive")
            ]
            for _ in range(10):
                t = m.validate.sample_tree_from(e, rng) or m.validate.random_probe_tree(
                    rng, alphabet
                )
                weights_seen = {repr(a.weight(t)) for a in others}
                if len(weights_seen) != 1:
                    return WRONG, f"constructions disagree on {m.util.render(t)}"
            return OK, ""

        return verify

    def _verify_subsets(self, n, result):
        self._explored[("subsets", n)] = len(result.states)
        if (len(result.states), result.truncated) != (2**n, False):
            return WRONG, f"{len(result.states)} states, expected {2 ** n}"
        return OK, ""

    def _verify_afa(self, out):
        nfa, result = out
        self._explored[("afa",)] = len(result.states)
        if result.truncated or len(result.states) < 32:
            return WRONG, f"{len(result.states)} clause states, expected at least 32"
        accepted = [w for w in itertools.product("ABCDE", repeat=5) if nfa.recognizes(w)]
        if len(accepted) != 120 or any(len(set(w)) != 5 for w in accepted):
            return WRONG, f"{len(accepted)} accepted 5-letter words, expected 120 permutations"
        return OK, ""

    def states_built(self, m, ops) -> int:
        """States of every successful exploration in one round (recorded
        while checking the outputs)."""
        return sum(self._explored.values())


# ---------------------------------------------------------------------------
# long-words
# ---------------------------------------------------------------------------

VOWELS = "aeiou"


class LongWords:
    """One operation weighs one long word on one fixed small automaton; one
    automaton per container, so every container's `bind` is on a hot path."""

    name = "long-words"
    LENGTH = 2000
    # gen_expr's bind rewrites the whole configuration each symbol, so its
    # cost is quadratic: 5 s for 2000 symbols, 0.3 s for 500 (CPython 3.11,
    # one core of a shared 2-core x86-64 machine)
    GEN_EXPR_LENGTH = 500
    WORDS_PER_CONTAINER = 4
    # The four lin_comb words are the slowest 12% of a round: p94 falls in
    # their middle, away from the edge where the tail would jump to the
    # gen_expr words.  A 30 s run makes at least 4 rounds.
    TAIL_PERCENTILE = 94.0
    # tuple-concatenation output is quadratic: one longer word shows it
    MONOID_LONG = 20_000

    def build(self, m, seed: int, adopt) -> list[Op]:
        rng = random.Random(seed)
        autos = self._automata(m, adopt)
        ops = []

        def add(container, word, expected, fn=None):
            auto = autos[container]
            run = fn or (lambda auto=auto, word=word: auto.weight(word))
            ops.append(
                Op(
                    f"{container} weight of a {len(word)}-symbol word",
                    run,
                    _weight_key,
                    lambda out, expected=expected: _close(out, expected),
                )
            )

        n = self.LENGTH
        # Every other word misses a letter (AFA) or is not AⁿBⁿ⁺¹ (PDA): the
        # two kinds differ in cost, so a fixed share keeps rounds alike.
        for j in range(self.WORDS_PER_CONTAINER):
            ab = "".join(rng.choice("ab") for _ in range(n))
            ca, cb = ab.count("a"), ab.count("b")
            add("deterministic", ab, (ca % 2 == 0 and cb % 3 != 0) or n % 5 == 0)
            third = len(ab) >= 3 and ab[-3] == "a"
            add("optional", ab, third)
            add("finite_set", ab, third)
            add("lin_comb", ab, ab.count("ab"))
            letters = "ABCDE" if j % 2 == 0 else "ABCDE".replace(rng.choice("ABCDE"), "")
            w5 = "".join(rng.choice(letters) for _ in range(n))
            add("bool_expr", w5, set(w5) >= set("ABCDE"))
            text = "".join(rng.choice(string.ascii_lowercase) for _ in range(n))
            add("monoid_pair", text, _vowel_output(text))
            short = text[: self.GEN_EXPR_LENGTH]
            counts = [short.count(v) for v in VOWELS]
            present = sum(1 for k in counts if k)
            add("gen_expr", short, math.sqrt(sum(k * k for k in counts) / present))
            k = rng.randint(n // 2 - 50, n // 2)
            tail = k + 1 if j % 2 == 0 else k + rng.choice((0, 2))
            anbn = "A" * k + "B" * tail
            pda = autos["stack_context"]
            add(
                "stack_context",
                anbn,
                tail == k + 1,
                lambda pda=pda, w=anbn: pda.empty_stack_recognizes(w),
            )
        long_text = "".join(rng.choice(string.ascii_lowercase) for _ in range(self.MONOID_LONG))
        add("monoid_pair", long_text, _vowel_output(long_text))
        return ops

    @staticmethod
    def _automata(m, adopt) -> dict:
        a, c = m.automata, m.containers

        def counter(n, step):
            return a.complete_dfa(0, lambda s, p: (p + step(s)) % n, lambda p: p == 0)

        det = a.bool_combination(
            lambda x, y, z: (x and not y) or z,
            [
                counter(2, lambda s: s == "a"),
                counter(3, lambda s: s == "b"),
                counter(5, lambda s: 1),
            ],
        )

        def third_from_last(sym, q):
            if q == 0:
                return frozenset({0, 1}) if sym == "a" else frozenset({0})
            return frozenset({q + 1}) if q < 3 else frozenset()

        nfa = a.WordAutomaton(c.FINITE_SET, frozenset({0}), third_from_last, lambda q: q == 3)
        wx = m.wordexpr
        ints = c.lin_comb(m.algebra.INTEGERS)

        def det_trans(sym, q, _top):
            if sym == "A" and q == 0:
                return (("*", "*"), 0)
            if sym == "B" and q in (0, 1):
                return ((), 1)
            return (("*",), 2)

        return {
            "deterministic": adopt(det),
            "optional": adopt(a.nfa_to_partial_dfa(nfa)),
            "finite_set": adopt(
                wx.derivation_automaton(wx.parse_expression("(a+b)*.a.(a+b).(a+b)"), c.FINITE_SET)
            ),
            "lin_comb": adopt(
                wx.derivation_automaton(wx.parse_expression("(a+b)*.a.b.(a+b)*"), ints)
            ),
            "bool_expr": adopt(five_letter_afa(m)),
            "gen_expr": adopt(quadratic_mean_of_vowels(m)),
            "monoid_pair": adopt(a.sequential_pair_automaton(lambda ch: ch in VOWELS)),
            "stack_context": adopt(a.make_pda([0], "*", det_trans)),
        }

    def states_built(self, m, ops) -> int:
        """Explored states of the fixed automata (the pushdown automaton's
        stack contexts cannot be explored and are left out)."""
        autos = self._automata(m, identity)
        alphabets = {
            "deterministic": "ab",
            "optional": "ab",
            "finite_set": "ab",
            "lin_comb": "ab",
            "bool_expr": "ABCDE",
            "gen_expr": string.ascii_lowercase,
            "monoid_pair": string.ascii_lowercase,
        }
        return sum(
            len(m.automata.explore(autos[k], alphabet, max_states=1000).states)
            for k, alphabet in alphabets.items()
        )


def quadratic_mean_of_vowels(m):
    """Generalized alternating automaton: sqrt(sum of squared vowel counts /
    number of vowels present)."""
    c = m.containers
    reals = m.algebra.StarSemiring(
        "real", 0.0, 1.0, lambda x, y: x + y, lambda x, y: x * y, star=lambda _x: 0.0
    )

    def plus_all(args):
        out = args[0]
        for arg in args[1:]:
            out = c.GFun("+", (out, arg), lambda x, y: x + y)
        return out

    squares = plus_all([c.GFun("^2", (c.GVar(v),), lambda x: x * x) for v in VOWELS])
    present = plus_all(
        [c.GFun("ind", (c.GVar(v),), lambda x: 0.0 if x == 0 else 1.0) for v in VOWELS]
    )
    initial = c.GFun("sqrt", (c.GFun("/", (squares, present), lambda x, y: x / y),), math.sqrt)

    def delta(ch, p):
        if ch == p:
            return c.GFun("1+", (c.GVar(p),), lambda x: 1 + x)
        return c.GVar(p)

    return m.automata.WordAutomaton(c.gen_expr(reals), initial, delta, lambda _p: 0.0)


def _vowel_output(text):
    vowels = tuple(ch for ch in text if ch in VOWELS)
    return len(vowels), vowels


def _weight_key(out):
    return repr(out)


def _close(out, expected) -> tuple[str, str]:
    if isinstance(expected, float):
        ok = isinstance(out, float) and math.isclose(out, expected, rel_tol=1e-9)
    else:
        ok = out == expected
    return (OK, "") if ok else (WRONG, f"weight {out!r}, closed form {expected!r}")


WORKLOADS = {"harness": Harness, "compile": Compile, "long-words": LongWords}
