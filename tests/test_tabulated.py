"""`tabulated()`: the same automaton over integer state ids, whose transition
rows are computed once.  Its weights must equal the untabulated weights on
the probes the harnesses draw, and each (symbol, state) row, variable
initialization and final weight must be computed exactly once; a top-down
table also keeps its subtree weights.  A word automaton's own `weight` reads
through such a table, one per call.  The harnesses weigh a repeated probe
once per construction, and draw the same probes however they memoize.
A kept word or bottom-up table also keeps its configuration steps, so a
second weighing binds nothing; a one-shot word weight keeps none."""

import hashlib
import itertools
import random
from dataclasses import replace

import pytest

from automonad import enriched as en
from automonad import wordexpr as wx
from automonad.algebra import INTEGERS, HOLE, Node
from automonad.automata import WordAutomaton, _memo, nfa_to_partial_dfa
from automonad.containers import LinCombContainer, OptionalContainer
from automonad.treeauto import BottomUpContainerTA, TopDownContainerTA
from automonad.util import UNIT, render
from automonad.validate import (
    BOOL_INT,
    INT_LIN,
    CONSTRUCTIONS,
    construct,
    sample_tree_from,
    sample_word_from,
    tree_probes,
    validate_trees,
    validate_words,
    word_probes,
)

WORD_ALPHABET = ("a", "b", "c")
SEEDS = range(4)
REGISTERED = [
    (kind, method, weights)
    for (kind, method), (_builder, accepted) in CONSTRUCTIONS.items()
    if kind in ("word", "enriched", "tree")
    for weights in accepted
]


def untabulated_weight(auto, *probe):
    """The weight of `probe` without a table: the plain bind-fold of a word
    automaton (whose own `weight` reads through one), the own weight of a
    tree automaton."""
    if isinstance(auto, WordAutomaton):
        return auto.container.finality_step(auto.config(*probe), auto.final)
    return auto.weight(*probe)


def with_hole(t):
    """`t` with its leftmost leaf replaced by a hole."""
    if not t.children:
        return HOLE
    return Node(t.symbol, (with_hole(t.children[0]),) + t.children[1:])


def word_instance(seed, simple=True):
    """A harness-style word expression and 30 probes drawn for it."""
    rng = random.Random(seed)
    palette = wx.SIMPLE_OPS if simple else wx.SCALAR_OPS
    e = wx.random_expression(0, 5, WORD_ALPHABET, palette, rng=rng)
    return e, word_probes(e, rng, 30, WORD_ALPHABET)


def tree_instance(seed):
    """A harness-style tree expression and 30 probes drawn for it, each also
    with a hole (weighed with the unit variable)."""
    rng = random.Random(seed)
    alphabet = en.DEFAULT_TREE_ALPHABET
    e = en.random_tree_expression(0, 3, alphabet, rng=rng)
    probes = tree_probes(e, rng, 30, alphabet)
    return e, [(t, ()) for t in probes] + [(with_hole(t), (UNIT,)) for t in probes]


@pytest.mark.parametrize("kind, method, weights", REGISTERED, ids=["-".join(r) for r in REGISTERED])
def test_tabulated_weights_equal_raw_weights(kind, method, weights):
    for seed in SEEDS:
        if kind == "tree":
            e, probes = tree_instance(seed)
        else:
            e, words = word_instance(seed, simple=kind == "enriched" or seed % 2 == 0)
            e = en.from_word_expression(e) if kind == "enriched" else e
            probes = [(w,) for w in words]
        auto = construct(kind, method, weights, e)
        table = auto.tabulated()
        for probe in probes:
            assert table.weight(*probe) == untabulated_weight(auto, *probe), (seed, probe)


@pytest.mark.parametrize("method", ["derivation", "positions"])
def test_backward_weights_equal_the_forward_fold(method):
    words = [w for n in range(7) for w in itertools.product(WORD_ALPHABET, repeat=n)]
    for seed in SEEDS:
        e = wx.random_expression(seed, 8, WORD_ALPHABET, wx.SCALAR_OPS)
        auto = construct("word", method, "genexpr", e)
        assert auto.container.folds_backward
        for w in words:
            assert auto.weight(w) == untabulated_weight(auto, w), (seed, w)


def counted(fn, calls: dict):
    """`fn`, counting its calls per argument tuple in `calls`."""

    def count(*args):
        calls[args] = calls.get(args, 0) + 1
        return fn(*args)

    return count


def assert_each_key_computed_once(auto, probes, fields):
    """Weigh `probes` through `auto.tabulated()` with the functions named in
    `fields` counted: each distinct argument tuple must be computed once,
    while the raw automaton computes some of them again."""
    raw = {name: {} for name in fields}
    tab = {name: {} for name in fields}
    raw_auto = replace(auto, **{n: counted(getattr(auto, n), raw[n]) for n in fields})
    table = replace(auto, **{n: counted(getattr(auto, n), tab[n]) for n in fields}).tabulated()
    for probe in probes:
        assert table.weight(*probe) == untabulated_weight(raw_auto, *probe)
    for name in fields:
        assert tab[name] and set(tab[name]) == set(raw[name]), name
        assert all(n == 1 for n in tab[name].values()), name
    assert sum(sum(raw[n].values()) for n in fields) > sum(len(tab[n]) for n in fields)


def test_word_rows_computed_once():
    e, words = word_instance(0)
    words += word_probes(e, random.Random(1), 20, WORD_ALPHABET)
    auto = wx.derivation_automaton(e, INT_LIN)
    assert_each_key_computed_once(auto, [(w,) for w in words], ["delta", "final"])


def test_top_down_rows_computed_once():
    e, probes = tree_instance(0)
    auto = en.tree_derivation_automaton(e, INT_LIN)
    assert_each_key_computed_once(auto, probes[:50], ["delta", "var_weight"])


def test_bottom_up_rows_and_init_computed_once():
    e, probes = tree_instance(0)
    auto = en.tree_inductive_automaton(en.ESum(en.EVar(UNIT), e), INT_LIN)
    assert auto.init is not None
    assert_each_key_computed_once(auto, probes[:50], ["init", "delta", "final"])


def test_word_weight_computes_each_row_once_per_call():
    rng = random.Random(5)
    word = "".join(rng.choice("ab") for _ in range(2000))
    auto = wx.derivation_automaton(wx.parse_expression("(a+b)*.a.b.(a+b)*"), INT_LIN)
    raw, tab = {}, {}
    assert untabulated_weight(replace(auto, delta=counted(auto.delta, raw)), word) == word.count("ab")
    counted_auto = replace(auto, delta=counted(auto.delta, tab))
    assert counted_auto.weight(word) == word.count("ab")
    assert set(tab) == set(raw) and len(tab) < 10
    assert all(n == 1 for n in tab.values())
    counted_auto.weight(word)  # the table of the first call was dropped
    assert all(n == 2 for n in tab.values())


def test_a_table_is_its_own_table():
    methods = [("word", "derivation")] + [("tree", m) for m in ("derivation", "positions", "inductive")]
    for kind, method in methods:
        e, _probes = word_instance(0) if kind == "word" else tree_instance(0)
        table = construct(kind, method, "int", e).tabulated()
        assert table.tabulated() is table, (kind, method)


def test_memo_computes_a_none_result_once():
    calls = {}
    memo = _memo(counted(lambda x: None, calls))
    assert memo(1) is None and memo(1) is None and memo(2) is None
    assert calls == {(1,): 1, (2,): 1}


class CountingLinComb(LinCombContainer):
    """`lin_comb(INTEGERS)`, counting its `finality_step` and `bind` calls."""

    def __init__(self):
        super().__init__(INTEGERS)
        self.steps = 0
        self.binds = 0

    def finality_step(self, c, final):
        self.steps += 1
        return super().finality_step(c, final)

    def bind(self, c, f):
        self.binds += 1
        return super().bind(c, f)


class CountingOptional(OptionalContainer):
    """`OPTIONAL`, counting its `bind` calls."""

    binds = 0

    def bind(self, c, f):
        self.binds += 1
        return super().bind(c, f)


def counting_word_automata():
    """A harness word automaton and words for it, and a partial DFA with
    words whose configuration dies (`None`), each over a container that
    counts its binds."""
    e, words = word_instance(0)
    nfa = construct("word", "derivation", "bool", wx.parse_expression("a.b*+c.(a+b)"))
    partial = replace(nfa_to_partial_dfa(nfa), container=CountingOptional())
    dying = ["b", "ab", "abba", "ca", "cab", "cc", "cabb", "c", "abbb"]
    return [(wx.derivation_automaton(e, CountingLinComb()), words), (partial, dying)]


def test_a_kept_word_table_binds_each_step_once():
    for auto, words in counting_word_automata():
        table = auto.tabulated()
        counting = auto.container
        first = [table.weight(w) for w in words]
        assert counting.binds > 0
        counting.binds = 0
        assert [table.weight(w) for w in words] == first
        assert counting.binds == 0, counting
        if isinstance(counting, OptionalContainer):
            assert [table.config(w) is None for w in words].count(True) == 5


def test_a_one_shot_word_weight_keeps_no_step():
    for auto, words in counting_word_automata():
        counting = auto.container
        for w in words:
            counting.binds = 0
            first = auto.weight(w)
            binds = counting.binds
            assert auto.weight(w) == first and counting.binds == 2 * binds >= 2 * len(w), w


def test_top_down_table_keeps_subtree_weights():
    e, probes = tree_instance(0)
    counting = CountingLinComb()
    table = en.tree_derivation_automaton(e, counting).tabulated()
    for probe in probes:
        first = table.weight(*probe)
        counting.steps = 0
        assert table.weight(*probe) == first
        assert counting.steps == 1, probe  # the initial fold alone


def test_bottom_up_table_keeps_node_steps():
    e, probes = tree_instance(0)
    counting = CountingLinComb()
    table = en.tree_inductive_automaton(en.ESum(en.EVar(UNIT), e), counting).tabulated()
    first_binds = 0
    for probe in probes:
        counting.binds = 0
        first = table.weight(*probe)
        first_binds += counting.binds
        counting.binds = 0
        assert table.weight(*probe) == first
        assert counting.binds == 0, probe
    assert first_binds > 0


KEYED_BY_VARIABLES = [
    pytest.param(en.tree_derivation_automaton, True, id="True"),
    pytest.param(en.tree_derivation_automaton, False, id="False"),
    pytest.param(en.tree_inductive_automaton, True, id="inductive-True"),
    pytest.param(en.tree_inductive_automaton, False, id="inductive-False"),
]


@pytest.mark.parametrize("build, closed_first", KEYED_BY_VARIABLES)
def test_top_down_subtree_weights_are_keyed_by_variables(build, closed_first):
    # every tree over the alphabet, holes included, weighs 1 under UNIT; the
    # top-down table keys subtree weights by variables, and the bottom-up
    # (inductive) table keys node steps by the configurations holes read
    e = en.parse_tree_expression("(@h(()) + @g((),()) + @f(()) + @a + @b + @c)*()")
    trees = tree_probes(e, random.Random(0), 30, en.DEFAULT_TREE_ALPHABET)
    closed = [(t, ()) for t in trees]
    holed = [(with_hole(t), vs) for vs in [(UNIT,), ("x",)] for t in trees]
    auto = build(e, INT_LIN)
    table = auto.tabulated()
    for probe in closed + holed if closed_first else holed + closed:
        assert table.weight(*probe) == untabulated_weight(auto, *probe), probe


HARNESSES = [
    ("word", validate_words, [WordAutomaton]),
    ("tree", validate_trees, [TopDownContainerTA, BottomUpContainerTA]),
]


@pytest.mark.parametrize("kind, harness, classes", HARNESSES, ids=[h[0] for h in HARNESSES])
def test_the_harness_weighs_a_repeated_probe_once(monkeypatch, kind, harness, classes):
    weighed = []  # every automaton weighing, construction-time ones too
    for cls in classes:

        def weight(self, *args, _weight=cls.weight):
            weighed.append(args)
            return _weight(self, *args)

        monkeypatch.setattr(cls, "weight", weight)
    seen = []  # the probes of one construction of one instance, per list
    reached = []  # the weighings each harness call caused

    def watch(fn):
        probes = []
        seen.append(probes)

        def wrapped(probe):
            probes.append(probe)
            before = len(weighed)
            out = fn(probe)
            reached.append(len(weighed) - before)
            return out

        return wrapped

    kinds = ("word", "enriched") if kind == "word" else ("tree",)
    mutate = {
        f"{method}/{weights}": watch
        for (k, method), (_builder, accepted) in CONSTRUCTIONS.items()
        if k in kinds
        for weights in BOOL_INT
        if weights in accepted
    }
    report = harness(instances=6, probes=40, seed=3, mutate=mutate)
    assert report.ok
    assert seen and all(len(probes) == 40 for probes in seen)
    distinct = sum(len(set(probes)) for probes in seen)
    assert sum(reached) == distinct < 40 * len(seen)


def drawn_probes(seed, count):
    """The rendered probes the harnesses draw for one word and one tree
    expression from `seed`, each followed by one more language sample."""
    rng = random.Random(seed)
    palette = wx.SCALAR_OPS if seed % 2 else wx.SIMPLE_OPS
    e = wx.random_expression(0, 5, WORD_ALPHABET, palette, rng=rng)
    words = ["".join(w) for w in word_probes(e, rng, count, WORD_ALPHABET)]
    word = sample_word_from(e, rng, 10)
    t = en.random_tree_expression(0, 3, en.DEFAULT_TREE_ALPHABET, rng=rng)
    trees = [render(x) for x in tree_probes(t, rng, count, en.DEFAULT_TREE_ALPHABET)]
    tree = sample_tree_from(t, rng)
    return words, word and "".join(word), trees, tree and render(tree)


def test_the_probe_stream_is_pinned():
    assert drawn_probes(1, 6) == (
        ["abaaaccab", "abcacabbca", "acabb", "ba", "ba", "aa"],
        "aa",
        ["h(c)", "c", "c", "h(h(h(c)))", "g(h(c),h(c))", "g(h(c),h(c))"],
        "g(h(c),h(c))",
    )
    streams = repr([drawn_probes(seed, 40) for seed in range(8)])
    assert hashlib.sha256(streams.encode()).hexdigest() == (
        "5a37cabb5cb5c4012b3addcd5a2df30fdbcf10ec918984079559c25dff8c364a"
    )
