"""`tabulated()`: the same automaton over integer state ids, whose transition
rows are computed once.  Its weights must equal the untabulated weights on
the probes the harnesses draw, and each (symbol, state) row, variable
initialization and final weight must be computed exactly once.  A word
automaton's own `weight` reads through such a table, one per call."""

import itertools
import random
from dataclasses import replace

import pytest

from automonad import enriched as en
from automonad import wordexpr as wx
from automonad.algebra import HOLE, Node
from automonad.automata import WordAutomaton
from automonad.util import UNIT
from automonad.validate import INT_LIN, CONSTRUCTIONS, construct, tree_probes, word_probes

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
    e, _words = word_instance(0)
    table = wx.derivation_automaton(e, INT_LIN).tabulated()
    assert table.tabulated() is table
