"""Cross-method validation: build every applicable construction from random
expressions and compare weights on random probes.

This is the library's referee: any clause bug in one construction shows up as
a weight disagreement against the others (and, for words, against the
brute-force language oracle).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import enriched as en
from . import treeauto as ta
from . import wordexpr as wx
from .algebra import BOOLEANS, INTEGERS, Node, RankedSymbol
from .containers import BOOL_EXPR, FINITE_SET, gen_expr, lin_comb
from .util import UnsupportedOperation, render

INT_LIN = lin_comb(INTEGERS)

# --weights name -> (container, type a word expression's scalars are
# coerced to before a "word" construction reads it, or None).
WEIGHTS = {
    "bool": (FINITE_SET, bool),
    "int": (INT_LIN, None),
    "boolexpr": (BOOL_EXPR, bool),
    "genexpr": (gen_expr(INTEGERS), None),
}
ANY, BOOL_INT = tuple(WEIGHTS), ("bool", "int")

# The construction registry: (kind, method) -> (builder, the --weights names
# it is built under).  `builder(expression, container)` returns an automaton,
# or raises UnsupportedOperation at an operator without a reading in the
# construction.  "word" and "tree" builders read word and tree expressions;
# "enriched" ones read a word expression lifted by `en.from_word_expression`
# (the word harness compares them with the "word" ones); "pattern" ones read
# a subject tree and count in the integers under any weights.  Each lambda
# looks its builder up when called, so a module attribute patched at runtime
# is the one that runs.
CONSTRUCTIONS = {
    ("word", "positions"): (lambda e, c: wx.position_automaton(e, c), ANY),
    ("word", "derivation"): (lambda e, c: wx.derivation_automaton(e, c), ANY),
    ("word", "inductive"): (lambda e, c: wx.inductive_automaton(e, c), ANY),
    ("enriched", "positions-rev"): (lambda e, c: en.word_position_automaton(e, c, "reversed"), ANY),
    ("enriched", "positions-fwd"): (lambda e, c: en.word_position_automaton(e, c, "forward"), ANY),
    ("enriched", "derivation-right"): (lambda e, c: en.word_derivation_automaton(e, c, "reversed"), ANY),
    ("enriched", "derivation-left"): (lambda e, c: en.word_derivation_automaton(e, c, "forward"), ANY),
    ("enriched", "inductive-enriched"): (lambda e, c: en.word_inductive_automaton(e, c), ("int",)),
    ("tree", "positions"): (lambda e, c: en.tree_position_automaton(e, c), ANY),
    ("tree", "derivation"): (lambda e, c: en.tree_derivation_automaton(e, c), ANY),
    ("tree", "inductive"): (lambda e, c: en.tree_inductive_automaton(e, c), ANY),
    ("pattern", "occurrence"): (lambda t, _c: ta.occurrence_automaton(t), ANY),
}


def methods(*kinds) -> list:
    """Method names registered for any of `kinds`, in registry order."""
    return list(dict.fromkeys(m for k, m in CONSTRUCTIONS if k in kinds))


def construct(kind: str, method: str, weights: str, e):
    """The automaton of construction (kind, method) for `e` under the
    --weights name `weights`.

    Raises UnsupportedOperation for a pair the registry does not hold, or
    when `e` has no reading in the construction."""
    try:
        builder, accepted = CONSTRUCTIONS[(kind, method)]
    except KeyError:
        raise UnsupportedOperation(f"unknown {kind} method {method!r}") from None
    if weights not in accepted:
        raise UnsupportedOperation(f"{kind} {method} takes {'|'.join(accepted)} weights")
    container, scalars = WEIGHTS[weights]
    if kind == "word" and scalars is not None:
        e = wx.coerce_scalars(e, scalars)
    return builder(e, container)


@dataclass
class Disagreement:
    instance: int
    expression: str
    probe: str
    left_name: str
    left_weight: Any
    right_name: str
    right_weight: Any

    def __str__(self):
        return (
            f"instance {self.instance} [{self.expression}] on {self.probe or 'ε'}: "
            f"{self.left_name}={render(self.left_weight)} vs "
            f"{self.right_name}={render(self.right_weight)}"
        )


@dataclass
class ValidationReport:
    kind: str
    seed: int
    instances: int
    probes: int
    comparisons: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"{status} {self.kind} validation: {self.instances} instances x "
            f"{self.probes} probes (seed {self.seed}), "
            f"{self.comparisons} comparisons, {len(self.failures)} disagreements"
        ]
        lines.extend(str(f) for f in self.failures[:10])
        return "\n".join(lines)


def _compare(report, instance, expr_text, probe_text, weights):
    names = list(weights)
    base = names[0]
    for other in names[1:]:
        report.comparisons += 1
        if weights[base] != weights[other]:
            report.failures.append(
                Disagreement(
                    instance,
                    expr_text,
                    probe_text,
                    base,
                    weights[base],
                    other,
                    weights[other],
                )
            )


def _compare_probes(report, instance, expr_text, builders, probes, probe_text):
    """Compare the "method/bool" weight functions among themselves on each
    probe, the "method/int" ones likewise, and boolean against integer
    membership."""
    bool_names = [n for n in builders if n.endswith("/bool")]
    int_names = [n for n in builders if n.endswith("/int")]
    for probe in probes:
        text = probe_text(probe)
        bool_weights = {n: bool(builders[n](probe)) for n in bool_names}
        _compare(report, instance, expr_text, text, bool_weights)
        int_weights = {n: builders[n](probe) for n in int_names}
        _compare(report, instance, expr_text, text, int_weights)
        member = {
            "bool": bool_weights[bool_names[0]],
            "int-nonzero": int_weights[int_names[0]] != 0,
        }
        _compare(report, instance, expr_text, text, member)


def sample_word_from(e, rng: random.Random, max_len: int = 10):
    """Draw a word from the expression's language by following random
    derivatives; None when sampling dead-ends."""
    state = e
    out = []
    symbols = sorted(set(wx.symbols_of(e)), key=render)
    for _ in range(max_len):
        if wx.nullable(state, BOOLEANS) and rng.random() < 0.4:
            return tuple(out)
        rng.shuffle(symbols)
        for sym in symbols:
            d = wx.monadic_derive(sym, state, FINITE_SET)
            if d:
                state = wx.aci_normalize(rng.choice(sorted(d, key=render)), BOOLEANS)
                out.append(sym)
                break
        else:
            break
    return tuple(out) if wx.nullable(state, BOOLEANS) else None


def word_probes(e, rng: random.Random, count: int, alphabet, max_len: int = 10):
    """Half uniform random words, half language samples."""
    probes = []
    for _ in range(count // 2):
        probes.append(wx.random_word(rng, alphabet, max_len))
    for _ in range(count - len(probes)):
        w = sample_word_from(e, rng, max_len)
        probes.append(w if w is not None else wx.random_word(rng, alphabet, max_len))
    return probes


def _constructions(kind, e, mutate: dict | None) -> dict:
    """Every registered construction of `kind` under boolean and integer
    weights, as "method/weights" -> weight function.  Each weighs through
    the automaton's `tabulated()` transition table, so a (symbol, state)
    transition is computed once per instance however many probes reach it."""
    builders: dict = {}
    for weights in BOOL_INT:
        for (k, method), (_builder, accepted) in CONSTRUCTIONS.items():
            if k != kind or weights not in accepted:
                continue
            name = f"{method}/{weights}"
            fn = construct(kind, method, weights, e).tabulated().weight
            if mutate and name in mutate:
                fn = mutate[name](fn)
            builders[name] = fn
    return builders


def word_constructions(e, include_enriched: bool, mutate: dict | None = None) -> dict:
    """All applicable word constructions, as name -> weight function."""
    builders = _constructions("word", e, mutate)
    if include_enriched:
        builders.update(_constructions("enriched", en.from_word_expression(e), mutate))
    return builders


def validate_words(
    instances: int = 100,
    probes: int = 100,
    seed: int = 0,
    alphabet: Sequence = ("a", "b", "c"),
    mutate: dict | None = None,
) -> ValidationReport:
    """Cross-method word harness over random expressions of 5 operators:
    boolean weights must agree across all constructions, integer weights
    across all weighted ones."""
    report = ValidationReport("word", seed, instances, probes)
    rng = random.Random(seed)
    for i in range(instances):
        simple = i % 2 == 0
        palette = wx.SIMPLE_OPS if simple else wx.SCALAR_OPS
        e = wx.random_expression(0, 5, alphabet, palette, rng=rng)
        text = wx.expr_to_text(e)
        builders = word_constructions(e, include_enriched=simple, mutate=mutate)
        _compare_probes(
            report, i, text, builders, word_probes(e, rng, probes, alphabet),
            lambda w: "".join(str(s) for s in w),
        )
    return report


def random_probe_tree(rng: random.Random, alphabet, max_depth: int = 5):
    nullary = [s for s in alphabet if s.arity == 0]

    def grow(depth):
        if depth >= max_depth or rng.random() < 0.35:
            return Node(rng.choice(nullary))
        sym = rng.choice(list(alphabet))
        return Node(sym, tuple(grow(depth + 1) for _ in range(sym.arity)))

    return grow(0)


def sample_tree_from(e, rng: random.Random):
    """Grow a tree accepted by the finite-set derivation automaton,
    top-down; None past depth 6."""
    alphabet = sorted(
        {a.symbol for a in en.atoms_of(e)}, key=lambda s: (s.arity, s.name)
    )

    def grow(expr, depth):
        if depth > 6:
            return None
        symbols = list(alphabet)
        rng.shuffle(symbols)
        for sym in symbols:
            d = en.enriched_derive(sym, expr, FINITE_SET)
            options = FINITE_SET.support(d)
            if not options:
                continue
            vect = rng.choice(sorted(options, key=render))
            children = []
            for sub in vect:
                child = grow(en.aci_normalize(sub, BOOLEANS), depth + 1)
                if child is None:
                    break
                children.append(child)
            else:
                return Node(sym, tuple(children))
        return None

    return grow(en.aci_normalize(e, BOOLEANS), 0)


def tree_probes(e, rng: random.Random, count: int, alphabet, max_depth: int = 5):
    probes = []
    for _ in range(count // 2):
        probes.append(random_probe_tree(rng, alphabet, max_depth))
    for _ in range(count - len(probes)):
        t = sample_tree_from(e, rng)
        probes.append(t if t is not None else random_probe_tree(rng, alphabet, max_depth))
    return probes


def tree_constructions(e, mutate: dict | None = None) -> dict:
    """All tree constructions, as name -> weight function."""
    return _constructions("tree", e, mutate)


def validate_trees(
    instances: int = 100,
    probes: int = 100,
    seed: int = 0,
    alphabet: Sequence[RankedSymbol] = en.DEFAULT_TREE_ALPHABET,
    mutate: dict | None = None,
) -> ValidationReport:
    """Cross-method tree harness over random expressions of size 3:
    derivation-TD, position-TD and inductive-BU must give equal weights."""
    report = ValidationReport("tree", seed, instances, probes)
    rng = random.Random(seed)
    for i in range(instances):
        e = en.random_tree_expression(0, 3, alphabet, rng=rng)
        text = en.expression_to_text(e)
        builders = tree_constructions(e, mutate=mutate)
        _compare_probes(
            report, i, text, builders, tree_probes(e, rng, probes, alphabet), render
        )
    return report
