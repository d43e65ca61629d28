import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from automonad import wordexpr as wx
from automonad.algebra import INTEGERS
from automonad.cli import (
    EXIT_CAPS,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    EXIT_WEIGHT,
    build_parser,
    main,
)
from automonad.validate import CONSTRUCTIONS, WEIGHTS, validate_trees, validate_words


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


class TestBuild:
    def test_derivation_bool_star_dot(self, capsys):
        assert main(["build", "word", "--method", "derivation", "--weights", "bool", "a*"]) == 0
        out = capsys.readouterr().out
        assert out.count("shape=doublecircle") == 2  # two accessible states
        assert "digraph" in out

    def test_positions_int_scalar(self, capsys):
        assert main(["build", "word", "--method", "positions", "--weights", "int", "[5]:a", "--format", "dump"]) == 0
        out = capsys.readouterr().out
        assert "--a--> 5·a1" in out

    def test_random_builds_are_byte_identical(self, capsys):
        args = ["build", "word", "--random", "42", "10", "--method", "positions"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_tree_build_dump(self, capsys):
        assert main(["build", "tree", "--method", "inductive", "--random", "3", "2", "--format", "dump"]) == 0
        out = capsys.readouterr().out
        assert "-->" in out

    def test_tree_build_dot(self, capsys):
        assert main(["build", "tree", "--method", "derivation", "--random", "3", "2"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_word_int_dot_golden(self, capsys):
        assert main(["build", "word", "--method", "derivation", "--weights", "int", "[2]:a*.b+a"]) == 0
        assert capsys.readouterr().out == (
            "expression: [2]:a*.b+a\n"
            "digraph automaton {\n"
            "  rankdir=LR;\n"
            "  node [shape=circle];\n"
            '  q0 [shape=doublecircle, label="1 | 1"];\n'
            '  q1 [shape=circle, label="1.a*.b"];\n'
            '  q2 [shape=circle, label="[2]:a*.b+a"];\n'
            '  __start0 [shape=point, label=""];\n'
            '  __start0 -> q2 [label="1"];\n'
            '  q1 -> q0 [label="b/1"];\n'
            '  q1 -> q1 [label="a/1"];\n'
            '  q2 -> q0 [label="a/1"];\n'
            '  q2 -> q0 [label="b/2"];\n'
            '  q2 -> q1 [label="a/2"];\n'
            "}\n"
        )

    def test_top_down_tree_int_dot_golden(self, capsys):
        argv = ["build", "tree", "--method", "derivation", "--weights", "int"]
        assert main(argv + ["(@a + @a) .() @g((),())"]) == 0
        assert capsys.readouterr().out == (
            "expression: ((@a + @a) .() @g((),()))\n"
            "digraph treeautomaton {\n"
            "  rankdir=TB;\n"
            "  node [shape=circle];\n"
            '  q0 [label="((@a+@a).() @g((),()))"];\n'
            '  q1 [label="@a"];\n'
            '  __start0 [shape=point, label=""];\n'
            '  __start0 -> q0 [label="1"];\n'
            '  t0 [shape=point, label=""];\n'
            '  q0 -> t0 [label="g/4"];\n'
            '  t0 -> q1 [label="1"];\n'
            '  t0 -> q1 [label="2"];\n'
            '  __acc1 [shape=point, label=""];\n'
            '  q1 -> __acc1 [label="a/1"];\n'
            "}\n"
        )

    def test_parse_error_exit_code(self, capsys):
        assert main(["build", "word", "a+)"]) == 2

    def test_unsupported_exit_code(self, capsys):
        assert main(["build", "word", "--method", "positions", "~a"]) == 3

    def test_cap_exceeded_exit_code(self, capsys):
        assert main(["build", "word", "--method", "derivation", "(a+b)*.a.(a+b)*", "--caps", "2"]) == 4


class TestWeight:
    def test_modular_membership(self, capsys):
        # (even and not mult-4) or mult-8 on "aa" via expression equivalent
        assert main(["weight", "word", "--method", "derivation", "(a.a)*&~(a.a.a.a)*+(a.a.a.a.a.a.a.a)*", "aa"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_epsilon_weight_of_star(self, capsys):
        assert main(["weight", "word", "--method", "derivation", "--weights", "int", "a*", ""]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_occurrence_count(self, capsys):
        subject = "g(g(g(a,f(b)),h(g(a,f(b)))),g(a,f(b)))"
        assert main(["weight", "tree", "--method", "occurrence", subject, "g(_,_)"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_tree_weight_by_method(self, capsys):
        assert main(["weight", "tree", "--method", "derivation", "@a .() @f(())", "f(a)"]) == 0
        assert capsys.readouterr().out.strip() == "true"


    def test_random_expression_source(self, capsys):
        argv = ["weight", "word", "-", "ab", "--random", "0", "12"]
        assert main(argv + ["--method", "derivation", "--weights", "int"]) == 0
        e = wx.random_expression(0, 12, "abc", wx.SIMPLE_OPS)
        expected = wx.brute_force_language(e, 2, INTEGERS).get(("a", "b"), 0)
        assert capsys.readouterr().out.strip() == str(expected)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["weight", "word", "--random", "0", "6", "ab"], "false"),
            (["weight", "word", "--random", "0", "6", "ba", "--weights", "int"], "3"),
        ],
    )
    def test_random_expression_needs_no_placeholder(self, argv, expected, capsys):
        # (b*+b.a).(a+a)* weighs "ba" 3 over the integers and rejects "ab"
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == expected

    @pytest.mark.parametrize("method", ["positions", "derivation", "inductive"])
    def test_tree_weights_agree_across_containers(self, method, capsys):
        # the boolexpr truth is the bool result, the genexpr value the int one
        for seed in range(8):
            for tree in ("a", "f(a)", "g(a,b)", "h(g(f(a),c))"):
                argv = ["weight", "tree", "--random", str(seed), "3", tree, "--method", method]
                out = {}
                for weights in WEIGHTS:
                    assert main(argv + ["--weights", weights]) == 0
                    out[weights] = capsys.readouterr().out
                assert out["boolexpr"] == out["bool"] and out["genexpr"] == out["int"]

    @pytest.mark.parametrize("palette", ["simple", "scalar"])
    def test_word_inductive_weights_agree_across_containers(self, palette, capsys):
        # the inductive construction weighs under every container too
        for seed in range(8):
            for word in ("", "a", "ab", "cab", "bcca"):
                argv = ["weight", "word", "--random", str(seed), "6", word]
                argv += ["--palette", palette, "--method", "inductive"]
                out = {}
                for weights in WEIGHTS:
                    assert main(argv + ["--weights", weights]) == 0
                    out[weights] = capsys.readouterr().out
                assert out["boolexpr"] == out["bool"] and out["genexpr"] == out["int"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["weight", "word", "--weights", "int", "(1+a)*", "a"],
            ["build", "word", "--weights", "int", "(1+a)*"],
        ],
    )
    def test_undefined_weight_exit_code(self, argv, capsys):
        assert main(argv) == EXIT_WEIGHT
        assert capsys.readouterr().err.startswith("undefined weight: ")

    @pytest.mark.parametrize("method", ["positions", "derivation", "inductive"])
    @pytest.mark.parametrize("weights, expected", [("int", "2000"), ("bool", "true")])
    def test_long_word(self, method, weights, expected, capsys):
        argv = ["weight", "word", "(a+b)*.a.b.(a+b)*", "ab" * 2000, "--method", method]
        assert main(argv + ["--weights", weights]) == 0
        assert capsys.readouterr().out.strip() == expected


METHODS = ("positions", "derivation", "inductive")
DOT_BUILDS = [("word", "12", m) for m in METHODS] + [("tree", "8", m) for m in METHODS]


@pytest.mark.parametrize("kind, size, method", DOT_BUILDS)
def test_dot_agrees_across_containers(kind, size, method, capsys):
    # one construction draws the same automaton under every container: the
    # expression containers' DOT is byte-identical to bool's and int's
    palettes = [["--palette", p] for p in ("simple", "scalar")] if kind == "word" else [[]]
    for seed in range(4):
        for palette in palettes:
            argv = ["build", kind, "--random", str(seed), size, *palette]
            argv += ["--method", method, "--caps", "200"]
            out = {}
            for weights in WEIGHTS:
                code = main(argv + ["--weights", weights])
                out[weights] = code, capsys.readouterr()
            assert {code for code, _ in out.values()} == {0}, argv
            assert out["boolexpr"] == out["bool"] and out["genexpr"] == out["int"], argv


BAD_ALPHABETS = [
    ["validate", "word", "--alphabet", ""],
    ["validate", "tree", "--alphabet", "a/x"],
    ["validate", "tree", "--alphabet", "f/1"],
    ["build", "word", "--random", "0", "5", "--alphabet", ""],
    ["random", "tree", "--alphabet", "a/0,g/-1"],
]


@pytest.mark.parametrize("argv", BAD_ALPHABETS)
def test_bad_alphabet_is_a_parse_error(argv, capsys):
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("parse error: ")


def _choices(command, dest):
    return next(a for a in build_parser().commands[command]._actions if a.dest == dest).choices


def test_parser_choices_are_the_registry_keys():
    registered = {(kind, method) for kind, method in CONSTRUCTIONS}
    assert set(_choices("build", "method")) == {
        m for k, m in registered if k in ("word", "tree")
    }
    assert set(_choices("weight", "method")) == {
        m for k, m in registered if k in ("word", "tree", "pattern")
    }
    for command in ("build", "weight"):
        assert set(_choices(command, "weights")) == set(WEIGHTS)


HOSTILE = [
    *BAD_ALPHABETS,
    ["weight", "word", "--weights", "int", "(1+a)*", "a"],
    ["build", "word", "--weights", "int", "(1+a)*"],
    ["weight", "word", "-", "ab", "--random", "0", "12", "--weights", "int"],
    ["weight", "tree", "--weights", "boolexpr", "@a", "a"],
    ["build", "tree", "--weights", "genexpr", "@a"],
    ["build", "word"],
    ["build", "word", "--method", "derivation", "(a+b)*.a.(a+b)*", "--caps", "2"],
]
DEEP_STAR = "a"
for _ in range(1200):
    DEEP_STAR = f"({DEEP_STAR})*"
# hostile argvs whose exit code is known exactly
EXITS = {
    ("build", "word", "--random", "0", "12", "--method", "derivation", "--weights", "genexpr", "--caps", "2000"): 0,
    ("weight", "word", DEEP_STAR, "a"): EXIT_PARSE,
    ("weight", "word", "a" + "*" * 1200, "a"): EXIT_PARSE,
    ("weight", "word", ".".join("a" * 500), "a"): EXIT_PARSE,
    ("weight", "word", "+".join("a" * 1000), "a"): EXIT_PARSE,
    ("weight", "tree", " + ".join(["@f(())"] * 1000), "f(a)"): EXIT_PARSE,
    ("random", "word", "--size", "-1"): 0,
    ("build", "word", "--random", "0", "-3"): 0,
    ("validate", "word", "--instances", "-3"): EXIT_PARSE,
    ("validate", "word", "--probes", "-5"): EXIT_PARSE,
    ("build", "word", "--caps", "-1", "a"): EXIT_PARSE,
    ("build", "word", "--caps", "0", "a"): EXIT_CAPS,
    ("weight", "tree", "--method", "occurrence", "_", "a"): EXIT_PARSE,
    ("weight", "tree", "--method", "occurrence", "g(_,a)", "a"): EXIT_PARSE,
    ("weight", "word", "[-]:a", "ab"): EXIT_PARSE,
    ("weight", "word", "[ ]:a", "ab"): EXIT_PARSE,
    ("weight", "tree", "--method", "occurrence", "g(_,_)"): EXIT_PARSE,
    ("build", "word", "--method", "inductive", "--weights", "genexpr", "a*"): 0,
    ("build", "word", "--method", "inductive", "--weights", "boolexpr", "~a"): EXIT_UNSUPPORTED,
}
HOSTILE += [list(argv) for argv in EXITS]
EXPRESSIONS = {"word": ("[2]:a*.b", "ab"), "tree": ("@a .() (@f(()))*()", "f(a)")}
PAIRS = [
    [command, kind, "--method", method, "--weights", weights]
    for command in ("build", "weight")
    for kind in ("word", "tree")
    for method in _choices(command, "method")
    for weights in _choices(command, "weights")
]


def _argv_id(argv):
    return " ".join(a if len(a) <= 40 else f"{a[:8]}...({len(a)} chars)" for a in argv)


@pytest.mark.parametrize("argv", HOSTILE + PAIRS, ids=_argv_id)
def test_no_traceback(argv, capsys):
    if argv in PAIRS:
        expression, item = EXPRESSIONS[argv[1]]
        argv = argv + ([expression] if argv[0] == "build" else [expression, item])
    code = main(argv)
    assert isinstance(code, int) and code in {0, 2, 3, 4, 5}
    assert code == EXITS.get(tuple(argv), code)


# hostile argvs as a property: the parser's own grammar with drawn values,
# and raw character soup.  No digits in the soup, and every drawn number is
# small; `build` and `validate` start from small bounds (a drawn flag after
# them wins), so each example takes milliseconds.
SOUP = st.text(" ()[]*+.&~:_@,/-=abfgé²\t", max_size=10)
SMALL = st.integers(-1, 3).map(str)
TEXTS = st.sampled_from(["a*", "[2]:a*.b", "(a+b)*.a", "ab", "", "@a .() (@f(()))*()", "f(a)", "g(_,a)"])
ALPHABETS = st.sampled_from(["ab", "a/0,f/1,g/2", "f/1", ""])
BOUNDS = {"build": ["--caps", "50"], "validate": ["--instances", "2", "--probes", "3"]}


def _value(action):
    if action.choices:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return SMALL
    return ALPHABETS if action.dest == "alphabet" else TEXTS | SOUP


@st.composite
def grammar_argvs(draw):
    """A subcommand's positionals in order, with drawn flags between them."""
    commands = build_parser().commands
    command = draw(st.sampled_from(list(commands)))
    positionals, flags = [], []
    for action in commands[command]._actions:
        arity = action.nargs if isinstance(action.nargs, int) else 1
        values = [draw(_value(action)) for _ in range(arity)]
        if not action.option_strings:
            if action.nargs != "?" or draw(st.booleans()):
                positionals.append(values)
        elif action.dest != "help" and draw(st.booleans()):
            flags.append([action.option_strings[-1], *values])
    slots = iter(positionals)
    order = draw(st.permutations([None] * len(positionals) + flags))
    return [command, *BOUNDS.get(command, []), *(t for flag in order for t in (flag or next(slots)))]


TOKENS = st.sampled_from(["build", "weight", "word", "tree", "-", "--", "-h", "--random", "--method", "--alphabet"])
SOUP_ARGVS = st.lists(TOKENS | SMALL | SOUP, max_size=8).map(
    lambda argv: argv[:1] + BOUNDS.get(argv[0] if argv else "", []) + argv[1:]
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(grammar_argvs(), grammar_argvs(), SOUP_ARGVS))
def test_hostile_argv_never_tracebacks(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and help
            code = exc.code
    assert code in {0, 2, 3, 4, 5}, argv
    assert "Traceback" not in err.getvalue()


# the deepest group, then the longest chain, that the parsers accept
DEEPEST_ACCEPTED = "(" * 99 + "a" + ")" * 99 + ".a" * 99
WORD_PAIRS = [(m, w) for (k, m), (_b, accepted) in CONSTRUCTIONS.items() if k == "word" for w in accepted]


@pytest.mark.parametrize("method, weights", WORD_PAIRS)
def test_deepest_accepted_expression_weighs(method, weights, capsys):
    argv = ["weight", "word", DEEPEST_ACCEPTED, "a" * 100, "--method", method, "--weights", weights]
    assert main(argv) == 0


class TestRandom:
    def test_seeded_determinism(self, capsys):
        assert main(["random", "word", "--seed", "5", "--size", "10"]) == 0
        first = capsys.readouterr().out
        assert main(["random", "word", "--seed", "5", "--size", "10"]) == 0
        assert first == capsys.readouterr().out

    def test_output_reparses(self, capsys):
        from automonad.wordexpr import parse_expression, expr_to_text

        for seed in ("1", "2", "3"):
            assert main(["random", "word", "--seed", seed, "--size", "8", "--palette", "scalar"]) == 0
            text = capsys.readouterr().out.strip()
            assert expr_to_text(parse_expression(text)) == text

    def test_tree_output_reparses(self, capsys):
        from automonad.enriched import parse_tree_expression, expression_to_text

        assert main(["random", "tree", "--seed", "9", "--size", "5"]) == 0
        text = capsys.readouterr().out.strip()
        assert expression_to_text(parse_tree_expression(text)) == text


class TestValidate:
    def test_small_run_passes(self, capsys):
        assert main(["validate", "word", "--instances", "4", "--probes", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")
        assert "seed 3" in out

    def test_tree_run_passes(self, capsys):
        assert main(["validate", "tree", "--instances", "3", "--probes", "8", "--seed", "3"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_zero_instances_trivially_pass(self, capsys):
        assert main(["validate", "word", "--instances", "0"]) == 0

    def test_injected_fault_is_caught(self):
        # flip one construction's weights: the harness must notice
        def sabotage(fn):
            def wrapped(w):
                out = fn(w)
                return not out if len(w) == 2 else out

            return wrapped

        report = validate_words(
            instances=6, probes=30, seed=1, mutate={"derivation/bool": sabotage}
        )
        assert not report.ok

    def test_injected_tree_fault_is_caught(self):
        def sabotage(fn):
            def wrapped(t):
                out = fn(t)
                return (out + 1) if isinstance(out, int) else out

            return wrapped

        report = validate_trees(
            instances=4, probes=20, seed=1, mutate={"inductive/int": sabotage}
        )
        assert not report.ok
