import argparse
import io
import sys

import pytest

from automonad import wordexpr as wx
from automonad.algebra import INTEGERS
from automonad.cli import (
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

    @pytest.mark.parametrize("command", ["build", "weight"])
    @pytest.mark.parametrize("weights", ["boolexpr", "genexpr"])
    def test_tree_weights_checked_by_both_subcommands(self, command, weights, capsys):
        argv = [command, "tree", "@a .() @f(())", "--weights", weights]
        if command == "weight":
            argv.insert(3, "f(a)")
        assert main(argv) == EXIT_UNSUPPORTED

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
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


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
EXPRESSIONS = {"word": ("[2]:a*.b", "ab"), "tree": ("@a .() (@f(()))*()", "f(a)")}
PAIRS = [
    [command, kind, "--method", method, "--weights", weights]
    for command in ("build", "weight")
    for kind in ("word", "tree")
    for method in _choices(command, "method")
    for weights in _choices(command, "weights")
]


@pytest.mark.parametrize("argv", HOSTILE + PAIRS, ids=" ".join)
def test_no_traceback(argv, capsys):
    if argv in PAIRS:
        expression, item = EXPRESSIONS[argv[1]]
        argv = argv + ([expression] if argv[0] == "build" else [expression, item])
    code = main(argv)
    assert isinstance(code, int) and code in {0, 2, 3, 4, 5}


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
