"""Batch command line: build automata, query weights, run the validation
harnesses, generate random expressions.

Exit codes: 0 success (validate: all pass), 1 validation failure, 2 parse
error (expressions, trees and alphabets), 3 unsupported: an expression
without a reading in the method (`~a` for `positions`, `~` for `inductive`
under `boolexpr` or `genexpr`) or a method of another kind (`weight word
--method occurrence`), 4 exploration cap exceeded, 5 undefined weight (e.g.
the star of a nullable expression over the integers).
"""

from __future__ import annotations

import argparse
import sys

from . import enriched as en
from . import wordexpr as wx
from .algebra import RankedSymbol, parse_tree
from .automata import DEFAULT_MAX_STATES, WordAutomaton, explore, to_dot
from .treeauto import TopDownContainerTA, td_explore, td_to_dot, tree_explore, tree_to_dot
from .util import CapExceeded, ExprSyntaxError, UNIT, UnsupportedOperation, WeightError, render
from .validate import CONSTRUCTIONS, WEIGHTS, construct, methods, validate_trees, validate_words

EXIT_FAIL, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_CAPS, EXIT_WEIGHT = 1, 2, 3, 4, 5

PALETTES = {"simple": wx.SIMPLE_OPS, "scalar": wx.SCALAR_OPS, "boolean": wx.BOOLEAN_OPS}
DEFAULT_ALPHABETS = {"word": "abc", "tree": "a/0,b/0,c/0,f/1,h/1,g/2"}


def _parse_word_alphabet(text: str):
    if not text:
        raise ExprSyntaxError("empty alphabet", 0)
    return list(text)


def _parse_tree_alphabet(text: str):
    symbols = []
    position = 0
    for part in text.split(","):
        name, _, arity = part.partition("/")
        if not name.strip() or not arity.strip().isdigit():
            raise ExprSyntaxError(f"expected name/arity, got {part!r}", position)
        symbols.append(RankedSymbol(name.strip(), int(arity)))
        position += len(part) + 1
    if not any(s.arity == 0 for s in symbols):
        raise ExprSyntaxError("a tree alphabet needs a nullary symbol", 0)
    return symbols


def _expression(args):
    """The word or tree expression that `args` gives as text or --random."""
    if args.random is not None:
        seed, size = args.random
        if args.kind == "word":
            return wx.random_expression(seed, size, args.alphabet, PALETTES[args.palette])
        return en.random_tree_expression(seed, size, args.alphabet)
    if args.expression is None:
        raise ExprSyntaxError("no expression given (pass one, or --random SEED SIZE)", 0)
    if args.kind == "word":
        return wx.parse_expression(args.expression)
    return en.parse_tree_expression(args.expression, args.alphabet)


def _explored(auto, alphabet, caps: int):
    """Explore `auto` with the explorer of its type; returns the result and
    its DOT writer, or raises CapExceeded when the state cap bites."""
    if isinstance(auto, WordAutomaton):
        result, dot = explore(auto, alphabet, max_states=caps), to_dot
    elif isinstance(auto, TopDownContainerTA):
        result, dot = td_explore(auto, alphabet, max_states=caps), td_to_dot
    else:
        result, dot = tree_explore(auto, alphabet, max_states=caps), tree_to_dot
    if result.truncated:
        raise CapExceeded(f"state cap {caps} exceeded", partial=result)
    return result, dot


def cmd_build(args) -> int:
    if args.caps < 0:
        raise ExprSyntaxError("--caps must not be negative", 0)
    e = _expression(args)
    auto = construct(args.kind, args.method, args.weights, e)
    result, dot = _explored(auto, args.alphabet, args.caps)
    text = wx.expr_to_text(e) if args.kind == "word" else en.expression_to_text(e)
    print(f"expression: {text}")
    if args.format == "dot":
        sys.stdout.write(dot(result))
    else:
        print(result.dump())
    return 0


def cmd_weight(args) -> int:
    if args.kind == "tree" and ("pattern", args.method) in CONSTRUCTIONS:
        # the expression argument is the subject tree the pattern is sought in
        if args.expression is None:
            raise ExprSyntaxError("no subject tree given", 0)
        subject = parse_tree(args.expression, args.alphabet)
        if subject.arity():
            raise ExprSyntaxError("the subject tree must have no holes", 0)
        auto = construct("pattern", args.method, args.weights, subject)
    else:
        auto = construct(args.kind, args.method, args.weights, _expression(args))
    if args.kind == "word":
        print(render(auto.weight(args.input)))
    else:
        tree = parse_tree(args.input, args.alphabet)
        print(render(auto.weight(tree, (UNIT,) * tree.arity())))
    return 0


def cmd_validate(args) -> int:
    if args.instances < 0 or args.probes < 0:
        raise ExprSyntaxError("--instances and --probes must not be negative", 0)
    if args.kind == "word":
        report = validate_words(
            instances=args.instances,
            probes=args.probes,
            seed=args.seed,
            alphabet=args.alphabet,
        )
    else:
        report = validate_trees(
            instances=args.instances,
            probes=args.probes,
            seed=args.seed,
            alphabet=args.alphabet,
        )
    print(report.summary())
    return 0 if report.ok else EXIT_FAIL


def cmd_random(args) -> int:
    if args.kind == "word":
        e = wx.random_expression(args.seed, args.size, args.alphabet, PALETTES[args.palette])
        print(wx.expr_to_text(e))
    else:
        e = en.random_tree_expression(args.seed, args.size, args.alphabet)
        print(en.expression_to_text(e))
    return 0


def _add_common(parser):
    parser.add_argument("kind", choices=("word", "tree"))
    parser.add_argument("--alphabet", default=None, help="word letters or name/arity pairs")
    parser.add_argument("--seed", type=int, default=0)


def _add_expression_source(parser, **expression):
    """The expression positional with --random and --palette, its alternative."""
    parser.add_argument("expression", **expression)
    parser.add_argument("--random", nargs=2, type=int, metavar=("SEED", "SIZE"))
    parser.add_argument("--palette", default="simple", choices=list(PALETTES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="automonad",
        description="Effect-container automata: build, weigh, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an automaton and print it")
    _add_common(p)
    _add_expression_source(p, nargs="?", help="expression text")
    p.add_argument("--method", default="derivation", choices=methods("word", "tree"))
    p.add_argument("--weights", default="bool", choices=list(WEIGHTS))
    p.add_argument("--caps", type=int, default=DEFAULT_MAX_STATES)
    p.add_argument("--format", default="dot", choices=["dot", "dump"])
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("weight", help="weight of a word or tree")
    _add_common(p)
    _add_expression_source(p, nargs="?", help="expression text (or subject tree for occurrence)")
    p.add_argument("input", help="word, or tree in name(child,...) form")
    p.add_argument("--method", default="derivation", choices=methods("word", "tree", "pattern"))
    p.add_argument("--weights", default="bool", choices=list(WEIGHTS))
    p.set_defaults(fn=cmd_weight)

    p = sub.add_parser("validate", help="cross-method comparison harness")
    _add_common(p)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--probes", type=int, default=100)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("random", help="print a random expression")
    _add_common(p)
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--palette", default="simple", choices=list(PALETTES))
    p.set_defaults(fn=cmd_random)

    parser.commands = sub.choices  # subcommand parsers by name, for `main`
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # a subcommand parses its own arguments intermixed, so positionals may
    # follow flags (`build word --method x "a*"`); anything else is left to
    # the top-level parser's usage error or help
    command = parser.commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_intermixed_args(argv[1:])
    try:
        text = DEFAULT_ALPHABETS[args.kind] if args.alphabet is None else args.alphabet
        parse_alphabet = _parse_word_alphabet if args.kind == "word" else _parse_tree_alphabet
        args.alphabet = parse_alphabet(text)
        return args.fn(args)
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedOperation as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except WeightError as exc:
        print(f"undefined weight: {exc}", file=sys.stderr)
        return EXIT_WEIGHT


if __name__ == "__main__":
    sys.exit(main())
