"""Shared plumbing: canonical rendering, sum-type tags, error types and the
scanner that reads every input text (expressions, trees and alphabets)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class WeightError(ValueError):
    """A semiring operation is undefined for the given weight (e.g. star)."""


class UnsupportedOperation(ValueError):
    """The requested construction/container combination is not supported."""


class ExprSyntaxError(ValueError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Deepest nesting of parentheses, unary operators and binary chain operands
# (and of tree children and atom variables) that the parsers accept.  Deeper
# input is an ExprSyntaxError: the parsers and the folds over what they build
# recurse once or more per level.
MAX_NESTING = 100


class Scanner:
    """Recursive-descent plumbing shared by every parser of input text.

    Subclasses define `expr()`.  `nest()` enters one level of nesting and
    fails past MAX_NESTING; a construct that ends a nesting restores the
    `depth` it started at.  Each operand after the first of a binary chain
    is one level deeper (`chained()`), as it is in the left-nested tree the
    chain folds into."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nest(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"expression nested too deeply (more than {MAX_NESTING} levels)")

    def group(self):
        """A parenthesized `expr()`, one level deeper than its context."""
        start = self.depth
        self.eat("(")
        self.nest()
        e = self.expr()
        self.eat(")")
        self.depth = start
        return e

    def listed(self, item):
        """`(item, ..., item)` as a list, one level deeper than its context."""
        start = self.depth
        self.eat("(")
        self.nest()
        items = [item()]
        while self.peek() == ",":
            self.pos += 1
            items.append(item())
        self.eat(")")
        self.depth = start
        return items

    def name(self, extra: str) -> str:
        """Letters, digits and the characters of `extra`, at least one."""
        name = self.span(lambda ch: ch.isalnum() or ch in extra)
        if not name:
            self.error("expected a name")
        return name

    def digits(self, what: str) -> int:
        """A non-negative integer in ASCII digits: `str.isdigit` passes
        `²`, which `int` refuses."""
        digits = self.span(lambda ch: ch in "0123456789")
        if not digits:
            self.error(f"expected {what}")
        return int(digits)

    def span(self, accepts) -> str:
        """The longest text ahead, after whitespace, whose characters all
        satisfy `accepts`."""
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and accepts(self.text[self.pos]):
            self.pos += 1
        return self.text[start : self.pos]

    def chained(self, operator: str) -> bool:
        """Eat `operator` if it comes next, entering the nesting level of
        the chain operand after it; the chain restores its start `depth`."""
        if self.peek() != operator:
            return False
        self.pos += 1
        self.nest()
        return True

    def parse(self):
        e = self.expr()
        if self.peek():
            self.error(f"unexpected {self.peek()!r}")
        return e


class CapExceeded(RuntimeError):
    """An exploration budget was exhausted."""


def render(value: Any) -> str:
    """Canonical text form of a value, used for sorting, DOT labels and dumps.

    Determinism matters more than beauty here: every state ordering in the
    package goes through this function, so it must not depend on hash seeds.
    A package class gives its text through `__str__`; only the builtins whose
    `str` is not canonical are special-cased here, subclasses included.
    """
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "#"
    if isinstance(value, tuple):
        return "(" + ",".join(render(v) for v in value) + ")"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(render(v) for v in value)) + "}"
    return str(value)


@dataclass(frozen=True)
class Inl:
    """Left injection into a disjoint sum of state spaces."""

    value: Any

    def __str__(self):
        return f"L:{render(self.value)}"


@dataclass(frozen=True)
class Inr:
    """Right injection into a disjoint sum of state spaces."""

    value: Any

    def __str__(self):
        return f"R:{render(self.value)}"


class _Unit:
    """The one-element type; the sole variable of word-shaped expressions."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "()"

    def __reduce__(self):
        return (_Unit, ())


UNIT = _Unit()
