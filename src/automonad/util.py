"""Shared plumbing: canonical rendering, sum-type tags, error types."""

from __future__ import annotations

from dataclasses import dataclass
from functools import singledispatch
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


class CapExceeded(RuntimeError):
    """An exploration budget was exhausted; carries the partial result."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@singledispatch
def render(value: Any) -> str:
    """Canonical text form of a value, used for sorting, DOT labels and dumps.

    Determinism matters more than beauty here: every state ordering in the
    package goes through this function, so it must not depend on hash seeds.
    """
    return str(value)


@render.register(bool)
def _render_bool(value):
    return "true" if value else "false"


@render.register(type(None))
def _render_none(_value):
    return "#"


@render.register(str)
def _render_str(value):
    return value


@render.register(frozenset)
def _render_frozenset(value):
    return "{" + ",".join(sorted(render(v) for v in value)) + "}"


@render.register(tuple)
def _render_tuple(value):
    return "(" + ",".join(render(v) for v in value) + ")"


@dataclass(frozen=True)
class Inl:
    """Left injection into a disjoint sum of state spaces."""

    value: Any


@dataclass(frozen=True)
class Inr:
    """Right injection into a disjoint sum of state spaces."""

    value: Any


@render.register(Inl)
def _render_inl(value):
    return f"L:{render(value.value)}"


@render.register(Inr)
def _render_inr(value):
    return f"R:{render(value.value)}"


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


@render.register(_Unit)
def _render_unit(_value):
    return "()"
