"""Argument-validation helpers.

Keeps the "must be one of" error message the same across the parsers and
keeps constructors flat (an early ``raise`` per invalid argument, then the
happy path).
"""

from __future__ import annotations

from typing import Any, Sequence


def check_choice(name: str, value: Any, choices: Sequence[Any]) -> Any:
    """Raise :class:`ValueError` unless ``value`` is one of ``choices``."""
    if value not in choices:
        options = ", ".join(repr(c) for c in choices)
        raise ValueError(f"{name} must be one of {options}; got {value!r}")
    return value


def check_fixed(what: str, values: dict, fixed: dict) -> None:
    """Raise :class:`ValueError` unless every key of ``fixed`` that ``values``
    carries holds the value ``fixed`` gives it: how a setting that is now a
    constant is read from a request or snapshot an earlier version wrote."""
    for name, value in fixed.items():
        if name in values and values[name] != value:
            raise ValueError(f"{what}.{name} is fixed at {value}; got {values[name]!r}")
