"""Argument-validation helper.

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
