"""The declared-type check each configuration dataclass runs first, shared by
the JSON loader and Python callers; each class adds its own range rules."""

from __future__ import annotations

import dataclasses
import functools
import numbers
import sys
import typing

__all__ = ["FieldError", "check_fields"]


class FieldError(ValueError):
    """A field holding a value of the wrong kind, named first in the message."""


def check_fields(obj) -> None:
    """Raise FieldError for the first field of the dataclass obj whose value
    is not of its declared type: an int is integral and a float finite,
    neither a bool; a bool is a bool; a tuple[...] is a tuple or list of its
    length, each item of its own type; a dataclass field holds that class."""
    for name, tp in _hints(type(obj)):
        reason = _mismatch(tp, getattr(obj, name))
        if reason:
            raise FieldError(f"{name}: {reason}")


@functools.cache
def _hints(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _finite(value: numbers.Real) -> bool:
    # an integer compares exactly, so one beyond float range fails cleanly
    exact = value if isinstance(value, numbers.Integral) else float(value)
    return abs(exact) <= sys.float_info.max


def _mismatch(tp, value) -> str | None:
    """Why value is not of type tp, or None when it is."""
    if tp is bool:
        ok, wanted = isinstance(value, bool), "true or false"
    elif tp is int or tp is float:
        ok, wanted = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                      and _finite(value)), "a finite number"
        if ok and tp is int:
            ok, wanted = isinstance(value, numbers.Integral), "an integer"
    elif typing.get_origin(tp) is tuple:
        items = typing.get_args(tp)
        if isinstance(value, (tuple, list)) and len(value) == len(items):
            return next(filter(None, map(_mismatch, items, value)), None)
        ok, wanted = False, f"a list or tuple of {len(items)}"
    elif dataclasses.is_dataclass(tp):
        ok, wanted = isinstance(value, tp), f"a {tp.__name__}"
    else:
        raise TypeError(f"no check for the declared type {tp!r}")
    if ok:
        return None
    big = isinstance(value, numbers.Integral) and not _finite(value)
    return f"expected {wanted}, got {'an integer beyond float range' if big else repr(value)}"
