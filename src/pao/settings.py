"""Settings readers: how a number, a name, a sequence or a config field is
read and checked, and the domains a setting may declare.  Every config field,
run argument and record count is read here, so a bad value is refused with
the same message wherever it enters."""

import math
import numbers
from dataclasses import field, fields, is_dataclass

import numpy as np


def to_float(what, value, domain=None, strings=False) -> float:
    """``value`` as a finite float in ``domain`` (a key of ``_DOMAINS``, or
    None for any).  A bool, None or other non-number, NaN or an infinity
    raises naming ``what``; where ``strings``, numeric text passes."""
    if not isinstance(value, bool) and isinstance(value, (numbers.Real, str) if strings else numbers.Real):
        try:
            value = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if not math.isfinite(value):
                raise ValueError(f"{what} must be finite, got {value}")
            return _in_domain(what, value, domain)
    raise ValueError(f"{what}: {value!r} is not a number")


def to_name(what, value) -> str:
    """``value``, a string, stripped and lower-cased; anything else raises
    naming ``what``."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value.strip().lower()


def to_choice(what, value, choices) -> str:
    """``value`` read by :func:`to_name`, which must be one of ``choices``;
    anything else raises naming ``what``."""
    name = to_name(what, value)
    if name not in choices:
        raise ValueError(f"{what} must be one of {choices}, got {value!r}")
    return name


def to_items(what, value) -> tuple:
    """``value``, a sequence other than a string, as a tuple; anything else
    raises naming ``what``."""
    if isinstance(value, str) or not np.iterable(value):
        raise ValueError(f"{what} must be a sequence, got {value!r}")
    return tuple(value)


def to_int(what, value, domain=None) -> int:
    """``value`` as an int in ``domain``, as for :func:`to_float`; an
    integral float such as 2.0 passes, 2.7 and ``True`` do not."""
    try:
        integral = not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return _in_domain(what, int(value), domain)


# domain -> test a read value must pass
_DOMAINS = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 2**64)": lambda v: 0 <= v < 1 << 64,
}


def _in_domain(what, value, domain):
    if domain is not None and not _DOMAINS[domain](value):
        raise ValueError(f"{what} must be {domain}, got {value}")
    return value


def setting(default, domain):
    """A dataclass field whose values :func:`read_fields` checks: ``domain``
    is a key of ``_DOMAINS`` (such as ``"> 0"`` or ``"in [0, 1]"``), or a
    tuple of the allowed names."""
    return field(default=default, metadata={"domain": domain})


def read_fields(obj, prefix=""):
    """Read every init field of the dataclass ``obj`` in place by its type: a
    number by :func:`to_int`/:func:`to_float` in its :func:`setting` domain, a
    tuple by :func:`to_items`, a name by :func:`to_choice` in its tuple domain;
    a dataclass field must hold its type.  Errors name ``prefix`` + field name."""
    for f in (f for f in fields(obj) if f.init):
        label, value = prefix + f.name, getattr(obj, f.name)
        domain = f.metadata.get("domain")
        if f.type in (int, float):
            value = (to_int if f.type is int else to_float)(label, value, domain)
        elif f.type is tuple:
            value = to_items(label, value)
        elif domain is not None:
            value = to_choice(label, value, domain)
        elif is_dataclass(f.type) and not isinstance(value, f.type):
            raise ValueError(f"{label} must be a {f.type.__name__}, got {value!r}")
        object.__setattr__(obj, f.name, value)
