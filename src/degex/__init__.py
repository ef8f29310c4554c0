"""Exact combinatorial workbench for expanded degenerations of K3 special
fibres and the dual complexes of their Hilbert-square degenerations.

All arithmetic is exact rational arithmetic; no floating point is used
anywhere in the library.
"""

__version__ = "0.1.0"

from fractions import Fraction as Rational
from json.encoder import encode_basestring_ascii as _quote

__all__ = ["Rational", "__version__", "dumps", "parse_fraction"]

_CONSTANTS = {True: "true", False: "false", None: "null"}


def parse_fraction(text, source: str) -> Rational:
    """Exact rational from a string such as "1/3" or an int; bad input is a
    ValueError that names `source`, the option or field the text came from.
    A float or a bool is refused: JSON 0.1 would read as a binary fraction,
    and true as 1."""
    if isinstance(text, (bool, float)):
        raise ValueError(
            f"{source}: not an exact fraction: {text!r}; write it as a string such as '1/3'"
        )
    try:
        return Rational(text)
    except ZeroDivisionError:
        raise ValueError(f"{source}: zero denominator in {text!r}") from None
    except (ValueError, TypeError, OverflowError):
        raise ValueError(f"{source}: not a fraction: {text!r}") from None


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for the
    values a report holds: str-keyed dicts, lists, tuples, str, int, bool and
    None; anything else, a float included, is a TypeError.  The standard
    library drops its C encoder whenever ``indent`` is set; this one walk
    takes about half its time on the big reports and exports."""
    parts: list[str] = []
    append = parts.append

    def write(o, newline: str) -> None:
        t = type(o)
        if t is str:
            append(_quote(o))
        elif t is int:
            append(int.__repr__(o))
        elif t is bool or o is None:
            append(_CONSTANTS[o])
        elif t is dict:
            inner = newline + "  "
            sep = "{" + inner
            for key in sorted(o):
                if type(key) is not str:
                    raise TypeError(f"report key of type {type(key).__name__}: {key!r}")
                append(sep + _quote(key) + ": ")
                write(o[key], inner)
                sep = "," + inner
            append(newline + "}" if o else "{}")
        elif t is list or t is tuple:
            inner = newline + "  "
            sep = "[" + inner
            for item in o:
                append(sep)
                write(item, inner)
                sep = "," + inner
            append(newline + "]" if o else "[]")
        else:
            raise TypeError(f"report value of type {t.__name__}: {o!r}")

    write(obj, "\n")
    return "".join(parts)
