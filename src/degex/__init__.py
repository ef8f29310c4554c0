"""Exact combinatorial workbench for expanded degenerations of K3 special
fibres and the dual complexes of their Hilbert-square degenerations.

All arithmetic is exact rational arithmetic; no floating point is used
anywhere in the library.
"""

__version__ = "0.1.0"

from fractions import Fraction as Rational

__all__ = ["Rational", "__version__", "parse_fraction"]


def parse_fraction(text) -> Rational:
    """Exact rational from a string such as "1/3" or an int; bad input is a
    ValueError.  A float or a bool is refused: JSON 0.1 would read as a
    binary fraction, and true as 1."""
    if isinstance(text, (bool, float)):
        raise ValueError(f"not an exact fraction: {text!r}; write it as a string such as '1/3'")
    try:
        return Rational(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except (TypeError, OverflowError):
        raise ValueError(f"not a fraction: {text!r}") from None
