"""Exact combinatorial workbench for expanded degenerations of K3 special
fibres and the dual complexes of their Hilbert-square degenerations.

All arithmetic is exact rational arithmetic; no floating point is used
anywhere in the library.
"""

__version__ = "0.1.0"

from fractions import Fraction as Rational

__all__ = ["Rational", "__version__", "parse_fraction"]


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
