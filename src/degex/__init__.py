"""Exact combinatorial workbench for expanded degenerations of K3 special
fibres and the dual complexes of their Hilbert-square degenerations.

All arithmetic is exact rational arithmetic; no floating point is used
anywhere in the library.
"""

__version__ = "0.1.0"

from fractions import Fraction as Rational

__all__ = ["Rational", "__version__", "parse_fraction"]


def parse_fraction(text) -> Rational:
    """Exact rational from input such as "1/3"; bad input is a ValueError."""
    try:
        return Rational(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except (TypeError, OverflowError):
        raise ValueError(f"not a fraction: {text!r}") from None
