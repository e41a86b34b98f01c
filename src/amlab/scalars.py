"""Scalar handling for the two arithmetic modes.

Every computation in the library runs either over exact rationals
(`fractions.Fraction`, the default) or over floats with an explicit
tolerance.  Rationals serialize as "p/q" strings so that JSON round-trips
are lossless.

This module and `BasisSpace.eps` own the mode decision.  Here coerce,
clear_denominators and unscale take the mode; elsewhere a space's eps
(scalar(0) in rational mode, tol in float mode) is the test, as "weighted
norm <= eps" for zero and as the elimination threshold.  Only what must be
a proof tests the mode itself (integer-only certificates, generating-set
closures, the trace-form diagonal and the routes of classify_maps built on
them), since float mode at tolerance 0 has eps == 0.0 but rounded tables.
"""

import math
import reprlib
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

DEFAULT_FLOAT_TOL = 1e-9


class SchemaError(ValueError):
    """Malformed input data: bad JSON shape, unknown labels, bad indices."""


def check_mode(mode):
    if mode not in MODES:
        raise SchemaError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def check_tol(tol):
    """The tolerance as a float; negative, NaN or infinite values are rejected."""
    try:
        tol = float(tol)
    except (TypeError, ValueError):
        raise SchemaError(f"tolerance must be a number, got {tol!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise SchemaError(f"tolerance must be finite and non-negative, got {tol!r}")
    return tol


def clear_denominators(mode, *tables):
    """(D, *cleared): the tables with one common denominator D cleared.

    A table is a dict {key: {index: scalar}} or a list of such rows.  In
    rational mode every entry is multiplied by the lcm D of all the tables'
    denominators, which turns it into an int: a product of n scaled entries
    is D^n times the true product, so two sums of such products of equal
    length agree in ints exactly when they agree over the rationals.  In
    float mode D is 1 and the tables come back unchanged.
    """
    if mode != RATIONAL:
        return (1, *tables)
    rows = [row for table in tables
            for row in (table.values() if isinstance(table, dict) else table)]
    scale = math.lcm(*{c.denominator for row in rows for c in row.values()})

    def cleared(row):
        return {k: c.numerator * (scale // c.denominator) for k, c in row.items()}

    return (scale, *({key: cleared(row) for key, row in table.items()}
                     if isinstance(table, dict) else [cleared(row) for row in table]
                     for table in tables))


def unscale(mode, x, scale):
    """x / scale as the mode's scalar; undoes clear_denominators on one value."""
    if mode != RATIONAL:
        return x / scale
    return Fraction(x, scale)


def coerce(value, mode):
    """Convert a raw scalar (int, float, Fraction or 'p/q' string) to the mode's type.

    A non-finite float in rational mode, or a value beyond the float range in
    float mode, is a SchemaError; an exact string such as "1e400" is a rational.
    """
    if isinstance(value, bool):
        raise SchemaError(f"boolean is not a scalar: {value!r}")
    if mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str, float)):
            try:
                # a float converts exactly: 0.5 -> 1/2
                return Fraction(value)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise SchemaError(f"bad rational literal {value!r}: {exc}") from None
        raise SchemaError(f"cannot coerce {value!r} to a rational")
    check_mode(mode)
    try:
        if isinstance(value, str):
            return float(Fraction(value))
        if isinstance(value, (int, float, Fraction)):
            return float(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad scalar literal {value!r}: {exc}") from None
    except OverflowError:
        raise SchemaError(f"scalar {reprlib.repr(value)} is beyond the float range") from None
    raise SchemaError(f"cannot coerce {value!r} to a float")


def to_json(x):
    """JSON form of a scalar: Fractions become 'p/q' (or 'p') strings."""
    if type(x) is Fraction:
        return str(x)
    return x


def render(x):
    """Text form for CSV output: exact for rationals, 17 significant digits for floats."""
    if type(x) is Fraction:
        return str(x)
    return format(float(x), ".17g")
