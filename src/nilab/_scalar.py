"""Exact rational scalar type of the package: the stdlib Fraction, an
arbitrary-precision rational that is always reduced with a positive
denominator.

Rat is the type of the coordinates a caller reads, of the results of the
eliminations in linalg and of polynomial coefficients.  Algebra elements
are not kept in Rat: an element is Python-int numerators over one common
denominator, and so is its N x N matrix (see algebras.Element), and a
rational is made only when its coordinates are read.  The eliminations run
on Python ints in the same way (see linalg._gauss_jordan).
"""

from fractions import Fraction as Rat

from .errors import ContractError

ZERO = Rat(0)
ONE = Rat(1)


def as_rat(value):
    """value as a Rat: an int, a Rat or a string such as "-3/4".  A float
    raises ContractError: its binary value is rarely the rational that was
    meant (0.1 is 3602879701896397/2^55)."""
    if type(value) is Rat:
        return value
    if isinstance(value, float):
        raise ContractError(f"float {value!r} is not exact; give an int, a Rat or a string")
    return Rat(value)
