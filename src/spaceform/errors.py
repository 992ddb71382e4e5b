"""Exception hierarchy for spaceform.

Every error raised by the library derives from SpaceformError, so callers
(notably the CLI) can convert any domain failure into a diagnostic without
catching bare exceptions.
"""

from __future__ import annotations


class SpaceformError(ValueError):
    """Base class for all domain errors."""


# groups ---------------------------------------------------------------

class CoprimalityViolation(SpaceformError):
    """gcd((r-1)*n, m) != 1, so <A,B | A^m=B^n=1, BAB^-1=A^r> is not Type I."""


class OrderViolation(SpaceformError):
    """r^n is not 1 mod m."""


class EvenM(SpaceformError):
    """m is even and > 1; Type I parameters force m odd."""


class GroupMismatch(SpaceformError):
    """Two operands belong to different groups."""


class NotFixedPointFree(SpaceformError):
    """Operation requires a fixed-point-free group."""


class ParameterOutOfRange(SpaceformError):
    """A parameter is out of its range: m, n, n_max or jobs below 1, a
    negative Molien truncation, a SPACEFORM_PRIME_SEED that is not an
    integer, an F-value point list that is not a grid (evaluate_f_values),
    an element A^a B^b outside 0 <= a < m, 0 <= b < n, or a number
    theory argument outside its domain (factorint below 1, a non-unit order,
    a primitive root mod anything but an odd prime power, torsion mod an
    even m)."""


class SizeLimitExceeded(SpaceformError):
    """Input refused: its brute-force, group walk, evaluation or factoring
    size is above a fixed limit."""


class InvalidAutomorphism(SpaceformError):
    """(s, t, u) does not satisfy gcd(s,m)=1, gcd(t,n)=1, t = 1 mod d."""


# spectra --------------------------------------------------------------

class InvalidRepresentation(SpaceformError):
    """(k, l) does not satisfy gcd(k,m)=1=gcd(l,n)."""


class BadPrime(SpaceformError):
    """The required root-of-unity order L does not divide p-1."""


class DegreeMismatch(SpaceformError):
    """Two representations being compared have different total degree."""


class SingularPoint(SpaceformError):
    """An evaluation point hits a pole of some det(I - gz)^-1 factor."""


class CertificationFailed(SpaceformError):
    """A pair failed one of the certification checks."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        super().__init__(f"certification failed at check '{check}'" + (f": {detail}" if detail else ""))
