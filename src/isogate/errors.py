"""Exception taxonomy shared across the package."""


class IsogateError(Exception):
    """Base class for all package-specific errors."""


class CompositeModulus(IsogateError):
    """Modulus is not an odd prime in the supported range."""


class ZeroInput(IsogateError):
    """Residue-class query received 0 where a unit is required."""


class ModulusMismatch(IsogateError):
    """Matrices or groups with different moduli were combined."""


class NonInvertibleMatrix(IsogateError):
    """Matrix has determinant 0 modulo the working prime."""


class CongruenceViolation(IsogateError):
    """Modulus fails the congruence condition the construction needs."""


class RangeExceeded(IsogateError):
    """Exhaustive search requested beyond its supported range."""


class FactorizationIncomplete(IsogateError):
    """Brent's rho found no factor of a composite cofactor within its effort cap."""


class SingularCurve(IsogateError):
    """Weierstrass model has discriminant 0."""


class ZeroParameter(IsogateError):
    """Family parameter 0 lies outside the parameterization's domain."""


class PoleAtParameter(IsogateError):
    """Rational map has a pole at the requested parameter."""


class Undecided(IsogateError):
    """Neither a positive nor a negative certificate was found."""


class BadReduction(IsogateError):
    """Curve is singular modulo the requested prime."""


class InsufficientSamples(IsogateError):
    """No usable sample primes below the requested bound."""


class NotCmCurve(IsogateError):
    """j-invariant is not in the complex-multiplication table."""


class NoValidPrimes(IsogateError):
    """No auxiliary primes satisfy the congruence and reduction constraints."""


class UnknownClaim(IsogateError):
    """Claim identifier is not in the registry."""
