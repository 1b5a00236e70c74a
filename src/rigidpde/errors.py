"""Exception types shared across the toolkit."""


class RigidPdeError(Exception):
    """Base class for all toolkit errors."""


class DomainError(RigidPdeError):
    """A point or region leaves the elliptic half-plane x > -1, or a
    field was evaluated outside its declared region; carries, when
    known, the first point (x, y) outside."""

    def __init__(self, message, x=None, y=None):
        super().__init__(message)
        self.x, self.y = x, y


class NotElliptic(RigidPdeError):
    """The ellipticity discriminant 4*alpha - beta**2 is <= 0 at some point.

    Carries the offending discriminant value and, when known, the node
    location where it occurred.
    """

    def __init__(self, value, x=None, y=None):
        self.value = float(value)
        self.x = x
        self.y = y
        where = "" if x is None else f" at (x={x:.9g}, y={y:.9g})"
        super().__init__(
            f"discriminant 4*alpha - beta**2 = {self.value:.6g} <= 0{where}; "
            "the structure is parabolic or hyperbolic there"
        )


class NonFiniteCoefficient(RigidPdeError, ValueError):
    """A coefficient, a partial, a derived structure quantity (lambda,
    |mu|, A, B) or a solution grid (w, u, v) is NaN or infinite at a node.

    Carries the quantity's name, its value and, when known, the node
    location.  Also a ValueError: the input holding it is invalid.
    """

    def __init__(self, name, value, x=None, y=None):
        self.name = name
        self.value = value
        self.x = None if x is None else float(x)
        self.y = None if y is None else float(y)
        where = "" if x is None else f" at (x={self.x!r}, y={self.y!r})"
        super().__init__(f"non-finite {name} = {value!r}{where}")


class InvalidBranch(RigidPdeError):
    """A spectral parameter with Im(lambda) <= 0 was passed where the
    upper-half-plane branch is required."""


class DegenerateStructure(RigidPdeError):
    """A supremum of |mu| at or above 1 makes the condition number undefined."""


class StencilOutOfDomain(RigidPdeError):
    """A finite-difference stencil foot leaves the field's valid region."""
