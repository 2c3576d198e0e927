"""Exception hierarchy shared by all wlab modules."""


class WlabError(Exception):
    """Base class for all wlab errors."""


class DomainError(WlabError):
    """A scalar function was evaluated outside its domain.  `index` is the
    position of the first offending point in the evaluated array, when known."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class RelationError(WlabError):
    """A curvature relation is malformed or violates a structural requirement
    (monotonicity, involution symmetry, pole on the sampled domain, ...)."""


class EllipticityError(WlabError):
    """Ellipticity certification failed, or an operation that requires an
    elliptic / uniformly elliptic relation received one that is not."""


class MeshError(WlabError):
    """Triangle-mesh input could not be parsed or is not an oriented manifold."""
