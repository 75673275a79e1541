"""Exception types shared across the package."""


class EntOrderError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidInput(EntOrderError, ValueError):
    """Malformed input (bad shape, unparsable spectrum, bad parameter)."""


class NotNormalized(InvalidInput):
    """Total probability mass deviates from 1 beyond the allowed slack."""


class DimensionTooSmall(InvalidInput):
    """A bipartite dimension below 2 was supplied."""


class InfiniteSchmidtNumber(InvalidInput):
    """An operation restricted to finite spectra received a tailed one."""


class TopEntriesTied(InvalidInput):
    """The truncation construction needs strictly unequal top entries."""


class NotComplete(InvalidInput):
    """A zero entry appeared where the construction requires all-positive ones."""


class NotFoundWithin(EntOrderError):
    """A bounded search was exhausted without a hit."""

    def __init__(self, bound, message=None):
        self.bound = bound
        super().__init__(message or f"no qualifying index found up to {bound}")


class SizeCapExceeded(EntOrderError):
    """A product spectrum or comparison horizon would exceed the size cap."""

    def __init__(self, required, cap, message=None):
        self.required = required
        self.cap = cap
        super().__init__(
            message or f"operation needs {required} entries; cap is {cap}"
        )


class InternalInconsistency(EntOrderError):
    """Two paths that must agree did not (for example, the sweep's stream
    words and numpy's ``SeedSequence`` words): this is a bug."""
