"""Effective spectral radius toolkit.

Decide when two square matrices define the same effective spectrum or
effective spectral radius under nonnegative diagonal scalings, and apply
the transformations that preserve them: transposition, restriction to the
atomic part, diagonal similarity, diagonal-scaling placements, and partial
transposes over clans.
"""

from . import clans, core, spectral, structure
from .clans import *  # noqa: F403
from .core import *  # noqa: F403
from .spectral import *  # noqa: F403
from .structure import *  # noqa: F403

__version__ = "0.1.0"

# Each module's ``__all__`` is its public surface; the package re-exports
# exactly their union.
__all__ = [*clans.__all__, *core.__all__, *spectral.__all__, *structure.__all__,
           "__version__"]
