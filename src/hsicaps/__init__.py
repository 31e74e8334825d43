"""Capsule-network classifier for hyperspectral image cubes.

A from-scratch numpy implementation: spatial and spectral feature extraction
feed capsule layers coupled by routing-by-agreement, trained with a
hand-written backward pass and Adam.  See the README for the file formats,
the command-line interface and the library API.  The package exports the
names its callers use, each listed once in its module's ``__all__``; the
rest of each module, and all of ``numerics``, is internal.
"""

from . import data, layers, metrics, training
from .data import *  # noqa: F403
from .layers import *  # noqa: F403
from .metrics import *  # noqa: F403
from .training import *  # noqa: F403

__version__ = "0.1.0"

__all__ = data.__all__ + layers.__all__ + metrics.__all__ + training.__all__
