"""Capsule-network classifier for hyperspectral image cubes.

A from-scratch numpy implementation: spatial and spectral feature extraction
feed capsule layers coupled by routing-by-agreement, trained with a
hand-written backward pass and Adam.  See the README for the file formats
and the command-line interface.  The package exports the public names of
its five library modules, each listed once in that module's ``__all__``.
"""

from . import data, layers, metrics, numerics, training
from .data import *  # noqa: F403
from .layers import *  # noqa: F403
from .metrics import *  # noqa: F403
from .numerics import *  # noqa: F403
from .training import *  # noqa: F403

__version__ = "0.1.0"

__all__ = data.__all__ + layers.__all__ + metrics.__all__ + numerics.__all__ + training.__all__
