"""Isotropic positive definite kernels on spheres, sphere cross line, and
products of spheres: Gegenbauer machinery, Schoenberg sequences,
certification, separability analysis, and exact Gaussian field simulation.

Each module's `__all__` names its public objects; the package exports them all.
"""

from . import errors, fields, gegenbauer, kernelspec, pointsets, product_spheres, schoenberg, spacetime
from .errors import *
from .gegenbauer import *
from .pointsets import *
from .schoenberg import *
from .spacetime import *
from .product_spheres import *
from .fields import *
from .kernelspec import *

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += gegenbauer.__all__
__all__ += pointsets.__all__
__all__ += schoenberg.__all__
__all__ += spacetime.__all__
__all__ += product_spheres.__all__
__all__ += fields.__all__
__all__ += kernelspec.__all__
