"""Cographs and the regularity of their binomial edge ideals.

Recognition with induced-P4 certificates, exact regularity by cotree
recursion, every known upper bound with exhaustive verification on all
small cographs, and exact Hilbert series arithmetic for free-vertex
gluings.  The package exports exactly the names in each module's
``__all__``.
"""

from . import cotree, enumeration, extremal, graph, invariants, regularity, series
from .graph import *
from .cotree import *
from .invariants import *
from .regularity import *
from .extremal import *
from .series import *
from .enumeration import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (cotree, enumeration, extremal, graph, invariants,
                                     regularity, series) for name in module.__all__)
