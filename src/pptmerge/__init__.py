"""Tools for deciding when one party of a tripartite quantum state can be
merged into another under PPT-preserving operations.

The package provides validated state containers, entropic measures and
distillability witnesses, the Bloch rank of a state family, named state
families, convex optimisers over the PPT set, and a criterion-based
classifier with a JSON command-line front end.

Each submodule's ``__all__`` is the one list of what it exports; the
package re-exports all of them.  ``pptmerge.classify`` is the
:func:`~pptmerge.classify.classify` function, not its submodule.
"""

import sys as _sys

__version__ = "0.1.0"

from .core import *
from .measures import *
from .bloch import *
from .families import *
from .pptopt import *
from .classify import *
from .stateio import *

__all__ = ["__version__"] + [
    name
    for module in ("core", "measures", "bloch", "families", "pptopt", "classify", "stateio")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
