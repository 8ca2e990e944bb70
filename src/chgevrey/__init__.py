"""Pseudo-spectral simulator and Gevrey-regularity toolkit for a weakly
dissipative Camassa-Holm equation on the torus."""

import sys as _sys

from .analyticity import *  # noqa: F403
# the function integrate shadows its module here: chgevrey.integrate (and
# `import chgevrey.integrate as m`) is the function, so a monkeypatch of the
# module must go through sys.modules["chgevrey.integrate"]
from .integrate import *  # noqa: F403
from .model import *  # noqa: F403
from .spectral import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# the package exports what its modules list in their __all__, and nothing else
__all__ = ["__version__"] + [
    name
    for module in ("analyticity", "integrate", "model", "spectral", "verify")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
