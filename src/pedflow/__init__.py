"""Two-way multi-lane corridor crowd models.

Congestion pressure laws with a singular jam-density correction, the
one-/two-way constant- and dynamic-desired-speed model family, a
hyperbolicity and dispersion toolkit, a conservative central-scheme
finite-volume solver, and coupled lanes with congestion-aware lane
changing.
"""

from . import analysis, cli, errors, models, multilane, pressure, solver

__all__ = [
    "analysis",
    "cli",
    "errors",
    "models",
    "multilane",
    "pressure",
    "solver",
]

__version__ = "0.1.0"
