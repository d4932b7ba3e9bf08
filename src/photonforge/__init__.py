"""Simulation toolkit for on-demand photon sources built from a single
emitter coupled to a phase-tunable reflected channel.

The package is organised in layers:

- :mod:`photonforge.core` -- operators, density matrices, and
  superoperator algebra on a column-stacked Liouville space.
- :mod:`photonforge.slh` -- composable input-output network triplets
  (scattering matrix, coupling vector, Hamiltonian) with series,
  concatenation, and feedback products.
- :mod:`photonforge.dynamics` -- piecewise-constant drive and phase
  schedules compiled into exact matrix-exponential propagators.
- :mod:`photonforge.statistics` -- photon counting moments, click
  probabilities, multi-time correlations, and cross-channel pair
  integrals from stored trajectories.
- :mod:`photonforge.scenarios` -- ready-made experiment runners:
  beam-splitter counting statistics, shaped wave-packet release,
  cascaded pair generation, decay sweeps, flying-qubit encoding, and
  interference cancellation budgets.
- :mod:`photonforge.cli` -- the ``photonforge`` command-line entry
  point that drives the scenario registry from plain config files.

The package's public names are those of the five library modules, each
listed once in its module's ``__all__``.
"""

from . import core, dynamics, scenarios, slh, statistics
from .core import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403
from .slh import *  # noqa: F401,F403
from .statistics import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *slh.__all__, *dynamics.__all__,
           *statistics.__all__, *scenarios.__all__]
