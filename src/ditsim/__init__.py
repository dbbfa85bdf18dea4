"""Dipole-induced transparency in drop-filter cavities, plus the repeater
protocols it enables.

The package has three layers:

* :mod:`ditsim.core` solves the steady-state scattering of a two-waveguide
  drop-filter cavity coupled to a single dipole, in the weak-excitation
  limit, and derives coupling diagnostics.
* :mod:`ditsim.spectra` builds transmission spectra over detuning grids,
  characterizes the transparency peak, and sweeps parameters.
* :mod:`ditsim.repeater` runs the coherent-probe protocols: conditional
  routing, heralded entanglement generation, nondestructive parity and
  Bell measurements, and the fidelity/success tradeoff under loss.

:mod:`ditsim.cli` exposes all of it as the ``ditsim`` command.
"""

from . import core, repeater, spectra
from .core import *  # noqa: F403
from .repeater import *  # noqa: F403
from .spectra import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *spectra.__all__, *repeater.__all__, "__version__"]
