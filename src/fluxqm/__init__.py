"""Exactly solvable flux-coupled ring models.

A quantized LC mode couples to the orbital motion (and optionally spins) of
fermions on a ring.  Total angular momentum commutes with the mode, so every
fermion sector reduces to a single displaced, squeezed (or anharmonic)
oscillator and the full spectrum is available in closed form or by cheap
one-mode diagonalization.  The package provides those closed forms, the
phase-transition detectors built on them, tight-binding and linear-dispersion
ring variants, and a brute-force Fock-space oracle used to verify everything.
Its public names are each layer's ``__all__`` and the three error types.
No layer imports numpy or scipy at import time; the functions that use them
import them, so the pure-Python closed forms run without either.
"""

from .core import *
from .diracring import *
from .errors import ConvergenceError, GridDomainError, NoTransitionError
from .kerr import *
from .linearmode import *
from .oracle import *
from .phases import *
from .spinorbit import *
from .tbring import *

__version__ = "0.1.0"
