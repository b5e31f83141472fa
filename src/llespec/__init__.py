"""Numerics for the integral-means spectrum of Levy-Loewner evolutions.

The package computes beta(2) for whole-plane evolutions driven by Levy
processes with locally finite exponent sequences, by three independent
routes: the maximal real eigenvalue of a truncated evolution matrix, the
largest real root of its characteristic polynomial, and a direct fit of
the blowup exponent of the angular second moment near the unit circle.
"""

from . import (
    closed_forms,
    errors,
    fuchsian_series,
    levy_driver,
    loewner_system,
    spectral_solver,
)
from .closed_forms import *
from .errors import *
from .fuchsian_series import *
from .levy_driver import *
from .loewner_system import *
from .spectral_solver import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [
    name
    for module in (
        closed_forms,
        errors,
        fuchsian_series,
        levy_driver,
        loewner_system,
        spectral_solver,
    )
    for name in module.__all__
]
