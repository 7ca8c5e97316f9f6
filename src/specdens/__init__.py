"""Singularity analysis of self-consistent densities of states.

Given a symmetric, entrywise non-negative variance profile, this package
classifies the zero-energy singularity of the associated density of states
exactly (support class, atom mass, per-block power-law exponents,
singularity degree), solves the self-consistent equations numerically to
verify the predicted power laws, and reproduces the smallest-singular-value
finite-size scaling by Monte Carlo sampling.
"""

from . import dyson, errors, minmax, montecarlo, normal_form, patterns, report
from .dyson import *
from .errors import *
from .minmax import *
from .montecarlo import *
from .normal_form import *
from .patterns import *
from .report import *

__all__ = [
    name
    for module in (dyson, errors, minmax, montecarlo, normal_form, patterns, report)
    for name in module.__all__
]

__version__ = "0.1.0"
