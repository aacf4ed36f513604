"""Adaptive ensemble control for linear plants with skewed Laplace measurement noise.

The package provides the noise models, the iterative quantile filter and RLS
estimators, certainty-equivalence and Bayesian-ensemble control laws, and a
seeded closed-loop simulation harness with CSV export and a CLI.  Each public
name is declared once, in its module's ``__all__``, and re-exported here.
Results store only what a run produces; their step numbers, seeds, run counts,
means and failure flags are derived from it.
"""

from .config import *
from .controller import *
from .estimator import *
from .harness import *
from .noise import *
from .plant import *

__version__ = "0.1.0"
