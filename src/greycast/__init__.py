"""Fractional-order grey forecasting toolkit.

Small-sample forecasting with the FAGMO(1,1,k) model family: fractional
accumulation operators, least-squares fitting with optimised-parameter
transforms, the usual percentage-error criteria, order selection by
grid search, and a stochastic parameter-recovery sweep.
"""

from . import accumulation, datasets, errors, metrics, models, order_search, reference, sweep
from .accumulation import *  # noqa: F403
from .datasets import *  # noqa: F403
from .metrics import *  # noqa: F403
from .models import *  # noqa: F403
from .order_search import *  # noqa: F403
from .reference import *  # noqa: F403
from .sweep import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "errors",
    *accumulation.__all__,
    *datasets.__all__,
    *metrics.__all__,
    *models.__all__,
    *order_search.__all__,
    *reference.__all__,
    *sweep.__all__,
    "__version__",
]
