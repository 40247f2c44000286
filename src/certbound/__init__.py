"""Conservative survival bounds for software certification.

Starting from an assessed probability that the software is fault-free and a
count of observed failure-free demands, compute lower bounds on future
failure-free operation that hold for every prior consistent with the
assessment, aggregate per-objective-group judgments into that assessment,
and simulate how the bound grows as a fleet accumulates operating history.

The top level re-exports every submodule's ``__all__``.
"""

from . import assessment, fleet, inference, reliability, scenario
from .assessment import *  # noqa: F401,F403
from .fleet import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .reliability import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (assessment, fleet, inference, reliability, scenario)
    for name in module.__all__
)
