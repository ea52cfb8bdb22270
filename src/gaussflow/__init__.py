"""gaussflow: discrete mean curvature flow in the Gaussian metric space.

Simulates closed curves and surfaces under the Gaussian-weighted curvature
flows, integrates the exact sphere radius ODE with event detection, and
verifies blow-up bounds and barrier/comparison principles along recorded
trajectories.
"""

from .ambient import sectional_curvature
from .engine import (FLOW, FLOW0, FLOWP, FlowParams, FlowTrajectory, StopReason,
                     Thresholds, run, step, velocity)
from .mesh import DiscreteImmersion
from .radial import RadialParams, RadialTrajectory, integrate_radial
from .shapes import builtin_shape

__version__ = "0.1.0"

__all__ = [
    "sectional_curvature",
    "DiscreteImmersion", "builtin_shape",
    "FlowParams", "Thresholds", "FlowTrajectory", "StopReason",
    "FLOW", "FLOW0", "FLOWP", "run", "step", "velocity",
    "RadialParams", "RadialTrajectory", "integrate_radial",
    "__version__",
]
