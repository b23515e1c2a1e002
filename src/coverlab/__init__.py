"""coverlab: simulation and exact-verification toolkit for planar random walk
cover times, annulus excursion decompositions, and critical Galton-Watson
barrier estimates."""

from .lattice import (
    BudgetExceededError,
    TorusPoint,
    WalkState,
    boundary,
    cover_time,
    hitting_time,
    step,
    torus_distance,
)

__all__ = [
    "BudgetExceededError",
    "TorusPoint",
    "WalkState",
    "boundary",
    "cover_time",
    "hitting_time",
    "step",
    "torus_distance",
]

__version__ = "0.1.0"
