"""Photon-counting quantum illumination: simulator, estimators, closed forms.

Generates photon-number data for entangled twin-beam and split-thermal
illumination of a target buried in multithermal background light, and
evaluates the covariance receiver's figures of merit (nonclassicality
parameter, SNR, enhancement, error probability) both by Monte Carlo and
in closed form.
"""
from .types import (
    BackgroundSpec,
    ChannelSpec,
    DegenerateStatisticError,
    InfeasibleInstanceError,
    InsufficientDataError,
    MomentSet,
    ParameterError,
    Scenario,
    SeedSpec,
    SourceKind,
    SourceSpec,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundSpec",
    "ChannelSpec",
    "DegenerateStatisticError",
    "InfeasibleInstanceError",
    "InsufficientDataError",
    "MomentSet",
    "ParameterError",
    "Scenario",
    "SeedSpec",
    "SourceKind",
    "SourceSpec",
    "__version__",
]
