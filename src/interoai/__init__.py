"""Interoceptive agents over a factored state space.

The package splits every simulator state into internal, boundary, and
external parts, pays the agent for keeping its internal variables near a
set point, and ships a verifier that checks empirically that the internal
and external halves really are conditionally independent given the
boundary.
"""

from .core import (
    ACTIONS,
    Action,
    BoundaryState,
    ExternalState,
    FactoredState,
    InternalState,
    Tag,
    TransitionModel,
    perturb_external,
    step_factored,
)
from .homeostat import (
    DriveModel,
    dominant_deficit,
    drive,
    drive_and_deficit,
    homeostatic_reward,
    in_viability,
)
from .envs import (
    GridSpec,
    HomeoGridEnv,
    SeasonSchedule,
    SeasonSpec,
    advance_season,
    make_coupled_variant,
    reset,
    transition_maps,
)
from .agents import (
    AgentConfig,
    Discretizer,
    ModulationSignals,
    NeuromodConfig,
    QTable,
    make_agent,
    modulate,
    q_select,
    q_update,
)
from .blanket import (
    CmiReport,
    CmiVerdict,
    TransitionDataset,
    collect_transitions,
    conditional_mi,
    jacobian_sparsity,
)

__version__ = "0.1.0"
