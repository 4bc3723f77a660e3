"""Qudit teleportation through partially entangled pure channels, driven by
minimum-error, confidence-filtered and sequentially filtered discrimination
of the sender-side symmetric states, with closed-form analytics and exact
branch-enumeration oracles for every reported quantity."""

__version__ = "0.1.0"

from .analytics import (
    ChannelReport,
    channel_report,
    f_clas,
    f_mc_conclusive,
    f_me,
    f_me_after_fail,
    overall_fidelity,
    stage_probabilities,
)
from .channels import (
    DEFAULT_TIE_TOL,
    MultiplicityProfile,
    SchmidtChannel,
    make_channel,
    multiplicity_profile,
)
from .discrimination import (
    StagePlan,
    StrategyConfig,
    build_stage_plan,
)
from .engine import (
    AggregateStats,
    ProtocolRunner,
    TeleportRecord,
    exact_average_fidelity,
    exact_branch_probabilities,
    monte_carlo,
)
from .qudit import (
    haar_random_state,
    make_state,
)

__all__ = [
    "__version__",
    "AggregateStats",
    "ChannelReport",
    "DEFAULT_TIE_TOL",
    "MultiplicityProfile",
    "ProtocolRunner",
    "SchmidtChannel",
    "StagePlan",
    "StrategyConfig",
    "TeleportRecord",
    "build_stage_plan",
    "channel_report",
    "exact_average_fidelity",
    "exact_branch_probabilities",
    "f_clas",
    "f_mc_conclusive",
    "f_me",
    "f_me_after_fail",
    "haar_random_state",
    "make_channel",
    "make_state",
    "monte_carlo",
    "multiplicity_profile",
    "overall_fidelity",
    "stage_probabilities",
]
