"""Hybrid cloud-edge multi-agent orchestration engine.

Runs monolithic ReAct baselines and two supervised hybrid architectures
(plan-based and advice-based) over pluggable chat backends and tool
environments, with token-level dollar/energy/KV-cache accounting and an
analysis toolkit for cost-performance trade-offs.
"""

from .core import (
    AdviceHandoff,
    AdviceMemoryHandoff,
    ModelProfile,
    Plan,
    Pricing,
    ReplanHandoff,
    RunConfig,
    SamplingParams,
    SupervisorCallRecord,
    TaskInstance,
    TokenUsage,
    ToolCall,
    TrajectoryRecord,
    TrajectoryTotals,
    TurnRecord,
    VerifierDecision,
    read_trajectories,
    write_trajectories,
)
from .orchestrator import run_trajectory

__version__ = "0.1.0"
