"""The strategy registry and the Sweep baseline's target partition.

The baselines the paper compares against (Section V) — Random, Sweep and
CHB — are planning-pipeline compositions, like the three TCTP variants:
:func:`~repro.planning.compositions.random_pipeline`,
:func:`~repro.planning.compositions.sweep_pipeline` and
:func:`~repro.planning.compositions.chb_pipeline`.  This package holds the
strategy registry every strategy is looked up through
(:mod:`repro.baselines.base`) and the angular partition the Sweep tour
stage uses (:mod:`repro.baselines.sweep`).
"""

from repro.baselines.base import (
    PatrolStrategy,
    StrategyInfo,
    get_strategy,
    available_strategies,
    canonical_strategy_name,
    strategy_info,
    strategy_params,
    filter_strategy_kwargs,
    validate_strategy_params,
)

__all__ = [
    "PatrolStrategy",
    "StrategyInfo",
    "get_strategy",
    "available_strategies",
    "canonical_strategy_name",
    "strategy_info",
    "strategy_params",
    "filter_strategy_kwargs",
    "validate_strategy_params",
]
