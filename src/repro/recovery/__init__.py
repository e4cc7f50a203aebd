"""repro.recovery — fault recovery schemes (paper §6.3, Fig. 11/12).

Two layers:

- :mod:`repro.recovery.schemes` prices each scheme's fault-free dynamic
  cost (the Fig. 12 overhead comparison);
- :mod:`repro.recovery.backends` makes each scheme a pluggable
  :class:`RecoveryBackend` that drives real fault campaigns, with
  :mod:`repro.recovery.checkpoint` deriving minimal static checkpoint
  sets, :mod:`repro.recovery.predict` estimating per-region outcome
  probabilities, and :mod:`repro.recovery.compare` holding predictions
  to measured campaign rates (``repro recovery compare``).
"""

from repro.recovery.backends import (
    BACKEND_NAMES,
    CheckpointLogBackend,
    CheckpointLogInjector,
    IdempotentBackend,
    RecoveryBackend,
    TMRBackend,
    TMRInjector,
    get_backend,
)
from repro.recovery.checkpoint import (
    CheckpointPlan,
    checkpoint_plan,
    mean_checkpoint_words,
    module_checkpoint_plans,
)
from repro.recovery.compare import (
    CompareReport,
    format_compare_report,
    hunt_divergence,
    measure_divergence,
    parse_backend_names,
    run_compare,
)
from repro.recovery.predict import (
    OutcomePrediction,
    RegionComparison,
    RegionPrediction,
    RegionProfile,
    compare_predictions,
    mean_absolute_error,
    predict_outcomes,
    profile_regions,
)
from repro.recovery.schemes import (
    SCHEME_CHECKPOINT_LOG,
    SCHEME_DMR,
    SCHEME_IDEMPOTENCE,
    SCHEME_TMR,
    SCHEMES,
    SchemeRun,
    compare_schemes,
    dmr_cost_model,
    instrument_checkpoint_log,
    run_scheme,
    tmr_cost_model,
)

__all__ = [
    "BACKEND_NAMES",
    "SCHEMES",
    "SCHEME_CHECKPOINT_LOG",
    "SCHEME_DMR",
    "SCHEME_IDEMPOTENCE",
    "SCHEME_TMR",
    "CheckpointLogBackend",
    "CheckpointLogInjector",
    "CheckpointPlan",
    "CompareReport",
    "IdempotentBackend",
    "OutcomePrediction",
    "RecoveryBackend",
    "RegionComparison",
    "RegionPrediction",
    "RegionProfile",
    "SchemeRun",
    "TMRBackend",
    "TMRInjector",
    "checkpoint_plan",
    "compare_predictions",
    "compare_schemes",
    "dmr_cost_model",
    "format_compare_report",
    "get_backend",
    "hunt_divergence",
    "instrument_checkpoint_log",
    "mean_absolute_error",
    "mean_checkpoint_words",
    "measure_divergence",
    "module_checkpoint_plans",
    "parse_backend_names",
    "predict_outcomes",
    "profile_regions",
    "run_compare",
    "run_scheme",
    "tmr_cost_model",
]
