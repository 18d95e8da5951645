"""Stability diagnostics for long autoregressive forecast rollouts.

Quantifies blow-up, loss of seasonality, small-scale spectral artifacts,
seasonal-cycle accuracy, memorization, and extreme-event fidelity of
gridded rollouts, and validates every detector against a built-in synthetic
generator with controllable failure regimes.
"""

__version__ = "0.1.0"

from .gridio import (
    GLOBE,
    DailySeries,
    GridSpec,
    RegionSpec,
    RolloutSeries,
    builtin_regions,
    latitude_weights,
    read_rollout,
    region_mask,
    write_rollout,
)
from .spectra import (
    BandUnresolvedError,
    SpectrumSeries,
    band_average,
    scan,
    spectrum_series,
    wavelength_of,
    zonal_spectrum,
)
from .climatology import (
    ClimatologyEnvelope,
    ThresholdSet,
    build_envelope,
    pooled_percentiles,
)
from .detectors import (
    BlowupResult,
    SeasonalityResult,
    SmallScaleResult,
    StabilityReport,
    aggregate_runs,
    build_report,
    detect_blowup,
    detect_seasonality_loss,
    seasonal_cycle_rmse,
    small_scale_ratios,
)
from .synth import GroundTruthLabels, RegimeConfig, generate
from .perturb import (
    ExternalProcessAdapter,
    ModelAdapter,
    PerturbationSpec,
    SynthAdapter,
    apply_perturbation,
    ensemble_spread,
    error_trajectory,
    run_rollout,
    variable_stats,
)
from .memorize import NeighborIndex, build_index, distance_ratio, memorization_series
from .extremes import event_series, exceedance_curve, qq_tails
