"""Cascaded resonance fluorescence toolkit.

Models the Mollow emission spectrum of a strongly driven two-level
ensemble, its Beer-Lambert absorption by a second ground-state ensemble
after a fiber round trip, a Monte Carlo time-tag simulator for the pulsed
acquisition protocol, and the nonlinear fits that extract the physical
parameters back out.
"""

from .spectrum import (
    DEFAULT_GAMMA_MHZ,
    DriveParams,
    Drives,
    NormalizationError,
    SpectrumStack,
    detuned_saturation,
    elastic_weight,
    excited_state_population,
    mollow_density,
    rabi_frequency,
    sample_spectrum,
)
from .cascade import (
    DEFAULT_PATH_EFFICIENCY,
    AbsorptionProfile,
    cascaded_counts,
    filtered_counts,
    ratio_curve,
)
from .timetag import (
    CS_LIFETIME_NS,
    Histogram,
    ParseError,
    RunConfig,
    TIMETAG_DTYPE,
    count_rate,
    histogram,
    peak_separation,
    read_config,
    read_timetags,
    simulate_run,
    window_counts,
    write_config,
    write_timetags,
)
from .fit import (
    BootstrapError,
    DataSeries,
    DegenerateFitError,
    FitResult,
    cascade_model_counts,
    fit_cascade,
    fit_lorentzian,
    fit_power_broadening,
    fit_saturation,
    fit_shift_slope,
    least_squares,
    lorentzian,
    power_broadened_width,
    read_report_csv,
    read_series,
    saturation_rate,
    write_report_csv,
    write_series,
)

__version__ = "0.1.0"
