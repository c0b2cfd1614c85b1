"""Ranging-waveform analysis and antenna metrology for distributed arrays.

The package has three legs:

* waveform/ranging/beamform -- spectrally-sparse two-tone waveforms, the
  time-of-arrival accuracy bound they obey, a maximum-likelihood delay
  estimator validated against that bound by Monte Carlo, and the
  propagation of ranging error into distributed-beamforming coherent gain.
* phase_center/antenna_metrics -- post-processing of far-field cuts and
  Touchstone reflection-coefficient sweeps: phase-center fitting, inter-band
  displacement statistics, resonance/fractional-bandwidth extraction and
  main-beam gain statistics.
* geometry/fileio/cli -- the fabricated-antenna dimension record, shared
  CSV/JSON formats, and the ``rangekit`` command-line tool.
"""

__version__ = "0.1.0"

# m/s, exact by the SI definition of the metre; defined before the submodule
# imports below, which read it from here
SPEED_OF_LIGHT = 299_792_458.0

from .waveform import (
    Tone,
    ToneSet,
    SampledSignal,
    SpectrumModel,
    synth_two_tone,
    spectrum_of,
    mean_squared_bandwidth,
    two_tone_vs_rect_ratio,
    delay_signal,
)
from .ranging import (
    RangingScenario,
    CrlbResult,
    MonteCarloReport,
    crlb_toa,
    crlb_range,
    crlb_result,
    equivalent_accuracy_tradeoff,
    ml_toa_estimate,
    monte_carlo,
    monte_carlo_column,
)
from .phase_center import (
    FarFieldCut,
    PhaseCenterFit,
    DisplacementSeries,
    DisplacementStats,
    fit_phase_center,
    displacement_series,
    displacement_stats,
    wavelength_fraction,
    point_source_cut,
)
from .antenna_metrics import (
    SParamTrace,
    BandMetrics,
    GainStats,
    load_touchstone,
    write_touchstone,
    find_bands,
    gain_beam_stats,
)
from .beamform import (
    CoherenceScenario,
    CoherentGainReport,
    range_to_phase_error,
    coherent_gain,
    analytic_gain_fraction,
)
from .geometry import (
    Substrate,
    PatchDimensions,
    load_dimensions,
    save_dimensions,
    validate,
    reference_dimensions,
)
