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

Import each name from the submodule that defines it, for example
``rangekit.ranging.monte_carlo``; the package itself holds only
``__version__`` and ``SPEED_OF_LIGHT``.
"""

__version__ = "0.1.0"

# m/s, exact by the SI definition of the metre
SPEED_OF_LIGHT = 299_792_458.0
