"""Dipole-induced transparency in drop-filter cavities, plus the repeater
protocols it enables.

The package has three layers:

* :mod:`ditsim.core` solves the steady-state scattering of a two-waveguide
  drop-filter cavity coupled to a single dipole, in the weak-excitation
  limit, and derives coupling diagnostics.
* :mod:`ditsim.spectra` builds transmission spectra over detuning grids,
  characterizes the transparency peak, and sweeps parameters.
* :mod:`ditsim.repeater` runs the coherent-probe protocols: conditional
  routing, heralded entanglement generation, nondestructive parity and
  Bell measurements, and the fidelity/success tradeoff under loss.

:mod:`ditsim.cli` exposes all of it as the ``ditsim`` command.
"""

from .core import (
    THZ,
    DegenerateDipole,
    DiagnosticNumbers,
    FluxBudget,
    NumericsError,
    ProbeDetuning,
    ScatterCoefficients,
    SingularDenominator,
    SingularSystem,
    SystemParams,
    UndefinedDiagnostic,
    WeakExcitationReport,
    diagnostics,
    flux_budget,
    scatter_coefficients,
    scattering_arrays,
    steady_state_oracle,
    weak_excitation_check,
)
from .repeater import (
    BASIS,
    BELL_LABELS,
    PARITY_TO_BELL,
    PORTS,
    BellMeasurementRecord,
    BellOutcome,
    InvalidRegime,
    NodeRouting,
    ParityProbeResult,
    PointerRecord,
    ProtocolResult,
    RouteAmplitudes,
    TradeoffPoint,
    TradeoffTable,
    TwoDipoleState,
    bell_measurement,
    entanglement_generation,
    false_even_probability,
    fidelity_success_tradeoff,
    parity_probe,
)
from .spectra import (
    SWEEP_AXES,
    DetuningGrid,
    NoPeak,
    PeakReport,
    SpectrumSeries,
    SweepRow,
    SweepTable,
    locate_transparency_peak,
    parameter_sweep,
    transmission_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "THZ",
    "__version__",
    # core
    "SystemParams",
    "ProbeDetuning",
    "ScatterCoefficients",
    "FluxBudget",
    "DiagnosticNumbers",
    "WeakExcitationReport",
    "NumericsError",
    "DegenerateDipole",
    "SingularDenominator",
    "SingularSystem",
    "UndefinedDiagnostic",
    "scatter_coefficients",
    "scattering_arrays",
    "steady_state_oracle",
    "flux_budget",
    "diagnostics",
    "weak_excitation_check",
    # spectra
    "SWEEP_AXES",
    "DetuningGrid",
    "SpectrumSeries",
    "PeakReport",
    "NoPeak",
    "SweepRow",
    "SweepTable",
    "transmission_spectrum",
    "locate_transparency_peak",
    "parameter_sweep",
    # repeater
    "BASIS",
    "PORTS",
    "BELL_LABELS",
    "PARITY_TO_BELL",
    "TwoDipoleState",
    "RouteAmplitudes",
    "NodeRouting",
    "PointerRecord",
    "ParityProbeResult",
    "ProtocolResult",
    "BellOutcome",
    "BellMeasurementRecord",
    "TradeoffPoint",
    "TradeoffTable",
    "InvalidRegime",
    "parity_probe",
    "false_even_probability",
    "entanglement_generation",
    "bell_measurement",
    "fidelity_success_tradeoff",
]
