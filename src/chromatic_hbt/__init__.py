"""Two-color intensity interferometry sandbox.

End-to-end simulation of a color-erasure intensity interferometer: exact
truncated-Fock-space evolution of the optical pipeline, synthetic detector
click streams realizing the analytic coincidence fringes, g2 estimation from
the streams, and nonlinear least-squares recovery of the fringe parameters.
"""

from .fock import (
    SPEED_OF_LIGHT,
    ModeId,
    ModeRegistry,
    StateVector,
    apply_creation,
    frequency_of_wavelength,
    inner_product,
)
from .elements import (
    ArmModes,
    ArmPair,
    ConversionSettings,
    ModeUnitary,
    beamsplitter,
    bs_unitary,
    evolve,
    phase_delay,
    sfg_unitary,
    spectral_filter,
)
from .protocol import (
    ErasureDetectorConfig,
    G2Model,
    HbtCoincidence,
    HbtScenario,
    ModeFrequencies,
    build_erasure_registry,
    build_hbt_registry,
    erase_and_detect,
    g2_tau_model,
    g2_zero_model,
    hbt_coincidence_amplitude,
    predicted_g2_curve,
    run_erasure_pipeline,
    visibility_from_counts,
)

__version__ = "0.1.0"
