"""Two-color intensity interferometry sandbox.

End-to-end simulation of a color-erasure intensity interferometer: exact
truncated-Fock-space evolution of the optical pipeline, synthetic detector
click streams realizing the analytic coincidence fringes, g2 estimation from
the streams, and nonlinear least-squares recovery of the fringe parameters.

The package namespace holds no API of its own: import the submodules
(`fock`, `elements`, `protocol`, `streams`, `analysis`, `fitting`, `config`,
`cli`), e.g. ``from chromatic_hbt.protocol import run_erasure_pipeline``.
"""

__version__ = "0.1.0"
