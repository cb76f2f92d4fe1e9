"""Continuous-variable circuit synthesis and emulation for Koopman-von
Neumann dynamics of polynomial Hamiltonian systems.

The pipeline: a classical polynomial Hamiltonian is lifted to its
Hermitian KvN generator (kvn), lowered to elementary continuous-variable
gates (synth, with the operator identities proven exactly in weyl), and
executed numerically on a spectral grid or an exact Gaussian backend
(grid, gaussian), with classical flow and Liouville-density oracles
(oracle) for verification. The cli module ties the stages together behind
config-driven commands.
"""

__version__ = "0.1.0"
