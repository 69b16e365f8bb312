"""oqsim: an open-quantum-system simulation toolbox.

Quantum states, operators and superoperators over a pluggable matrix data
layer (dense / CSR / sparse-diagonal), time-dependent operators, and a suite
of dynamics solvers: Schrodinger and Lindblad master equations, Bloch-Redfield
tensors, steady states, Monte Carlo and non-Markovian trajectories, the
homodyne stochastic master equation, Floquet propagation, hierarchical
equations of motion with bosonic environments, and excitation-number
restricted spaces.  A batch runner (``oqsim`` CLI) executes declarative YAML
models and writes CSV tables.
"""

from .exceptions import *  # noqa: F401,F403
from . import data
from .data import DataMatrix
from .dimensions import Dimensions
from .qobj import Qobj, expect, ptrace, qobj_new, tensor
from .settings import default_dtype, set_default_dtype
from .states import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .superop import (
    lindblad_dissipator,
    liouvillian,
    operator_to_vector,
    spost,
    spre,
    sprepost,
    super_lr,
    vector_to_operator,
)
from .metrics import (
    concurrence,
    entropy_linear,
    entropy_vn,
    fidelity,
    metric,
    negativity,
    tracedist,
)
from .coefficient import (
    Coefficient,
    ConstantCoefficient,
    FunctionCoefficient,
    SplineCoefficient,
    coeff_eval,
    coefficient,
)
from .qobjevo import QobjEvo, liouvillian_evo
from .integrator import IntegratorOptions, integrate, propagate_diag
from .result import MultiTrajResult, SolveResult
from .solver import MESolver, SESolver, SolverOptions, mesolve, sesolve
from .brmesolve import BRCoupling, br_tensor, brmesolve
from .steadystate import steadystate
from .floquet import FloquetBasis, floquet_basis, fsesolve
from .mcsolve import McOptions, MCSolver, mcsolve
from .nm_mcsolve import NmPrepared, nm_mcsolve, nm_prepare
from .smesolve import SmeOptions, smesolve
from .environment import (
    BosonicEnvironment,
    CustomEnvironment,
    DrudeLorentzEnvironment,
    ExponentSet,
    OhmicEnvironment,
    UnderdampedEnvironment,
    matsubara_decompose,
)
from .heom import AdoIndexSet, HEOMResult, heom_cutoff_hint, heomsolve, hierarchy_build
from .enr import EnrSpace, enr_destroy, enr_fock, enr_identity, enr_space

__version__ = "0.1.0"
