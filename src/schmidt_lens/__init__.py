"""Schmidt-number analysis of quantum channels.

Channels as Kraus lists with Choi-state tooling, the fidelity witness
I - (d/r)P and the Tr(X)I - kX map family for one-sided Schmidt-number
certificates, named channel families with their exact breaking
thresholds, and the two-local annihilation study for the qutrit
depolarizing channel.
"""

from .analysis import (
    RelationReport,
    SnacRecord,
    SweepRecord,
    bisect_crossing,
    eb_ppt_threshold,
    permutation_covariant_defect,
    phase_covariant_defect,
    relation_report,
    simplex_lattice,
    snac_lattice_minimum,
    snac_min_eig,
    snac_sweep,
    snbc_witness_sweep,
    snbc_witness_threshold,
    two_local_depolarizing_matrix,
    two_local_output,
)
from .channels import (
    ChoiMatrix,
    QuantumChannel,
    action_distance,
    adjoint,
    apply_matrix,
    apply_on_B,
    canonical_kraus,
    channel_from_json,
    channel_to_json,
    choi,
    compose,
    dephasing,
    depolarizing,
    identity_channel,
    random_channel,
    random_channel_with_kraus_rank,
    tensor,
)
from .linalg import (
    hermitian_eig,
    kron,
    matrix_rank,
    partial_trace,
    partial_transpose,
    singular_values,
)
from .schmidt import (
    CertificationResult,
    SNWitness,
    Verdict,
    apply_id_lambda,
    certify_sn_above,
    channel_witness_value,
    isotropic_sn_threshold,
    r_positivity_window,
    sn_upper_bound_via_kraus,
    witness,
    witness_value,
    witness_values,
)
from .states import (
    DensityMatrix,
    PureState,
    haar_unitary,
    isotropic_state,
    max_entangled,
    random_density,
    random_pure_with_schmidt_rank,
    random_state_sn_at_most,
    schmidt_coefficients,
    schmidt_rank,
)
from .suites import SuiteResult, run_suites, theorem_suite

__version__ = "0.1.0"
