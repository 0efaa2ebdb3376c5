"""Cones of positive maps between matrix algebras, via their Choi matrices.

The package provides:

* ``linalg``   dense complex bipartite operator algebra (tensor products,
  partial transpose and trace, the Hermiticity gate, a PSD test) and
  ``classify``, the one boundary-band rule that every verdict reads;
* ``choi``     maps stored as Choi matrices: actions, adjoints, transpose
  conjugates, compositions, induced functionals, trace pairings;
* ``cones``    membership oracles with certificates for the cp / cop /
  decomposable / PPT / separable / block-positive cones, the ``e``-cone
  decision (``dykstra_feasibility``, a name kept for API stability),
  Dykstra projection onto the PPT cone, and PPT witness extraction;
* ``sdp``      the primal-dual interior-point solver behind the ``e``-cone
  decision: min Tr(w x) over trace-one PPT w, bracketed from both sides,
  with one dense Schur solve per Newton direction;
* ``fixtures`` a positive non-decomposable map on M_3 with a companion
  PPT entangled state certifying it;
* ``sampling`` seeded generators of cone elements and probe operators;
* ``theorems`` randomized verification suites for the duality identities
  connecting all of the above, with deterministic reports;
* ``cli``      a command-line front end over JSON matrix files.
"""

from .linalg import (
    Dims,
    as_operator,
    both_transpose,
    conj_transpose,
    frob,
    full_transpose,
    hs_inner,
    is_psd,
    partial_trace,
    partial_transpose,
    tensor,
    trace_pairing,
)
from .choi import (
    DualFunctional,
    MapRep,
    adjoint,
    adjoint_choi,
    apply_map,
    apply_second,
    compose_left,
    depolarizing_map,
    dual_functional,
    identity_map,
    map_from_action,
    map_from_choi,
    matrix_unit,
    max_entangled_projector,
    omega_eval,
    pairing,
    swap_operator,
    transpose_conj,
    transpose_map,
    trpi_eval,
)
from .cones import (
    ConeId,
    Decomposition,
    DykstraConfig,
    FWitness,
    MinEigCert,
    ProductVectorCert,
    PptSpectra,
    SeparableBall,
    SeparableDecomposition,
    Status,
    Verdict,
    dykstra_feasibility,
    in_E,
    in_F,
    in_P,
    in_S,
    is_block_positive,
    is_cop,
    is_cp,
    is_decomposable,
    is_positive_map,
    is_ppt_state,
    is_separable,
    pm_k_membership,
    project_F,
    psd_project,
    witness_search,
)
from .fixtures import bell_phased_family, nondecomposable_map, ppt_entangled_state
from .sampling import ConeSampler, k_t, kd_generators, sample_map
from .theorems import (
    TheoremReport,
    emit_report,
    ksharp_membership,
    theorem1_conditions,
    verify,
)

__version__ = "0.1.0"
