"""CutFEM optimal control with a POD-DEIM reduced order model.

A linear-quadratic control problem constrained by a Poisson equation is
solved on a geometrically parametrized domain immersed in a fixed
background mesh.  The high-fidelity solver is an unfitted finite element
method (Nitsche boundary conditions, ghost-penalty stabilization); the
reduced model combines POD with an aggregated state/adjoint space and
interpolatory hyper-reduction of all parameter-dependent operators.
"""

from .assembly import AssemblyContext, ParametricOperators, ProblemCase, \
    SparsityPattern, assemble_operators, box_mass_matrix, get_case, \
    square_poisson
from .deim import DeimModel, OperatorSnapshots, PartialAssembler, \
    build_reduced_mesh, deim_basis, deim_select, make_deim_model, \
    spectral_norm, truncate_model
from .errors import ConfigError, NumericalError, PatternOverflowError
from .kkt import FullSolution, KktSystem, assemble_kkt, solve_kkt
from .levelset import CutGeometry, LevelSetSquare, classify_elements, \
    cut_candidates
from .mesh import BackgroundMesh, FaceTable, build_background_mesh, \
    build_face_table
from .pipeline import OfflineBundle, load_bundle, run_offline, run_online, \
    run_verify, sample_test_parameters, training_sweep
from .pod import AggregatedBasis, PodBasis, SnapshotSet, aggregate_basis, \
    pod_basis, sample_parameters
from .rom import RomModel, RomSolution, precompute_reduced_terms, \
    relative_error, rom_solve
from .storage import RunConfig, load_matrix, parse_config, save_matrix

__version__ = "0.1.0"
