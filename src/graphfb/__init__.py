"""Critically sampled two-channel filterbanks on arbitrary connected graphs."""

from .errors import EigensolverError, InputError, NumericalError, SolverError
from .filterbank import (
    FilterLevel,
    FilterQuartet,
    analyze,
    build_level,
    design_from_hstar,
    design_minimax,
    ideal_half_band,
    quartet,
    synthesize,
    verify_pr,
)
from .fourier import (
    FourierBasis,
    SignedPermutation,
    SubspaceClass,
    classify_subspace,
    complement_basis,
    compute_basis,
)
from .graphs import (
    Graph,
    check_laplacian,
    format_graph,
    generate,
    laplacian,
    parse_graph,
    read_graph_file,
    write_graph_file,
)
from .multires import (
    CoefficientTree,
    Pyramid,
    PyramidConfig,
    build_pyramid,
    graph_from_laplacian,
    keep_top_k,
    kron_reduce,
    load_pyramid,
    pyramid_analyze,
    pyramid_synthesize,
    save_pyramid,
    sparsify,
    threshold_highpass,
    verify_pyramid,
)
from .qecqp import QecqpProblem, QecqpSolution, solve
from .sampling import SamplingPattern, cut_value, greedy_max_cut

__version__ = "0.1.0"
