"""The public surface of the package.

Adding or removing a public name is a deliberate change: this list is
updated with it.
"""

from __future__ import annotations

import types

import graphfb

PUBLIC_NAMES = {
    # errors
    "EigensolverError", "InputError", "NumericalError", "SolverError",
    # graphs
    "Graph", "check_laplacian", "dirichlet_energy", "format_graph", "generate",
    "laplacian", "parse_graph", "read_graph_file", "write_graph_file",
    # sampling
    "SamplingPattern", "cut_value", "greedy_max_cut",
    # qecqp
    "QecqpProblem", "QecqpSolution", "oracle_min", "solve",
    # fourier
    "FourierBasis", "SignedPermutation", "SubspaceClass", "classify_subspace",
    "complement_basis", "compute_basis",
    # filterbank
    "FilterLevel", "FilterQuartet", "analyze", "build_level", "design_from_hstar",
    "design_minimax", "ideal_half_band", "quartet", "synthesize", "verify_pr",
    # multires
    "CoefficientTree", "Pyramid", "PyramidConfig", "build_pyramid",
    "graph_from_laplacian", "keep_top_k", "kron_reduce", "load_pyramid",
    "pyramid_analyze", "pyramid_synthesize", "save_pyramid", "sparsify",
    "threshold_highpass", "verify_pyramid",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(graphfb)
        if not name.startswith("_") and not isinstance(getattr(graphfb, name), types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
