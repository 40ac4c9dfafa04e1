"""The public surface of the package.

Adding or removing a public name is a deliberate change: this list is
updated with it.
"""

from __future__ import annotations

import inspect
import types

import graphfb
from graphfb import fourier, qecqp

PUBLIC_NAMES = {
    # errors
    "EigensolverError", "InputError", "NumericalError", "SolverError",
    # graphs
    "Graph", "check_laplacian", "format_graph", "generate",
    "laplacian", "parse_graph", "read_graph_file", "write_graph_file",
    # sampling
    "SamplingPattern", "cut_value", "greedy_max_cut",
    # qecqp
    "QecqpProblem", "QecqpSolution", "solve",
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


def test_solver_entry_points_are_pinned():
    # The basis construction hands warm starts between solves through a
    # private entry point; the public signatures stay as they are.
    assert str(inspect.signature(qecqp.solve)) == "(problem: 'QecqpProblem', tol: 'float' = 1e-10) -> 'QecqpSolution'"
    params = inspect.signature(fourier.compute_basis).parameters
    positional = [name for name, p in params.items() if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert positional == ["l_matrix", "pattern"]
    assert {name for name, p in params.items() if p.kind is p.KEYWORD_ONLY} == {"tol", "trace_hook"}
