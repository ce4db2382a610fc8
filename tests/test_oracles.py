"""The reference implementations stay independent of the code they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")

#: What ``oracles.py`` may take from graphflow: data types, errors and constants.
ALLOWED = {"Crossing", "DecoratedGraph", "Flavor", "GaussDiagram", "IntegralEstimate"}
ALLOWED |= {"KnotCurve", "GraphflowError", "InvalidParams", "COMPONENT_ORIENT", "FOUR_PI"}
ALLOWED |= {"DegenerateProjection", "MIN_SEGMENTS", "MAX_SEGMENTS", "CurveValidationError"}
#: Production code that the oracles are compared against.
CHECKED = {"CompiledIntegrand", "a2_oracle", "a_gamma_mc", "kernel_basis", "delta"}
CHECKED |= {"near_pairs", "least_distance", "diameter"}
CHECKED |= {"sparse_rows", "delta_matrix", "_rref", "_gauss_blocks"}
CHECKED |= {"canonicalize", "canonicalize_many", "contract_edge", "_chunks", "_classes"}
CHECKED |= {"_graph", "_slots", "_contract", "delta_columns", "_connected"}
CHECKED |= {"project_to_diagram", "_segment_crossings", "_children", "_plane_basis"}
CHECKED |= {"sln_integral", "_twist", "_richardson", "linking_integral"}
CHECKED |= {"ranked_directions", "stable_crossings"}


def test_oracles_import_only_data_types_errors_and_constants():
    tree = ast.parse(ORACLES.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "graphflow" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "graphflow":
            imported |= {a.name for a in node.names}
    assert imported and imported <= ALLOWED
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not (names | attrs) & CHECKED
