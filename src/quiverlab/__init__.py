"""Exact computation with doubled quivers, framed representation spaces,
moment fibers, reflection functors, covariants, and fiber strata.

Everything is exact: matrices live over Q, Q(i), or F_p, and every advertised
identity is checked with equality, not tolerances.

Every export resolves on first use: `import quiverlab` loads no submodule,
and the first access to `quiverlab.X` imports the module that defines X
(`_EXPORTS`) and keeps X in the package namespace.  The nine submodules
resolve the same way, by name, and `from quiverlab import *` binds every
export and submodule.
"""

import importlib as _importlib

# module -> the names it exports, in the order of the layers
_EXPORTS = {
    "errors": (
        "BalanceViolated", "BudgetExceeded", "FiberSampleFailed", "InvalidQuiver",
        "MomentMismatch", "NoSolution", "NotFiniteType", "NotSquare", "QuiverLabError",
        "RangeViolation", "RankTooLarge", "ReflectionUndefined", "ShapeMismatch",
        "SingularBlock", "SingularMatrix", "WrongField",
    ),
    "fields": (
        "QQ", "QQI", "FpScalar", "GaussianRational", "GaussianRationalField",
        "PrimeField", "RationalField", "field_from_name",
    ),
    "linalg": (
        "BlockSystem", "Mat", "SolveResult", "block", "column_space_basis",
        "complete_to_basis", "det", "hstack", "inverse", "is_invertible",
        "kernel_basis", "kron", "random_invertible", "random_matrix", "rank", "rref",
        "solve_right", "vstack",
    ),
    "quiver": (
        "Arrow", "CartanData", "CorootVec", "Dominance", "GenericityResult", "Quiver",
        "RootVec", "WeightVec", "WeylElement", "cartan_data", "dominance", "dot_action",
        "doubled_quiver", "dynkin_quiver", "enumerate_weyl", "genericity",
        "is_finite_type", "pair", "reflect_coroot", "reflect_weight",
        "variety_dimension",
    ),
    "repspace": (
        "DimData", "FramedPoint", "GroupElement", "VertexAB", "assemble_ab",
        "group_act", "identity_group", "moment_map", "moment_map_real",
        "moment_matches", "random_group", "sample_fiber", "split_ab",
    ),
    "paths": (
        "BPathExpr", "HomSolution", "Intertwiner", "OrbitDecision", "PathExpr",
        "empty_path", "enumerate_paths", "evaluate", "format_bpath", "format_path",
        "hom_space", "is_intertwiner", "lusztig_invariants", "orbit_equivalent",
        "parse_bpath", "parse_expr", "parse_path",
    ),
    "covariants": (
        "BlockFamily", "ChiData", "ContingencyMatrix", "basis_rank_check",
        "certify_semistable", "enumerate_S_XY", "eval_covariant", "eval_fS",
        "eval_phi_ab", "is_semistable_mplus", "random_block_family", "reachable_dims",
        "validate_chi_data",
    ),
    "reflection": (
        "CoxeterReport", "ReductionTrace", "ReflectionResult", "RelationCheck",
        "WordResult", "ZReport", "check_coxeter", "j_embed", "limit_project",
        "reduce_to_dominant", "reflect_point", "reflect_word", "verify_Z_conditions",
    ),
    "strata": (
        "CodimReport", "CountResult", "StratumInfo", "codim_report", "count_points_Fq",
        "growth_slope", "stratum_dimension", "v_plus",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return _importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
