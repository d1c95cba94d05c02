"""pbl: complex hyperbolic ball models, Heisenberg lattice sums, and
sup-norm bound pipelines for Picard modular cusp forms.

Names are imported from their submodule on first access (PEP 562), so
`import pbl` loads no numpy and a closed-form call never does.  Nor does
such a call load `dataclasses` (and with it `inspect`) or `csv`: the value
types of `pbl.logreal` and `pbl.closed_forms` are slotted classes and named
tuples, and only `pbl fit` on a CSV report imports `csv`.
"""

import importlib

# submodule -> the public names it defines
_BY_MODULE = {
    "errors": ("DimensionError", "DomainError", "NumericalError", "PblError", "PreconditionError"),
    "logreal": ("LogReal", "log_sum"),
    "hermitian": (
        "HermitianForm",
        "Model",
        "ModelPoint",
        "ball_form",
        "inner_product",
        "lift",
        "model2_form",
        "model3_form",
        "model_indicator",
        "standard_form_for",
        "standard_forms",
    ),
    "transforms": (
        "CayleyMap",
        "Isometry",
        "apply",
        "cayley_gamma2",
        "cayley_gamma23",
        "cayley_gamma3",
        "random_isometry",
        "verify_isometry",
    ),
    "geometry": (
        "ball_volume",
        "ball_volume_constant",
        "cosh2_half_distance",
        "curvature_determinant",
        "distance",
        "petersson_norm_factor",
        "petersson_objective",
    ),
    "lattice": (
        "GAUSSIAN_SPEC",
        "HeisenbergParam",
        "LatticeSpec",
        "enumerate_indices",
        "lattice_covolume",
        "stabilizer_matrix",
    ),
    "counting": (
        "OrbitSource",
        "TailBoundTerms",
        "counting_function",
        "counting_upper_bound",
        "min_displacement",
        "stabilizer_injectivity_radius",
        "tail_bound",
        "tail_bound_terms",
    ),
    "closed_forms": (
        "BoundReport",
        "ConstantModel",
        "GammaChain",
        "ScalingFit",
        "cocompact_bound",
        "cusp_term_log",
        "gamma_integral_chain",
        "ridge_locate",
        "ridge_log_objective",
        "scaling_fit",
    ),
    "bounds": (
        "CuspSumResult",
        "cusp_bound",
        "cusp_lattice_sum",
        "maxima_locate",
        "orbit_cosh_power_sum",
    ),
}
_EXPORTS = {name: module for module, names in _BY_MODULE.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _BY_MODULE:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _EXPORTS.keys() | _BY_MODULE.keys())
