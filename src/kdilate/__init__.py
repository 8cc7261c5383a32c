"""kdilate: exact K-theory of crossed products by endomorphisms.

Integer linear algebra (Smith normal form, presentations, kernels and
cokernels), dilation colimits of group endomorphisms, crossed-product
K-theory through the six-term sequence, and the ideal/K-theory
combinatorics of finite graph algebras.

The package loads no layer when imported.  Each name in `__all__` is
looked up in the module that defines it on first access (PEP 562), so
`import kdilate.cli` loads `kdilate` and `kdilate.cli` only, and a
caller of the group layers loads just the layers it uses.
"""

from importlib import import_module

# each public name and the module that defines it
_HOMES = {
    "FGAbelianGroup": "abelian", "GroupHom": "abelian",
    "IncompatibleShapesError": "matrix", "IntMatrix": "matrix",
    "SNFResult": "abelian", "cokernel": "abelian", "direct_sum": "abelian",
    "element_is_zero": "abelian", "group_from_presentation": "abelian",
    "kernel": "abelian", "smith_normal_form": "abelian",
    "ColimElement": "colimit", "ColimitDescription": "colimit",
    "DilationProblem": "colimit", "classify_colimit": "colimit",
    "colim_element_is_zero": "colimit", "eventual_kernel": "colimit",
    "ker_coker_one_minus": "colimit",
    "Graph": "graphalg", "PosetDiagram": "graphalg", "condition_k_failures": "graphalg",
    "crossed_subquotient_k": "graphalg", "enumerate_hereditary_saturated": "graphalg",
    "hereditary_saturated_closure": "graphalg", "ideal_lattice_hasse": "graphalg",
    "prim_poset": "graphalg", "subquotient_k": "graphalg",
    "CrossedProductK": "kcrossed", "CuntzClosedForm": "kcrossed",
    "KTheoryData": "kcrossed", "bracket": "colimit", "cuntz_closed_form": "kcrossed",
    "pv_crossed_product": "kcrossed", "pv_verify_exactness": "kcrossed",
    "scale_k_map": "kcrossed",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
