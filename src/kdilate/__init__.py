"""kdilate: exact K-theory of crossed products by endomorphisms.

Integer linear algebra (Smith normal form, presentations, kernels and
cokernels), dilation colimits of group endomorphisms, crossed-product
K-theory through the six-term sequence, and the ideal/K-theory
combinatorics of finite graph algebras.
"""

from .abelian import (
    FGAbelianGroup,
    GroupHom,
    IncompatibleShapesError,
    IntMatrix,
    SNFResult,
    cokernel,
    compose,
    direct_sum,
    element_is_zero,
    group_from_presentation,
    is_isomorphic,
    kernel,
    smith_normal_form,
)
from .colimit import (
    ColimElement,
    ColimitDescription,
    DilationProblem,
    classify_colimit,
    colim_element_is_zero,
    eventual_kernel,
    ker_coker_one_minus,
)
from .graphalg import (
    Graph,
    PosetDiagram,
    condition_k_failures,
    crossed_subquotient_k,
    enumerate_hereditary_saturated,
    hereditary_saturated_closure,
    ideal_lattice_hasse,
    prim_poset,
    subquotient_k,
)
from .kcrossed import (
    CrossedProductK,
    CuntzClosedForm,
    KTheoryData,
    bracket,
    cuntz_closed_form,
    pv_crossed_product,
    pv_verify_exactness,
    scale_k_map,
)

__all__ = [
    "FGAbelianGroup", "GroupHom", "IncompatibleShapesError", "IntMatrix",
    "SNFResult", "cokernel", "compose", "direct_sum", "element_is_zero",
    "group_from_presentation", "is_isomorphic", "kernel", "smith_normal_form",
    "ColimElement", "ColimitDescription", "DilationProblem",
    "classify_colimit", "colim_element_is_zero", "eventual_kernel",
    "ker_coker_one_minus",
    "Graph", "PosetDiagram", "condition_k_failures", "crossed_subquotient_k",
    "enumerate_hereditary_saturated", "hereditary_saturated_closure",
    "ideal_lattice_hasse", "prim_poset", "subquotient_k",
    "CrossedProductK", "CuntzClosedForm", "KTheoryData", "bracket",
    "cuntz_closed_form", "pv_crossed_product", "pv_verify_exactness",
    "scale_k_map",
]

__version__ = "0.1.0"
