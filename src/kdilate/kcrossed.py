"""Crossed-product K-theory via the six-term exact sequence.

Given K-data (K0, K1, induced endomorphisms), the crossed product's K-groups
sit in two extensions built from kernel/cokernel of (1 - fbar) on the
dilated groups:

    0 -> coker(1 - fbar_0) -> K0 -> ker(1 - fbar_1) -> 0
    0 -> coker(1 - fbar_1) -> K1 -> ker(1 - fbar_0) -> 0

An extension is resolved only when an end vanishes or the kernel end is
free; finite-by-finite extensions are reported, never guessed.

Two closed forms circulate for the torsion order of ker/coker of (1 - m) on
Z/k: gcd(k, m-1) and k/gcd(k, m-1).  Direct enumeration of x -> x - m*x on
Z/k confirms the gcd form (the quotient form fails already at k=3, m=2), so
every emitted group and label uses gcd(k, m-1); both numbers are reported
in CuntzClosedForm for cross-reference.
"""

from __future__ import annotations

from math import gcd

from .abelian import FGAbelianGroup, GroupHom, IncompatibleShapesError, direct_sum
from .colimit import ColimitDescription, DilationProblem, bracket, ker_coker_one_minus
from .record import _Record

INFINITY = None  # the Cuntz parameter n = infinity is a distinguished symbol


class KTheoryData(_Record):
    """Graded K-groups of an algebra together with the induced maps."""

    _fields = ("k0", "k1", "map0", "map1")

    def __init__(self, k0: FGAbelianGroup, k1: FGAbelianGroup, map0: GroupHom,
                 map1: GroupHom):
        super().__init__(k0, k1, map0, map1)
        if map0.domain != k0 or map0.codomain != k0:
            raise IncompatibleShapesError("map0 must be an endomorphism of k0")
        if map1.domain != k1 or map1.codomain != k1:
            raise IncompatibleShapesError("map1 must be an endomorphism of k1")

    @classmethod
    def with_identity_maps(cls, k0: FGAbelianGroup, k1: FGAbelianGroup) -> "KTheoryData":
        return cls(k0, k1, GroupHom.identity(k0), GroupHom.identity(k1))


class CrossedProductK(_Record):
    """Graded K-theory of the crossed product, extension by extension.

    k0_sub/k0_quot are the cokernel and kernel ends feeding K0 (and likewise
    for K1).  k0 and k1 are the graded pieces as descriptions: the
    determined group when the extension is settled, else the extension of
    the two ends with resolved=False, which reads `unresolved`; the policy
    is recorded in resolution_reason.
    """

    _fields = ("k0_sub", "k0_quot", "k1_sub", "k1_quot", "k0", "k1", "resolution_reason")

    @property
    def fully_resolved(self) -> bool:
        return not (self.k0.unresolved or self.k1.unresolved)


def _resolve_extension(sub: ColimitDescription,
                       quot: ColimitDescription) -> tuple[ColimitDescription, str]:
    if quot.is_trivial:
        return sub, "kernel end vanishes"
    if sub.is_trivial:
        return quot, "cokernel end vanishes"
    if quot.fg_part.is_free:
        group = direct_sum(sub.fg_part, quot.fg_part)
        return ColimitDescription.finite(group), "free kernel end splits the extension"
    return (ColimitDescription.extension(sub, quot, resolved=False),
            "kernel end is not free; extension left unresolved")


def pv_crossed_product(data: KTheoryData) -> CrossedProductK:
    """Dilate the K-data and assemble the crossed product's K-groups."""
    ker0, cok0 = ker_coker_one_minus(DilationProblem(data.k0, data.map0))
    ker1, cok1 = ker_coker_one_minus(DilationProblem(data.k1, data.map1))
    k0, reason0 = _resolve_extension(cok0, ker1)
    k1, reason1 = _resolve_extension(cok1, ker0)
    return CrossedProductK(
        k0_sub=cok0, k0_quot=ker1,
        k1_sub=cok1, k1_quot=ker0,
        k0=k0, k1=k1,
        resolution_reason=f"K0: {reason0}; K1: {reason1}")


def pv_verify_exactness(result: CrossedProductK) -> bool:
    """Order/rank consistency of the two extensions in a computed result.

    For each resolved graded piece, the rank must be the sum of the end
    ranks and, when both ends are finite, the order must be the product of
    the end orders (an infinite end forces an infinite resolved value).
    """
    pieces = ((result.k0_sub, result.k0_quot, result.k0),
              (result.k1_sub, result.k1_quot, result.k1))
    for sub, quot, piece in pieces:
        if piece.unresolved:
            continue
        ranks = (piece.rank(), sub.rank(), quot.rank())
        if None not in ranks and ranks[0] != ranks[1] + ranks[2]:
            return False
        sub_order, quot_order = sub.order(), quot.order()
        if sub_order is not None and quot_order is not None:
            if piece.order() != sub_order * quot_order:
                return False
        elif piece.order() is not None:
            return False
    return True


class CuntzClosedForm(_Record):
    """Closed-form K-theory for the Cuntz-family crossed products.

    For finite n, k is the colimit torsion order (n-1 with the primes of
    gcd(n-1, m) removed) and the emitted groups use order_gcd = gcd(k, m-1),
    the value confirmed by elementwise enumeration; order_quotient records
    the circulating alternative k/gcd(k, m-1) for cross-reference.  The
    `emitted` flag names the formula the groups and label actually use.
    """

    _fields = ("n", "m", "k", "order_gcd", "order_quotient", "k0", "k1", "label", "emitted")

    def __init__(self, n: int | None, m: int, k: int | None, order_gcd: int | None,
                 order_quotient: int | None, k0: FGAbelianGroup, k1: FGAbelianGroup,
                 label: str, emitted: str = "gcd"):
        super().__init__(n, m, k, order_gcd, order_quotient, k0, k1, label, emitted)
        if n is not None:
            expected = bracket(gcd(n - 1, m), n - 1)
            if k != expected:
                raise ValueError("k does not satisfy the bracket closed form")


def cuntz_k_data(n: int | None, m: int) -> KTheoryData:
    """K-data of the generating-family algebra: (Z, 0) for n = infinity,
    (Z/(n-1), 0) otherwise, with multiplication by m in degree zero."""
    k0 = FGAbelianGroup.free(1) if n is None else FGAbelianGroup.cyclic(n - 1)
    k1 = FGAbelianGroup.trivial()
    return KTheoryData(k0, k1, GroupHom.multiplication(k0, m),
                       GroupHom.identity(k1))


def cuntz_closed_form(n: int | None, m: int) -> CuntzClosedForm:
    """Evaluate the case table for the crossed product of the n-generator
    Cuntz algebra by the multiplier-m endomorphism.

    n is None for the infinite-generator case; finite n requires m < n.
    The K-groups are computed through the full dilation/six-term machinery
    and cross-checked against the gcd closed form before being emitted.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be a positive integer")
    if n is not None:
        n = int(n)
        if n < 2:
            raise ValueError("n must be at least 2 (or None for infinity)")
        if m >= n:
            raise ValueError("requires m<n")

    result = pv_crossed_product(cuntz_k_data(n, m))
    if not result.fully_resolved:
        raise RuntimeError("Cuntz-family extensions always resolve")  # pragma: no cover
    # the ends are plain groups, and so is each resolved piece
    k0, k1 = result.k0.fg_part, result.k1.fg_part

    if n is None:
        k = order_gcd = order_quotient = None
        expected0 = FGAbelianGroup.free(1) if m == 1 else FGAbelianGroup.cyclic(m - 1)
        expected1 = FGAbelianGroup.free(1) if m == 1 else FGAbelianGroup.trivial()
        label = "B" if m == 1 else f"O_{m}"
    else:
        k = bracket(gcd(n - 1, m), n - 1)
        order_gcd = gcd(k, m - 1)  # m = 1 gives gcd(k, 0) = k
        order_quotient = k // order_gcd
        expected0 = expected1 = FGAbelianGroup.cyclic(order_gcd)
        label = f"O_{order_gcd + 1} x O_{order_gcd + 1}"
    if k0 != expected0 or k1 != expected1:  # pragma: no cover
        raise RuntimeError("machinery disagrees with the gcd closed form")

    return CuntzClosedForm(n=n, m=m, k=k, order_gcd=order_gcd,
                           order_quotient=order_quotient,
                           k0=k0, k1=k1, label=label)
