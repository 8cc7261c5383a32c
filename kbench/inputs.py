"""Seeded inputs for the three workloads, with their output checks.

A workload is a list of `Op`s, one `kdilate` call each.  `make_ops(name,
seed)` builds the same list for the same seed; the round runs the list in
that order.  Every op carries `reference()`, run once before the timed
phase, and `verify(ref, code, payload)`, which returns an error message or
None.  References come from `oracle` (independent arithmetic) or from the
construction itself (planted localizers), never from kdilate.

Each work-bound family is sized so that one call does about 0.4-0.5 s of
work in-process, three to four times a no-work call, while the cost of one
input stays within a small factor of the next.  Four families (mixed
torsion, dense maps, `snf` and `graph-crossed-k`) cannot be sized so: the
present Smith normal form has exponential entry growth on them above these
sizes, and a single such input would set a whole run's throughput.  They
stay start-up bound and make up at most a fifth of a round, so that the
median and the 75th percentile of the call times fall among work-bound
calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

import oracle

WORKLOADS = ("dilation", "presentations", "graph_ideals")


@dataclass
class Op:
    key: str                    # "<input file stem>.<subcommand>"
    argv: list[str]             # subcommand, then its positional arguments
    doc: dict                   # problem document, written to <stem>.json
    reference: Callable[[], object]
    verify: Callable[[object, int, object], str | None]
    ref: object = field(default=None, repr=False)

    @property
    def stem(self) -> str:
        return self.key.split(".")[0]


# ---------------------------------------------------------------------------
# Helpers shared by the checks
# ---------------------------------------------------------------------------

def _one_minus(m: list[list[int]]) -> list[list[int]]:
    return [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(m)]


def _transpose(m: list[list[int]]) -> list[list[int]]:
    return [list(c) for c in zip(*m)]


def _group(desc_group: dict) -> tuple[int, tuple[int, ...]]:
    return desc_group["free_rank"], tuple(int(d) for d in desc_group["invariant_factors"])


def _finite_group(desc: dict):
    """(free rank, factors) of a description that must be a plain group."""
    if desc.get("tag") != "finite_or_fg":
        return None
    return _group(desc["group"])


def _desc_rank(desc: dict) -> int | None:
    tag = desc["tag"]
    if tag == "finite_or_fg":
        return desc["group"]["free_rank"]
    if tag == "localized_free":
        return desc["rank"]
    if tag == "extension":
        a, b = _desc_rank(desc["sub"]), _desc_rank(desc["quot"])
        return None if a is None or b is None else a + b
    return None


def _desc_localizers(desc: dict) -> list[int]:
    """Localizers of every localized tower inside a description, sorted."""
    tag = desc["tag"]
    if tag == "localized_free":
        return sorted(int(x) for x in desc["localizers"] or [])
    if tag == "extension":
        return sorted(_desc_localizers(desc["sub"]) + _desc_localizers(desc["quot"]))
    return []


def _desc_torsion(desc: dict) -> tuple[int, ...] | None:
    tag = desc["tag"]
    if tag == "finite_or_fg":
        return _group(desc["group"])[1]
    if tag == "localized_free":
        return ()
    if tag == "extension":
        a, b = _desc_torsion(desc["sub"]), _desc_torsion(desc["quot"])
        return None if a is None or b is None else oracle.canonical(0, a + b)[1]
    return None


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def _first_error(*results: str | None) -> str | None:
    return next((r for r in results if r), None)


# ---------------------------------------------------------------------------
# dilation: colim and kercoker on group_endo problems
# ---------------------------------------------------------------------------

# Tower spectra.  Each |det| stays under the colimit layer's 10^9 bound for
# the integer-eigenvalue search, and every divisor up to the largest
# multiplier is visited, so every tower costs the same number of searches.
TOWER_SPECTRUM = [2, -2, 3, -3, 4, 5, 6, 7, 8, 9, 10, 12] + [-1] * 22
# Mixed torsion runs on Z/d + Z^6.  Padded with -1 to Z/d + Z^36, colim took
# 0.26-0.9 s on most inputs but 1.7 s and 4.1 s on one input each of two
# seeds; from Z/d + Z^16 up kercoker swings from milliseconds to seconds or
# minutes between inputs of one size.
MIXED_SPECTRUM = [2, -2, 3, 4, -5, 6]
MIXED_TORSION = (12, 30, 42, 60)
TOWERS_PER_ROUND = 16
MIXED_PER_ROUND = 1
DENSE_PER_ROUND = 1
# colim on dense maps of Z^8 with entries in [-99, 99]: |det| was above 10^9
# on all of 2*10^4 such draws, so the eigen-search is skipped and the
# localizers are null.  Below that bound the search tries every divisor
# of det and swings from 0.2 s to minutes, and from Z^12 up the call took
# more than 20 s on every input tried.  kercoker runs on Z^7 with entries
# in [-9, 9]: from Z^9 up, and on the towers, inverting the cokernel's
# transform swings from milliseconds to minutes between inputs of one size.
DENSE_COLIM_SIZE, DENSE_COLIM_ENTRY = 8, 99
DENSE_KERCOKER_SIZE = 7


def _planted(rng: random.Random, spectrum: list[int]):
    """(M, multipliers) with M = P D P^-1, P a product of 2x2 shears placed
    on disjoint coordinate pairs, then a coordinate permutation."""
    n = len(spectrum)
    diag = list(spectrum)
    rng.shuffle(diag)
    m = [[0] * n for _ in range(n)]
    for i in range(0, n - 1, 2):
        a, b = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
        p = [[1 + a * b, a], [b, 1]]
        p_inv = [[1, -a], [-b, 1 + a * b]]
        block = oracle.matmul(oracle.matmul(p, [[diag[i], 0], [0, diag[i + 1]]]), p_inv)
        for r in range(2):
            for c in range(2):
                m[i + r][i + c] = block[r][c]
    if n % 2:
        m[n - 1][n - 1] = diag[n - 1]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)], diag


def _colim_verify(expected_rank: int, localizers, torsion):
    def verify(ref, code, payload):
        if code not in (0, 3):
            return f"exit code {code}"
        desc = payload["colimit"]
        status = "unresolved" if code == 3 else "ok"
        return _first_error(
            _expect(payload["status"] == status, "status does not match the exit code"),
            _expect(_desc_rank(desc) == expected_rank,
                    f"colimit rank {_desc_rank(desc)} != {expected_rank}"),
            _expect(localizers is None or _desc_localizers(desc) == localizers,
                    f"localizers {_desc_localizers(desc)} != {localizers}"),
            _expect(torsion is None or _desc_torsion(desc) == torsion,
                    f"colimit torsion {_desc_torsion(desc)} != {torsion}"))
    return verify


def _kercoker_op(stem: str, doc: dict, kernel_ref: Callable[[], tuple]) -> Op:
    """kercoker: f is the identity on ker(1 - f) and on coker(1 - f), so
    both colimits are those groups of G itself."""
    gens, rels, endo = doc["generators"], doc["relations"], doc["endo"]

    def reference():
        coker = oracle.group_of(rels + _transpose(_one_minus(endo)), gens)
        return kernel_ref(), coker

    def verify(ref, code, payload):
        if code != 0:
            return f"exit code {code}"
        kernel, coker = ref
        return _first_error(
            _expect(_finite_group(payload["kernel"]) == kernel,
                    f"kernel {payload['kernel'].get('pretty')} != {kernel}"),
            _expect(_finite_group(payload["cokernel"]) == coker,
                    f"cokernel {payload['cokernel'].get('pretty')} != {coker}"))
    return Op(f"{stem}.kercoker", ["kercoker"], doc, reference, verify)


def _dilation_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for k in range(TOWERS_PER_ROUND):
        m, diag = _planted(rng, TOWER_SPECTRUM)
        doc = {"kind": "group_endo", "generators": len(m), "relations": [], "endo": m}
        ops.append(Op(f"tower{k}.colim", ["colim"], doc, lambda: None,
                      _colim_verify(len(m), sorted(abs(x) for x in diag), ())))
    for k in range(MIXED_PER_ROUND):
        d = rng.choice(MIXED_TORSION)
        m, diag = _planted(rng, MIXED_SPECTRUM)
        r = len(m)
        u = rng.choice([x for x in range(2, d) if gcd(x, d) == 1])
        w = [rng.randint(-3, 3) for _ in range(r)]
        endo = [[u] + w] + [[0] + row for row in m]
        doc = {"kind": "group_endo", "generators": r + 1,
               "relations": [[d] + [0] * r], "endo": endo}
        stem = f"mixed{k}"
        # 1 - M is invertible over Q (no multiplier is 1), so ker(1 - f) is
        # the part of Z/d killed by 1 - u.
        ops.append(Op(f"{stem}.colim", ["colim"], doc, lambda: None,
                      _colim_verify(r, sorted(abs(x) for x in diag), (d,))))
        ops.append(_kercoker_op(stem, doc, lambda d=d, u=u: oracle.canonical(0, [gcd(u - 1, d)])))
    for k in range(DENSE_PER_ROUND):
        n, e = DENSE_COLIM_SIZE, DENSE_COLIM_ENTRY
        m = [[rng.randint(-e, e) for _ in range(n)] for _ in range(n)]
        doc = {"kind": "group_endo", "generators": n, "relations": [], "endo": m}
        ops.append(Op(f"dense{k}.colim", ["colim"], doc, lambda: None,
                      _dense_colim_verify(m, n - oracle.char_poly_zero_multiplicity(m))))
        n = DENSE_KERCOKER_SIZE
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        doc = {"kind": "group_endo", "generators": n, "relations": [], "endo": m}
        ops.append(_kercoker_op(
            f"small{k}", doc, lambda m=m, n=n: (n - oracle.bareiss(_one_minus(m))[0], ())))
    return ops


def _dense_colim_verify(m, rank):
    base = _colim_verify(rank, None, ())

    def verify(ref, code, payload):
        error = base(ref, code, payload)
        if error:
            return error
        desc = payload["colimit"]
        if desc["tag"] == "localized_free" and desc["localizers"] is not None:
            product = 1
            for x in desc["localizers"]:
                product *= int(x)
            if product != abs(oracle.determinant(m)):
                return "localizers do not multiply to |det|"
        return None
    return verify


# ---------------------------------------------------------------------------
# presentations: pv on k_data and snf on the same relations
# ---------------------------------------------------------------------------

# A square dense R cannot give a steady work-bound pv call: with entries in
# {-1, 0, 1} a call costs 0.02 s at n = 12 and 0.09-0.92 s at n = 16, and
# with entries in [-9, 9] it costs 0.02-0.26 s at n = 8 and more than 15 s
# on most inputs at n = 10.  The presentations are therefore synthetic: a
# small R0 padded with integer combinations of its rows.  The group stays
# Z^6/R0, while the loader's per-row lattice_contains cost grows with the
# row count; 64 rows put a call's own work at about 0.45 s.  R0 has entries
# in [-2, 2]: with [-9, 9], 27 of 600 padded relation matrices gave Smith
# transforms above 1000 bits (up to 38750), and such an input made its pv
# call take 2.5-4.9 s instead of 0.45 s; with [-2, 2], none of 1500 did.
PRESENTATION_SIZE = 6        # generators n of K0 = Z^n / R0 and of K1
PRESENTATION_ROWS = 64       # relation rows: R0 plus integer combinations of it
PRESENTATION_ENTRY = 2       # entries of R0 lie in [-2, 2]
PRESENTATIONS_PER_ROUND = 16
SNF_PER_ROUND = 3            # the first R0s also go through `snf`
# A fixed (seed-independent) 10x10 matrix with entries in [-9, 9] whose U and
# V pass Python's 4300-digit integer-to-string limit, so `kdilate snf` exits
# 1 on it every time until the renderer is mended.
SNF_DIGIT_LIMIT_SEED = "snf-digit-limit-0"
SNF_DIGIT_LIMIT_SIZE = 10


def _snf_verify(rows: list[list[int]]):
    def reference():
        return oracle.group_of(rows, len(rows[0]))

    def verify(ref, code, payload):
        if code != 0:
            return f"exit code {code}"
        u, s, v = ([[int(x) for x in r] for r in payload[k]] for k in ("U", "S", "V"))
        n = len(rows[0])
        diag = [s[i][i] for i in range(min(len(s), n))]
        off = any(s[i][j] for i in range(len(s)) for j in range(n) if i != j)
        chain = all(d >= 0 for d in diag) and all(
            (b % a == 0) if a else b == 0 for a, b in zip(diag, diag[1:]))
        free, factors = ref
        nonzero = [d for d in diag if d]
        return _first_error(
            _expect(oracle.matmul(oracle.matmul(u, rows), v) == s, "U R V != S"),
            _expect(abs(oracle.determinant(u)) == 1, "U is not unimodular"),
            _expect(abs(oracle.determinant(v)) == 1, "V is not unimodular"),
            _expect(not off and chain, "S is not a divisibility-chain diagonal"),
            _expect(n - len(nonzero) == free and tuple(d for d in nonzero if d > 1) == factors,
                    "diagonal differs from the reference invariant factors"),
            _sympy_cross_check(rows, nonzero))
    return reference, verify


def _sympy_cross_check(rows, nonzero) -> str | None:
    try:
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors
    except ImportError:
        return None
    theirs = [abs(int(x)) for x in invariant_factors(Matrix(rows), domain=ZZ) if x]
    return _expect(theirs == nonzero, "diagonal differs from sympy's invariant factors")


def _presentation(rng: random.Random):
    """(R0, relations, c, map): K = Z^n/R0 presented redundantly by R0 and
    integer combinations of its rows, with a map that is c*I plus a map into
    the relation lattice, so it acts on K as multiplication by c."""
    n, m, e = PRESENTATION_SIZE, PRESENTATION_ROWS, PRESENTATION_ENTRY
    r0 = [[rng.randint(-e, e) for _ in range(n)] for _ in range(n)]
    combos = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m - n)]
    rels = r0 + oracle.matmul(combos, r0)
    rng.shuffle(rels)
    c = rng.randint(2, 7)
    y = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
    ry = oracle.matmul(_transpose(rels), y)
    return r0, rels, c, [[c * (i == j) + ry[i][j] for j in range(n)] for i in range(n)]


def _presentation_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    n = PRESENTATION_SIZE
    for k in range(PRESENTATIONS_PER_ROUND):
        r0, rels0, c0, map0 = _presentation(rng)
        r1, rels1, c1, map1 = _presentation(rng)
        doc = {"kind": "k_data", "k0": {"generators": n, "relations": rels0},
               "k1": {"generators": n, "relations": rels1}, "map0": map0, "map1": map1}
        ops.append(Op(f"kdata{k}.pv", ["pv"], doc,
                      lambda r0=r0, r1=r1: (oracle.group_of(r0, n), oracle.group_of(r1, n)),
                      _pv_verify(c0, c1)))
        if k >= SNF_PER_ROUND:
            continue
        reference, verify = _snf_verify(r0)
        ops.append(Op(f"rel{k}.snf", ["snf"],
                      {"kind": "group_endo", "generators": n, "relations": r0},
                      reference, verify))
    fixed = random.Random(SNF_DIGIT_LIMIT_SEED)
    size = SNF_DIGIT_LIMIT_SIZE
    rows = [[fixed.randint(-9, 9) for _ in range(size)] for _ in range(size)]
    reference, verify = _snf_verify(rows)
    ops.append(Op("digitlimit.snf", ["snf"],
                  {"kind": "group_endo", "generators": size, "relations": rows},
                  reference, verify))
    return ops


def _dilated_ker_coker(group, c: int):
    """ker and coker of 1 - c on the colimit of (Z^f + sum Z/d, times c).

    Dilating strips the primes of c from each invariant factor d, and ker
    and coker of 1 - c on Z/bracket(c, d) are both Z/gcd(bracket(c, d), c - 1).
    Each free summand dilates to Z[1/c], where 1 - c is injective with
    cokernel Z/(c - 1)."""
    free, factors = group
    torsion = [gcd(oracle.bracket(c, d), c - 1) for d in factors]
    return oracle.canonical(0, torsion), oracle.canonical(0, torsion + [c - 1] * free)


def _pv_verify(c0: int, c1: int):
    """Six-term check: K0 is an extension of coker0 by ker1 and K1 one of
    coker1 by ker0; it is resolved exactly when an end vanishes, since both
    ends are finite here."""
    def verify(ref, code, payload):
        ker0, cok0 = _dilated_ker_coker(ref[0], c0)
        ker1, cok1 = _dilated_ker_coker(ref[1], c1)
        trivial = (0, ())
        pieces = {"k0_sub": cok0, "k0_quot": ker1, "k1_sub": cok1, "k1_quot": ker0}
        resolved = [q if s == trivial else s for s, q in ((cok0, ker1), (cok1, ker0))
                    if trivial in (s, q)]
        expected_code = 0 if len(resolved) == 2 else 3
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        errors = [_expect(_finite_group(payload[key]) == group,
                          f"{key} {payload[key].get('pretty')} != {group}")
                  for key, group in pieces.items()]
        if expected_code == 0:
            errors += [_expect(_finite_group(payload[key]) == group,
                               f"{key} {payload[key].get('pretty')} != {group}")
                       for key, group in zip(("k0", "k1"), resolved)]
        return _first_error(*errors)
    return verify


# ---------------------------------------------------------------------------
# graph_ideals: lattice, hereditary-saturated sets, prim, crossed-product K
# ---------------------------------------------------------------------------

# (vertices, edge probability, lower and upper bound on the family size F)
LATTICE_GRAPH = (14, 0.2, 280, 320)
HS_GRAPH = (20, 0.12, 2400, 2800)
PRIM_GRAPH = (480, 0.015, 0, 0)
LATTICE_PER_ROUND = 6
HS_PER_ROUND = 6
PRIM_PER_ROUND = 6
# graph-crossed-k runs on the first lattice graphs.  With |X| of 43 to 186
# (80-200 vertices) its Smith normal form took from 0.07 s to more than 20 s
# between graphs of one size, so it stays small and start-up bound.
CROSSED_K_PER_ROUND = 2


def _random_graph(rng: random.Random, n: int, p: float) -> list[list[int]]:
    """Loops (2 or 3) at every vertex, edges from a random DAG, and a few
    back edges that merge vertices into larger strongly connected pieces."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.randint(2, 3)
        for j in range(i):
            if rng.random() < p:
                a[i][j] = rng.randint(1, 2)
    for i in range(n):
        if rng.random() < 0.1:
            below = [j for j in range(i) if a[i][j]]
            if below:
                a[rng.choice(below)][i] = 1
    perm = list(range(n))
    rng.shuffle(perm)
    return [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _sized_graph(rng: random.Random, spec) -> list[list[int]]:
    """The first graph from the stream whose family size lies in the window
    (a size rule: it reads F only, never a timing)."""
    n, p, lo, hi = spec
    while True:
        adj = _random_graph(rng, n, p)
        if not hi:
            return adj
        _, reach = oracle.condensation(adj)
        if lo <= oracle.count_down_sets(reach) <= hi:
            return adj


def _graph_doc(adj):
    return {"kind": "graph", "vertices": [f"v{i}" for i in range(len(adj))], "adjacency": adj}


def _label_set(label: str) -> frozenset:
    inner = label[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


def _graph_reference(adj, with_sets: bool = True):
    def reference():
        comps, reach = oracle.condensation(adj)
        names = [[f"v{v}" for v in c] for c in comps]
        sets = oracle.down_sets(reach) if with_sets else None

        def members(mask):
            return frozenset(v for c in range(len(comps)) if mask >> c & 1 for v in names[c])
        return comps, reach, names, sets, members
    return reference


def _hs_verify(ref, code, payload):
    if code != 0:
        return f"exit code {code}"
    _, _, _, sets, members = ref
    got = [frozenset(s) for s in payload["subsets"]]
    return _expect(len(got) == len(sets) and set(got) == {members(d) for d in sets},
                   f"{len(got)} hereditary saturated sets, expected {len(sets)}")


def _lattice_verify(ref, code, payload):
    """Birkhoff: the lattice is the down-sets of the condensation, and D is
    covered by exactly the D + C with C minimal outside D."""
    if code != 0:
        return f"exit code {code}"
    comps, reach, _, sets, members = ref
    expected = set()
    for d in sets:
        for c in range(len(comps)):
            if not d >> c & 1 and all(d >> r & 1 for r in reach[c]):
                expected.add((members(d), members(d | 1 << c)))
    elements = {_label_set(e) for e in payload["elements"]}
    covers = {(_label_set(a), _label_set(b)) for a, b in payload["covers"]}
    return _first_error(
        _expect(elements == {members(d) for d in sets}, "lattice elements differ"),
        _expect(covers == expected, f"{len(covers)} covers, expected {len(expected)}"))


def _prim_verify(ref, code, payload):
    if code != 0:
        return f"exit code {code}"
    comps, reach, names, _, _ = ref
    labels = [n[0] if len(n) == 1 else "{" + ",".join(n) + "}" for n in names]
    expected = {(labels[lo], labels[up]) for lo, up in oracle.prim_covers(reach)}
    return _first_error(
        _expect(set(payload["elements"]) == set(labels), "prim elements differ"),
        _expect({tuple(c) for c in payload["covers"]} == expected,
                f"{len(payload['covers'])} prim covers, expected {len(expected)}"))


def _crossed_k_op(stem: str, rng: random.Random, adj) -> Op:
    comps, reach = oracle.condensation(adj)
    sets = oracle.down_sets(reach)
    z = rng.choice(sets[len(sets) // 2:])
    inside = [c for c in range(len(comps)) if z >> c & 1]
    y = 0
    for c in rng.sample(inside, len(inside) // 3):
        y |= 1 << c
        for r in reach[c]:
            y |= 1 << r
    xs = [v for c in range(len(comps)) if z >> c & 1 and not y >> c & 1 for v in comps[c]]

    def names(mask):
        return ",".join(f"v{v}" for c in range(len(comps)) if mask >> c & 1
                        for v in comps[c]) or "-"

    def reference():
        relations = [[adj[i][j] - (i == j) for j in xs] for i in xs]
        k0 = oracle.group_of(relations, len(xs))
        k1 = len(xs) - oracle.bareiss(relations)[0] if xs else 0
        return k0, k1

    def verify(ref, code, payload):
        (free0, factors0), k1 = ref
        if k1 and factors0:
            return _expect(code == 3, f"exit code {code}, expected an unresolved extension")
        if code != 0:
            return f"exit code {code}"
        total = (free0 + k1, factors0)
        return _first_error(
            _expect(_finite_group(payload["k0"]) == total, f"K0 {payload['k0'].get('pretty')}"),
            _expect(_finite_group(payload["k1"]) == total, f"K1 {payload['k1'].get('pretty')}"))
    return Op(f"{stem}.graph-crossed-k", ["graph-crossed-k", names(z), names(y)],
              _graph_doc(adj), reference, verify)


def _graph_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for k in range(LATTICE_PER_ROUND):
        adj = _sized_graph(rng, LATTICE_GRAPH)
        stem = f"lat{k}"
        ops.append(Op(f"{stem}.graph-lattice", ["graph-lattice"], _graph_doc(adj),
                      _graph_reference(adj), _lattice_verify))
        if k < CROSSED_K_PER_ROUND:
            ops.append(_crossed_k_op(stem, rng, adj))
    for k in range(HS_PER_ROUND):
        adj = _sized_graph(rng, HS_GRAPH)
        ops.append(Op(f"hs{k}.graph-hs", ["graph-hs"], _graph_doc(adj),
                      _graph_reference(adj), _hs_verify))
    for k in range(PRIM_PER_ROUND):
        adj = _sized_graph(rng, PRIM_GRAPH)
        ops.append(Op(f"prim{k}.graph-prim", ["graph-prim"], _graph_doc(adj),
                      _graph_reference(adj, with_sets=False), _prim_verify))
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    """The round of one workload: the same ops for the same seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {"dilation": _dilation_ops, "presentations": _presentation_ops,
           "graph_ideals": _graph_ops}[workload](rng)
    rng.shuffle(ops)
    return ops
