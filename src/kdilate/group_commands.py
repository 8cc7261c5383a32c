"""The group side of the command line: snf, colim, kercoker, pv, cuntz
and graph-crossed-k.

Their problem files hold presentations and endomorphisms, and their
results need the group, colimit and six-term layers.  This module imports
all three at its top, with the graph layer for graph-crossed-k, and
`kdilate.cli` imports it only when one of these subcommands runs, so that
the graph subcommands load none of them.  The graph layer stays a top
import although only graph-crossed-k calls it: the benchmark's tracer
looks up `kdilate.graphalg` and `kdilate.kcrossed` in `sys.modules` after
a round of group calls alone.  graph-crossed-k imports the graph reader
from `kdilate.graph_commands` when it runs, so that the other group
subcommands never load that module.  The grammar, the readers of
documents and matrices, the JSON writer and the exit codes stay in
`kdilate.cli`.
"""

from __future__ import annotations

from .abelian import FGAbelianGroup, GroupHom, IntMatrix, _quotient_with_maps, smith_normal_form
from .colimit import (
    ColimitDescription,
    DilationProblem,
    TAG_FINITE,
    TAG_LOCALIZED,
    classify_colimit,
    ker_coker_one_minus,
)
from .kcrossed import CrossedProductK, KTheoryData, cuntz_closed_form, pv_crossed_product
from .graphalg import crossed_subquotient_k
from .cli import (
    InputError,
    _as_count,
    _as_int,
    _as_matrix,
    _check_fields,
    _group_json,
    _load_document,
)


# ---------------------------------------------------------------------------
# Input parsing and validation
# ---------------------------------------------------------------------------

def _load_presentation(doc: dict, where: str,
                       optional: set = frozenset()) -> tuple[int, IntMatrix]:
    _check_fields(doc, where, {"generators", "relations"}, optional)
    generators = _as_count(doc["generators"], f"{where}: generators")
    relations = _as_matrix(doc["relations"], f"{where}: relations", cols=generators)
    return generators, relations


def _endo_on_presentation(generators: int, relations: IntMatrix, endo: IntMatrix,
                          where: str) -> DilationProblem:
    if not relations.rows:  # a free group, on the given generators
        group = FGAbelianGroup.free(generators)
        return DilationProblem(group, GroupHom(group, group, endo))
    group, projection, lift = _quotient_with_maps(generators, relations)
    induced = projection @ endo
    # endo preserves the relation lattice exactly when each row of the
    # relations' images is 0 modulo its generator's order, or 0 if free
    images = induced @ relations.transpose()
    if any(any(x % d for x in row) if d else any(row)
           for row, d in zip(images.entries, group.generator_orders())):
        raise InputError(f"{where}: endomorphism does not preserve the relation lattice")
    return DilationProblem(group, GroupHom(group, group, induced @ lift))


def _load_group_endo(path: str, need_endo: bool):
    doc = _load_document(path, "group_endo")
    generators, relations = _load_presentation(doc, path, {"endo"})
    endo = None
    if "endo" in doc:
        endo = _as_matrix(doc["endo"], f"{path}: endo", cols=generators, rows=generators)
    if need_endo and endo is None:
        raise InputError(f"{path}: this subcommand needs an 'endo' matrix")
    return generators, relations, endo


def _load_k_data(path: str) -> KTheoryData:
    doc = _load_document(path, "k_data")
    _check_fields(doc, path, {"k0", "k1", "map0", "map1"})
    groups = []
    for key in ("k0", "k1"):
        if not isinstance(doc[key], dict):
            raise InputError(f"{path}: {key} must be an object with generators/relations")
        groups.append(_load_presentation(doc[key], f"{path}: {key}"))
    problems = []
    for (gens, rels), key in zip(groups, ("map0", "map1")):
        endo = _as_matrix(doc[key], f"{path}: {key}", cols=gens, rows=gens)
        problems.append(_endo_on_presentation(gens, rels, endo, f"{path}: {key}"))
    return KTheoryData(problems[0].base, problems[1].base,
                       problems[0].endo, problems[1].endo)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _description_json(desc: ColimitDescription) -> dict:
    if desc.tag == TAG_FINITE:
        return {"tag": desc.tag, "group": _group_json(desc.fg_part),
                "pretty": str(desc)}
    if desc.tag == TAG_LOCALIZED:
        diag = desc.localized_diagonal()
        return {"tag": desc.tag, "rank": desc.loc_matrix.rows,
                "matrix": desc.loc_matrix.to_lists(),
                "localizers": list(diag) if diag is not None else None,
                "pretty": str(desc)}
    return {"tag": desc.tag, "sub": _description_json(desc.sub),
            "quot": _description_json(desc.quot), "resolved": bool(desc.resolved),
            "pretty": str(desc)}


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, the lines text prints)
# ---------------------------------------------------------------------------

def _cmd_snf(args):
    generators, relations, _ = _load_group_endo(args.input, need_endo=False)
    del generators
    result = smith_normal_form(relations)
    payload = {"S": result.S.to_lists(), "U": result.U.to_lists(),
               "V": result.V.to_lists(), "status": "ok"}
    lines = [f"S = {result.S}", f"U = {result.U}", f"V = {result.V}"]
    return payload, lines


def _problem_from_args(args) -> DilationProblem:
    generators, relations, endo = _load_group_endo(args.input, need_endo=True)
    try:
        return _endo_on_presentation(generators, relations, endo, args.input)
    except ValueError as exc:
        raise InputError(f"{args.input}: {exc}") from exc


def _cmd_colim(args):
    problem = _problem_from_args(args)
    desc = classify_colimit(problem)
    status = "unresolved" if desc.unresolved else "ok"
    payload = {"base": _group_json(problem.base), "colimit": _description_json(desc),
               "status": status}
    return payload, [f"colimit = {desc}", f"status = {status}"]


def _cmd_kercoker(args):
    problem = _problem_from_args(args)
    ker, cok = ker_coker_one_minus(problem)
    payload = {"kernel": _description_json(ColimitDescription.finite(ker)),
               "cokernel": _description_json(ColimitDescription.finite(cok)),
               "status": "ok"}
    lines = [f"ker(1 - f) = {ker}", f"coker(1 - f) = {cok}", "status = ok"]
    return payload, lines


def _six_term_output(result: CrossedProductK, with_ends: bool):
    """Payload and lines of a six-term result: each group in the colimit
    layer's finite form, an open piece as the unresolved extension of its
    two ends; `with_ends` (pv) adds the four ends and the reason."""
    ends = {key: ColimitDescription.finite(getattr(result, key))
            for key in ("k0_sub", "k0_quot", "k1_sub", "k1_quot")}
    pieces = {key: ColimitDescription.finite(group) if group is not None else
              ColimitDescription.extension(ends[f"{key}_sub"], ends[f"{key}_quot"],
                                           resolved=False)
              for key, group in (("k0", result.k0), ("k1", result.k1))}
    payload = {key: _description_json(desc) for key, desc in pieces.items()}
    lines = [f"K0 = {pieces['k0']}", f"K1 = {pieces['k1']}"]
    if with_ends:
        payload.update((key, _description_json(desc)) for key, desc in ends.items())
        payload["reason"] = result.resolution_reason
        lines.append(f"reason: {result.resolution_reason}")
    payload["status"] = status = "ok" if result.fully_resolved else "unresolved"
    return payload, lines + [f"status = {status}"]


def _cmd_pv(args):
    return _six_term_output(pv_crossed_product(_load_k_data(args.input)), with_ends=True)


def _cmd_cuntz(args):
    if args.input is not None and args.n is not None:
        raise InputError("give positional n and m or --input, not both")
    if args.input is not None:
        doc = _load_document(args.input, "cuntz")
        _check_fields(doc, args.input, {"n", "m"})
        n = None if doc["n"] is None else _as_int(doc["n"], f"{args.input}: n")
        m = _as_int(doc["m"], f"{args.input}: m")
        infinity = "null"
    elif args.n is not None and args.m is not None:
        n = None if args.n == "inf" else _as_int(args.n, "n")
        m = _as_int(args.m, "m")
        infinity = "'inf'"
    else:
        raise InputError("cuntz needs positional arguments n m (n may be 'inf') or --input")
    # the library words this for Python callers; it checks m first
    if m >= 1 and n is not None and n < 2:
        raise InputError(f"n must be at least 2 (or {infinity} for infinity)")
    try:
        form = cuntz_closed_form(n, m)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = {"n": form.n, "m": form.m, "k": form.k,
               "order_gcd": form.order_gcd, "order_quotient": form.order_quotient,
               # the groups and the label use the gcd form, not the quotient form
               "emitted": "gcd",
               "k0": _group_json(form.k0), "k1": _group_json(form.k1),
               "label": form.label, "status": "ok"}
    lines = [f"K0 = {form.k0}, K1 = {form.k1}, label = {form.label}"]
    if form.k is not None:
        lines.append(f"k = {form.k}, torsion order = {form.order_gcd} "
                     f"(gcd form; quotient form {form.order_quotient} recorded)")
    return payload, lines


def _cmd_graph_crossed_k(args):
    from .graph_commands import _graph_k_sets, _load_graph

    graph = _load_graph(args.input)
    zset, yset = _graph_k_sets(args)
    try:
        result = crossed_subquotient_k(graph, zset, yset)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _six_term_output(result, with_ends=False)
