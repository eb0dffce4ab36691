"""Command-line front end: model files, pipeline commands, graph export.

Model files are JSON with a ``kind`` discriminator:

* ``state_space``       {"kind": "state_space", "A": [[..]], "B": [[..]],
                         "C": [[..]], "p": int?}  (C defaults to [I_p 0])
* ``dsf_coeff``         {"kind": "dsf_coeff", "Q": [[{"num": [c0, c1, ..],
                         "den": [..]}, ..]], "P": [[..]]}  ascending degree
* ``dsf_pole_residue``  {"kind": "dsf_pole_residue", "poles": [..],
                         "KQ": [[[..]]], "KP": [[[..]]]}

Every number of a model file is a finite JSON number: ``true``, ``"1"``,
``NaN`` and ``Infinity`` are schema errors.  Any file may carry a
``tolerances`` object; its values override both the defaults and the
command-line flags.  ``parse_model`` resolves them once.
Exit codes: 0 success, 1 verification failure, 2 assumption violation,
3 I/O or schema error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .dsf import (
    DSF,
    TOL_STRUCT,
    boolean_structure,
    compute_dsf,
    consistency_check,
    structure_limits,
)
from .errors import (
    AssumptionError,
    DsfminError,
    ParseError,
    RankDeficientC,
    SchemaError,
    ShapeMismatch,
    ZeroDenominator,
)
from .minreal import TOL_ORTH, minimal_order, minreal_pipeline, transfer_degree
from .ratcore import (
    TOL_EVAL,
    TOL_POLE,
    TOL_ROOT,
    RationalFunction,
    RationalMatrix,
)
from .sslib import (
    TOL_RANK,
    PartitionedRealization,
    StateSpace,
    output_normal_form,
)

# every tolerance a model file or a flag may set, with its default
TOL_FLAGS = {"tol_pole": TOL_POLE, "tol_rank": TOL_RANK, "tol_orth": TOL_ORTH,
             "tol_eval": TOL_EVAL, "tol_root": TOL_ROOT}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass
class ModelFile:
    """Parsed and validated model file."""

    kind: str
    part: PartitionedRealization = None  # state_space kind
    dsf: DSF = None                      # dsf kinds
    tolerances: dict = None              # every key of TOL_FLAGS, resolved


def _numbers(obj, what, ndim):
    """``obj`` as a float array with ``ndim`` axes, 0 for one number.

    The one number check of a model file: SchemaError unless ``obj`` is
    lists nested ``ndim`` deep, rectangular, of finite JSON numbers.
    ``true`` and ``"1"`` are not numbers; ``NaN`` and ``Infinity``, which
    JSON readers accept, are not finite.
    """
    def nested(x, depth):
        if depth == 0:
            return isinstance(x, (int, float)) and not isinstance(x, bool)
        return isinstance(x, list) and all(nested(y, depth - 1) for y in x)

    expected = "a number" if ndim == 0 else f"a rectangular {ndim}-d array of numbers"
    try:
        x = np.array(obj, dtype=float) if nested(obj, ndim) else None
    except (ValueError, OverflowError):  # ragged lists; an integer beyond float range
        x = None
    if x is None or x.ndim != ndim:
        raise SchemaError(f"{what}: expected {expected}")
    if not np.isfinite(x).all():
        raise SchemaError(f"{what}: numbers must be finite")
    return x


def _ratfun_from_json(obj, what, tol_root):
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise SchemaError(f'{what}: expected an object with "num" and "den" arrays')
    num, den = (_numbers(obj[key], f"{what}.{key}", 1) for key in ("num", "den"))
    try:
        return RationalFunction(num, den, tol_root)
    except (ValueError, ZeroDenominator) as exc:
        raise SchemaError(f"{what}: bad coefficient array ({exc})") from exc


def _rmat_from_json(obj, what, tol_root):
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) and r for r in obj):
        raise SchemaError(f"{what}: expected a list of non-empty rows")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise SchemaError(f"{what}: ragged rows")
    return RationalMatrix([[_ratfun_from_json(e, f"{what}[{i}][{j}]", tol_root)
                            for j, e in enumerate(row)]
                           for i, row in enumerate(obj)])


def parse_model(path: str, flags=None) -> ModelFile:
    """Load and validate a model file; see the module docstring for schemas.

    The tolerances are resolved once: the defaults, then the values of
    ``flags`` (a mapping such as ``vars(args)``; keys other than
    tolerances are ignored), then the file's own; each must be positive
    and finite.  A structure function is validated with the resolved
    ``tol_pole``.  Every number of the model must be finite.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(raw, dict) or "kind" not in raw:
        raise SchemaError(f'{path}: missing "kind" field')
    kind = raw["kind"]
    tols = raw.get("tolerances", {})
    if not isinstance(tols, dict) or any(k not in TOL_FLAGS for k in tols):
        raise SchemaError(f"{path}: tolerances must be an object with keys among "
                          f"{tuple(TOL_FLAGS)}")
    tols = {key: float(_numbers(value, f"{path}: {key}", 0)) for key, value in tols.items()}
    flags = {key: v for key, v in (flags or {}).items() if key in TOL_FLAGS}
    tols = {**TOL_FLAGS, **flags, **tols}
    for key, value in tols.items():
        if not 0.0 < value < np.inf:
            raise SchemaError(f"{path}: {key} must be a positive finite number, got {value}")

    if kind == "state_space":
        for key in ("A", "B"):
            if key not in raw:
                raise SchemaError(f'{path}: state_space requires "{key}"')
        A = _numbers(raw["A"], f"{path}: A", 2)
        B = _numbers(raw["B"], f"{path}: B", 2)
        n = A.shape[0]
        if "p" in raw and (isinstance(raw["p"], bool) or not isinstance(raw["p"], int)):
            raise SchemaError(f'{path}: "p" must be an integer')
        if "C" in raw:
            C = _numbers(raw["C"], f"{path}: C", 2)
            p = C.shape[0]
            if raw.get("p", p) != p:
                raise SchemaError(f'{path}: "p" disagrees with the rows of C')
        elif "p" in raw:
            p = raw["p"]
        else:
            raise SchemaError(f'{path}: state_space requires "C" or "p"')
        if not 1 <= p <= n:
            raise SchemaError(f"{path}: p (the rows of C) must be in 1..{n}")
        if "C" not in raw:
            C = np.eye(p, n)
        try:
            ss = StateSpace(A, B, C)
        except DsfminError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        if np.array_equal(C, np.eye(p, n)):
            part = PartitionedRealization(A[:p, :p], A[:p, p:], A[p:, :p],
                                          A[p:, p:], B[:p], B[p:])
        else:
            part = output_normal_form(ss)
        return ModelFile("state_space", part=part, tolerances=tols)

    if kind == "dsf_coeff":
        for key in ("Q", "P"):
            if key not in raw:
                raise SchemaError(f'{path}: dsf_coeff requires "{key}"')
        Q = _rmat_from_json(raw["Q"], f"{path}: Q", tols["tol_root"])
        P = _rmat_from_json(raw["P"], f"{path}: P", tols["tol_root"])
    elif kind == "dsf_pole_residue":
        for key in ("poles", "KQ", "KP"):
            if key not in raw:
                raise SchemaError(f'{path}: dsf_pole_residue requires "{key}"')
        poles = _numbers(raw["poles"], f"{path}: poles", 1)
        if not poles.size:
            raise SchemaError(f"{path}: at least one pole is required")
        KQ = _numbers(raw["KQ"], f"{path}: KQ", 3)
        KP = _numbers(raw["KP"], f"{path}: KP", 3)
        if len(KQ) != len(poles) or len(KP) != len(poles):
            raise SchemaError(f"{path}: KQ/KP must list one matrix per pole")
        p = KQ.shape[1]
        if KQ.shape[2] != p or KP.shape[1] != p:
            raise SchemaError(f"{path}: every KQ must be p x p and every KP p x m")
        if not KP.shape[2]:
            raise SchemaError(f"{path}: at least one input is required (KP has no column)")
        R = np.concatenate([KQ, KP], axis=2)
    else:
        raise SchemaError(f"{path}: unknown kind {kind!r}")
    try:
        if kind == "dsf_coeff":
            d = DSF(Q, P, tols["tol_pole"])
        else:
            d = DSF.from_modes(poles, R, tols["tol_pole"])
    except AssumptionError:
        raise
    except (ValueError, DsfminError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return ModelFile(kind, dsf=d, tolerances=tols)


def model_to_dsf(model: ModelFile) -> DSF:
    if model.dsf is not None:
        return model.dsf
    return compute_dsf(model.part, model.tolerances["tol_pole"])


# -- writers ---------------------------------------------------------------


def dsf_to_json(d: DSF) -> dict:
    """The ``dsf_pole_residue`` file of d, which reads back at any number of poles."""
    lam, R = d.modes if d.modes is not None else (d.poles, d.residues)
    if not len(lam):  # the file takes p and m from a residue; zero ones are dropped on reading
        lam, R = [-1.0], np.zeros((1, d.p, d.p + d.m))
    return {"kind": "dsf_pole_residue", "poles": [float(x) for x in lam],
            "KQ": R[:, :, :d.p].tolist(), "KP": R[:, :, d.p:].tolist()}


def part_to_json(part: PartitionedRealization) -> dict:
    ss = part.assemble()
    return {"kind": "state_space", "A": ss.A.tolist(), "B": ss.B.tolist(), "C": ss.C.tolist(),
            "p": part.p}


def _write_json(obj, path):
    """``obj`` as indented JSON with sorted keys and a final newline, in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# -- reports ---------------------------------------------------------------


def build_report(d: DSF, result) -> str:
    """The text report of a pipeline result for the structure function d."""
    g = result.gilbert
    out = [f"measured states p = {d.p}, inputs m = {d.m}",
           f"poles of [Q P] (l = {result.l}): " + ", ".join(_fmt(x) for x in g.poles),
           f"mcmillan degree of G: {transfer_degree(g)}",
           f"max simultaneous cancellations phi = {result.phi}"]
    sets = "; ".join("{" + ", ".join(_fmt(g.poles[i]) for i in c) + "}"
                     for c in result.cliques.cliques)
    out.append(f"cancellable pole sets: {sets}")
    out.append(f"minimal consistent order = {result.order} "
               f"(hidden states: {result.hidden})")
    for k, r in enumerate(result.realizations):
        cancelled = ", ".join(_fmt(x) for x in r.cancelled_poles) or "none"
        out.append(f"realization {k + 1}: R* = {r.rstar.pattern()}")
        out.append(f"  cancelled poles: {cancelled}")
        out.append(f"  consistency: {'PASS' if r.consistent else 'FAIL'}")
        out.append(f"  zero agreement at cancelled poles: "
                   f"{'PASS' if all(c.ok for c in r.zero_checks) else 'FAIL'}")
    return "\n".join(out)


# -- graph export -----------------------------------------------------------


def _edges(adj, src, dst) -> list:
    """``(src[j], dst[i])`` for every nonzero ``adj[i, j]``, row by row."""
    return [(src[j], dst[i]) for i, j in zip(*np.nonzero(adj))]


def _dsf_graph(d: DSF):
    """Nodes and edges of [Q P]; Q's diagonal is zero, so no self-loop."""
    bs = boolean_structure(d)
    ys = [f"y{i + 1}" for i in range(d.p)]
    us = [f"u{j + 1}" for j in range(d.m)]
    nodes = [(y, "measured") for y in ys] + [(u, "input") for u in us]
    return nodes, _edges(bs.q_adj, ys, ys) + _edges(bs.p_adj, us, ys)


def _realization_graph(part: PartitionedRealization):
    ss = part.assemble()
    p = part.p
    names = [f"y{i + 1}" for i in range(p)] + [f"z{i + 1}" for i in range(part.h)]
    us = [f"u{j + 1}" for j in range(part.m)]
    nodes = [(n, "measured") for n in names[:p]] + \
            [(n, "hidden") for n in names[p:]] + [(u, "input") for u in us]
    thr = TOL_STRUCT * max(float(np.max(np.abs(ss.A))), float(np.max(np.abs(ss.B))), 1.0)
    return nodes, _edges(np.abs(ss.A) > thr, names, names) + _edges(np.abs(ss.B) > thr, us, names)


def render_dot(nodes, edges) -> str:
    lines = ["digraph structure {"]
    for name, kind in nodes:
        lines.append(f'  {name} [kind="{kind}"];')
    for src, dst in edges:
        lines.append(f"  {src} -> {dst};")
    lines.append("}")
    return "\n".join(lines)


def render_adjacency(nodes, edges) -> str:
    obj = {"nodes": [{"id": n, "kind": k} for n, k in nodes],
           "edges": [{"from": s, "to": t} for s, t in edges]}
    return json.dumps(obj, indent=2, sort_keys=True)


# -- commands ---------------------------------------------------------------


def cmd_extract(args) -> int:
    model = parse_model(args.model, vars(args))
    if model.kind != "state_space":
        raise SchemaError(f"{args.model}: extract expects a state_space model")
    d = model_to_dsf(model)
    lim = structure_limits(d)
    _write_json(dsf_to_json(d), args.output)
    print(f"wrote {args.output}")
    print("lim s*Q (off-diagonal A11):")
    for row in lim.A11_offdiag:
        print("  [" + ", ".join(_fmt(x) for x in row) + "]")
    print("lim s*P (B1):")
    for row in lim.B1:
        print("  [" + ", ".join(_fmt(x) for x in row) + "]")
    return 0


def cmd_minreal(args) -> int:
    model = parse_model(args.model, vars(args))
    d = model_to_dsf(model)
    tols = model.tolerances
    result = minreal_pipeline(d, enumerate_all=args.enumerate_all,
                              tol_rank=tols["tol_rank"], tol_orth=tols["tol_orth"],
                              tol_eval=tols["tol_eval"])
    print(build_report(d, result))
    for k, r in enumerate(result.realizations):
        path = f"{args.out_dir}/realization_{k + 1}.json"
        _write_json(part_to_json(r.realization), path)
        print(f"wrote {path}")
    ok = all(r.consistent and all(c.ok for c in r.zero_checks)
             for r in result.realizations)
    return 0 if ok else 1


def cmd_graph(args) -> int:
    model = parse_model(args.model)
    if model.kind == "state_space":
        nodes, edges = _realization_graph(model.part)
    else:
        nodes, edges = _dsf_graph(model.dsf)
    if args.format == "dot":
        print(render_dot(nodes, edges))
    else:
        print(render_adjacency(nodes, edges))
    return 0


def cmd_verify(args) -> int:
    model = parse_model(args.model, vars(args))
    d = model_to_dsf(model)
    tols = model.tolerances
    rmodel = parse_model(args.realization)
    if rmodel.kind != "state_space":
        raise SchemaError(f"{args.realization}: expected a state_space realization")
    part = rmodel.part
    consistent = consistency_check(part, d, tols["tol_eval"])
    mo = minimal_order(d, tol_rank=tols["tol_rank"], tol_orth=tols["tol_orth"])
    print(f"consistent: {'yes' if consistent else 'no'}")
    print(f"realization order: {part.order}; minimal consistent order: {mo.order}")
    if consistent and part.order == mo.order:
        print("verdict: consistent and minimal")
    elif consistent:
        print("verdict: consistent but not minimal")
    else:
        print("verdict: inconsistent")
    return 0 if consistent else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsfmin",
        description="dynamical structure functions and minimal consistent realizations")
    sub = parser.add_subparsers(dest="command", required=True)

    def search(p):
        """Options of the commands that run the minimal-order search."""
        p.add_argument("--tol-pole", dest="tol_pole", type=float, default=TOL_POLE)
        p.add_argument("--tol-rank", dest="tol_rank", type=float, default=TOL_RANK)
        p.add_argument("--tol-orth", dest="tol_orth", type=float, default=TOL_ORTH)
        p.add_argument("--tol-eval", dest="tol_eval", type=float, default=TOL_EVAL)

    p_extract = sub.add_parser("extract", help="structure function of a state-space model")
    p_extract.add_argument("model")
    p_extract.add_argument("-o", "--output", default="dsf.json")
    p_extract.add_argument("--tol-pole", dest="tol_pole", type=float, default=TOL_POLE)
    p_extract.set_defaults(func=cmd_extract)

    p_minreal = sub.add_parser("minreal", help="minimal consistent realizations")
    p_minreal.add_argument("model")
    p_minreal.add_argument("--out-dir", dest="out_dir", default=".")
    p_minreal.add_argument("--enumerate-all", dest="enumerate_all",
                           action="store_true",
                           help="one realization per maximum clique")
    search(p_minreal)
    p_minreal.set_defaults(func=cmd_minreal)

    p_graph = sub.add_parser("graph", help="network topology as DOT or JSON")
    p_graph.add_argument("model")
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="check a realization against a model")
    p_verify.add_argument("model")
    p_verify.add_argument("realization")
    search(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and reused after."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (AssumptionError, RankDeficientC) as exc:
        print(f"assumption violated ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except (ParseError, ShapeMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
