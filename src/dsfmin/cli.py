"""Command-line front end: model files, pipeline commands, graph export.

Model files are JSON with a ``kind`` discriminator:

* ``state_space``       {"kind": "state_space", "A": [[..]], "B": [[..]],
                         "C": [[..]], "p": int?}  (C defaults to [I_p 0])
* ``dsf_coeff``         {"kind": "dsf_coeff", "Q": [[{"num": [c0, c1, ..],
                         "den": [..]}, ..]], "P": [[..]]}  ascending degree
* ``dsf_pole_residue``  {"kind": "dsf_pole_residue", "poles": [..],
                         "KQ": [[[..]]], "KP": [[[..]]]}

Any file may carry a ``tolerances`` object; its values override both the
defaults and the command-line flags.
Exit codes: 0 success, 1 verification failure, 2 assumption violation,
3 I/O or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .dsf import (
    DSF,
    boolean_structure,
    compute_dsf,
    structure_limits,
    transfer_realization,
)
from .errors import (
    AssumptionError,
    DsfminError,
    ParseError,
    RankDeficientC,
    SchemaError,
)
from .minreal import EDGE_RULES, FREE_VALUE, TOL_ORTH, minreal_pipeline
from .ratcore import (
    TOL_EVAL,
    TOL_POLE,
    TOL_ROOT,
    PoleResidueForm,
    RationalFunction,
    RationalMatrix,
    from_pole_residue,
)
from .sslib import (
    TOL_RANK,
    PartitionedRealization,
    StateSpace,
    kalman_reduce,
    output_normal_form,
)

TOL_FLAGS = ("tol_pole", "tol_rank", "tol_orth", "tol_eval", "tol_root")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass
class ModelFile:
    """Parsed and validated model file."""

    kind: str
    part: PartitionedRealization = None  # state_space kind
    dsf: DSF = None                      # dsf kinds
    tolerances: dict = None


def _as_grid(obj, what):
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: expected a rectangular numeric grid") from exc
    if M.ndim != 2:
        raise SchemaError(f"{what}: expected a 2-d grid, got {M.ndim}-d")
    return M


def _ratfun_from_json(obj, what, tol_root):
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise SchemaError(f'{what}: expected an object with "num" and "den" arrays')
    try:
        return RationalFunction(list(map(float, obj["num"])),
                                list(map(float, obj["den"])), tol_root)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: bad coefficient array") from exc


def _rmat_from_json(obj, what, tol_root):
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"{what}: expected a list of rows")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise SchemaError(f"{what}: ragged rows")
    return RationalMatrix([[_ratfun_from_json(e, f"{what}[{i}][{j}]", tol_root)
                            for j, e in enumerate(row)]
                           for i, row in enumerate(obj)])


def parse_model(path: str, tol_pole: float = TOL_POLE) -> ModelFile:
    """Load and validate a model file; see the module docstring for schemas.

    A structure function is validated with ``tol_pole`` unless the file's
    own tolerances give one, which wins as in ``_resolve_tolerances``.
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
    tols = raw.get("tolerances") or {}
    if not isinstance(tols, dict) or any(k not in TOL_FLAGS for k in tols):
        raise SchemaError(f"{path}: tolerances must be a subset of {TOL_FLAGS}")
    try:
        tols = {key: float(value) for key, value in tols.items()}
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: tolerances must be numbers") from exc
    tol_pole = tols.get("tol_pole", tol_pole)
    tol_root = tols.get("tol_root", TOL_ROOT)

    if kind == "state_space":
        for key in ("A", "B"):
            if key not in raw:
                raise SchemaError(f'{path}: state_space requires "{key}"')
        A = _as_grid(raw["A"], f"{path}: A")
        B = _as_grid(raw["B"], f"{path}: B")
        n = A.shape[0]
        if "C" in raw:
            C = _as_grid(raw["C"], f"{path}: C")
            if "p" in raw and int(raw["p"]) != C.shape[0]:
                raise SchemaError(f'{path}: "p" disagrees with the rows of C')
        elif "p" in raw:
            p = int(raw["p"])
            if not 1 <= p <= n:
                raise SchemaError(f"{path}: p must be in 1..{n}")
            C = np.hstack([np.eye(p), np.zeros((p, n - p))])
        else:
            raise SchemaError(f'{path}: state_space requires "C" or "p"')
        try:
            ss = StateSpace(A, B, C)
        except DsfminError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        p = C.shape[0]
        identity_output = (C.shape == (p, n)
                           and np.array_equal(C, np.hstack([np.eye(p), np.zeros((p, n - p))])))
        if identity_output:
            part = PartitionedRealization(A[:p, :p], A[:p, p:], A[p:, :p],
                                          A[p:, p:], B[:p], B[p:])
        else:
            part = output_normal_form(ss)
        return ModelFile("state_space", part=part, tolerances=tols)

    if kind == "dsf_coeff":
        for key in ("Q", "P"):
            if key not in raw:
                raise SchemaError(f'{path}: dsf_coeff requires "{key}"')
        Q = _rmat_from_json(raw["Q"], f"{path}: Q", tol_root)
        P = _rmat_from_json(raw["P"], f"{path}: P", tol_root)
    elif kind == "dsf_pole_residue":
        for key in ("poles", "KQ", "KP"):
            if key not in raw:
                raise SchemaError(f'{path}: dsf_pole_residue requires "{key}"')
        try:
            poles = [float(x) for x in raw["poles"]]
            KQ = [_as_grid(K, f"{path}: KQ[{i}]") for i, K in enumerate(raw["KQ"])]
            KP = [_as_grid(K, f"{path}: KP[{i}]") for i, K in enumerate(raw["KP"])]
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        if len(KQ) != len(poles) or len(KP) != len(poles):
            raise SchemaError(f"{path}: KQ/KP must list one matrix per pole")
        if not poles:
            raise SchemaError(f"{path}: at least one pole is required")
        p = KQ[0].shape[0]
        try:
            Q = from_pole_residue(PoleResidueForm(poles, KQ, np.zeros((p, p))))
            P = from_pole_residue(PoleResidueForm(poles, KP, np.zeros((p, KP[0].shape[1]))))
        except DsfminError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    else:
        raise SchemaError(f"{path}: unknown kind {kind!r}")
    try:
        d = DSF(Q, P, tol_pole)
    except AssumptionError:
        raise
    except (ValueError, DsfminError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return ModelFile(kind, dsf=d, tolerances=tols)


def _resolve_tolerances(args, model: ModelFile) -> dict:
    """The command's tolerance flags, with the model file's values over them."""
    tols = {key: getattr(args, key) for key in TOL_FLAGS if hasattr(args, key)}
    tols.update((key, v) for key, v in model.tolerances.items() if key in tols)
    return tols


def model_to_dsf(model: ModelFile, tol_pole: float) -> DSF:
    if model.dsf is not None:
        return model.dsf
    return compute_dsf(model.part, tol_pole)


# -- writers ---------------------------------------------------------------


def dsf_to_json(d: DSF) -> dict:
    def enc(M):
        return [[{"num": [float(c) for c in e.num.coeffs],
                  "den": [float(c) for c in e.den.coeffs]}
                 for e in row] for row in M.entries]

    return {"kind": "dsf_coeff", "Q": enc(d.Q), "P": enc(d.P)}


def part_to_json(part: PartitionedRealization) -> dict:
    ss = part.assemble()
    return {"kind": "state_space",
            "A": [[float(x) for x in row] for row in ss.A],
            "B": [[float(x) for x in row] for row in ss.B],
            "C": [[float(x) for x in row] for row in ss.C],
            "p": part.p}


def _write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- reports ---------------------------------------------------------------


@dataclass
class AnalysisReport:
    """Aggregated pipeline output for one structure function."""

    p: int
    m: int
    l: int
    phi: int
    minimal_order: int
    hidden_state_count: int
    mcmillan_degree_G: int
    phi_sets: list
    rstar_families: list
    cancellation_flags: list
    consistency_verdicts: list
    zero_match_verdicts: list

    def to_text(self, poles) -> str:
        out = []
        out.append(f"measured states p = {self.p}, inputs m = {self.m}")
        out.append(f"poles of [Q P] (l = {self.l}): "
                   + ", ".join(_fmt(x) for x in poles))
        deg = "n/a" if self.mcmillan_degree_G is None else str(self.mcmillan_degree_G)
        out.append(f"mcmillan degree of G: {deg}")
        out.append(f"max simultaneous cancellations phi = {self.phi}")
        sets = "; ".join("{" + ", ".join(_fmt(x) for x in s) + "}"
                         for s in self.phi_sets)
        out.append(f"cancellable pole sets: {sets}")
        out.append(f"minimal consistent order = {self.minimal_order} "
                   f"(hidden states: {self.hidden_state_count})")
        for k, fam in enumerate(self.rstar_families):
            cancelled = [_fmt(poles[i]) for i, f in
                         enumerate(self.cancellation_flags[k]) if f]
            out.append(f"realization {k + 1}: R* = {fam}")
            out.append(f"  cancelled poles: {', '.join(cancelled) if cancelled else 'none'}")
            out.append(f"  consistency: {'PASS' if self.consistency_verdicts[k] else 'FAIL'}")
            out.append(f"  zero agreement at cancelled poles: "
                       f"{'PASS' if self.zero_match_verdicts[k] else 'FAIL'}")
        return "\n".join(out)


def build_report(d: DSF, result) -> AnalysisReport:
    try:
        # the McMillan degree of G is the order of a minimal part of any realization
        ss = transfer_realization(d)
        deg = kalman_reduce(ss.A, ss.B, ss.C)[0].shape[0]
    except (AssumptionError, DsfminError):
        deg = None
    return AnalysisReport(
        p=d.p, m=d.m, l=result.l, phi=result.phi,
        minimal_order=result.order, hidden_state_count=result.hidden,
        mcmillan_degree_G=deg,
        phi_sets=[tuple(result.gilbert.poles[i] for i in c)
                  for c in result.cliques.cliques],
        rstar_families=[r.rstar.pattern() for r in result.realizations],
        cancellation_flags=[r.cancellation_flags for r in result.realizations],
        consistency_verdicts=[r.consistent for r in result.realizations],
        zero_match_verdicts=[all(c.ok for c in r.zero_checks)
                         for r in result.realizations])


# -- graph export -----------------------------------------------------------


def _dsf_graph(d: DSF, tol_struct: float = 1e-9):
    bs = boolean_structure(d, tol_struct)
    nodes = [(f"y{i + 1}", "measured") for i in range(d.p)] + \
            [(f"u{j + 1}", "input") for j in range(d.m)]
    edges = []
    for i in range(d.p):
        for j in range(d.p):
            if i != j and bs.q_adj[i, j]:
                edges.append((f"y{j + 1}", f"y{i + 1}"))
    for i in range(d.p):
        for j in range(d.m):
            if bs.p_adj[i, j]:
                edges.append((f"u{j + 1}", f"y{i + 1}"))
    return nodes, edges


def _realization_graph(part: PartitionedRealization, tol_struct: float = 1e-9):
    ss = part.assemble()
    p, h, m = part.p, part.h, part.m
    names = [f"y{i + 1}" for i in range(p)] + [f"z{i + 1}" for i in range(h)]
    nodes = [(n, "measured") for n in names[:p]] + \
            [(n, "hidden") for n in names[p:]] + \
            [(f"u{j + 1}", "input") for j in range(m)]
    thr = tol_struct * max(float(np.max(np.abs(ss.A))), float(np.max(np.abs(ss.B))), 1.0)
    edges = []
    for i in range(p + h):
        for j in range(p + h):
            if abs(ss.A[i, j]) > thr:
                edges.append((names[j], names[i]))
    for i in range(p + h):
        for j in range(m):
            if abs(ss.B[i, j]) > thr:
                edges.append((f"u{j + 1}", names[i]))
    return nodes, edges


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
    model = parse_model(args.model)
    if model.kind != "state_space":
        raise SchemaError(f"{args.model}: extract expects a state_space model")
    d = model_to_dsf(model, _resolve_tolerances(args, model)["tol_pole"])
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
    model = parse_model(args.model, args.tol_pole)
    tols = _resolve_tolerances(args, model)
    d = model_to_dsf(model, tols["tol_pole"])
    result = minreal_pipeline(d, rule=args.edge_rule, enumerate_all=args.enumerate_all,
                              free_value=args.free_value, shift=args.shift, **tols)
    report = build_report(d, result)
    print(report.to_text(result.gilbert.poles))
    for k, r in enumerate(result.realizations):
        path = f"{args.out_dir}/realization_{k + 1}.json"
        _write_json(part_to_json(r.realization), path)
        print(f"wrote {path}")
    ok = all(report.consistency_verdicts) and all(report.zero_match_verdicts)
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
    from .dsf import consistency_check
    from .minreal import minimal_order

    model = parse_model(args.model, args.tol_pole)
    tols = _resolve_tolerances(args, model)
    d = model_to_dsf(model, tols["tol_pole"])
    rmodel = parse_model(args.realization)
    if rmodel.kind != "state_space":
        raise SchemaError(f"{args.realization}: expected a state_space realization")
    part = rmodel.part
    consistent = consistency_check(part, d, tols["tol_eval"])
    mo = minimal_order(d, rule=args.edge_rule, tol_pole=tols["tol_pole"],
                       tol_rank=tols["tol_rank"], tol_orth=tols["tol_orth"],
                       shift=args.shift)
    print(f"consistent: {'yes' if consistent else 'no'}")
    print(f"realization order: {part.order}; minimal consistent order: {mo.order}")
    if consistent and part.order == mo.order:
        print("verdict: consistent and minimal")
    elif consistent:
        print("verdict: consistent but not minimal")
    else:
        print("verdict: inconsistent")
    return 0 if consistent else 1


def _parse_shift(text):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'auto', got {text!r}")


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
        p.add_argument("--edge-rule", dest="edge_rule", choices=EDGE_RULES,
                       default="support-disjoint")
        p.add_argument("--shift", type=_parse_shift, default="auto",
                       help="frequency shift: a real number or 'auto'")

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
    p_minreal.add_argument("--free-value", dest="free_value", type=float,
                           default=FREE_VALUE)
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


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AssumptionError, RankDeficientC) as exc:
        print(f"assumption violated ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
