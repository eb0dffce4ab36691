"""The three workloads: their inputs, their op and how an answer is read.

An op is one model taken from input to the program's answer.  The op
body calls the program only; reading the answer back and checking it
against the oracle happen after the op's clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import oracle
from generators import pole_residue_input, relay_blocks
from oracle import Answer

M = 2


class OpFailed(Exception):
    """The op returned without an answer: a non-zero exit or a FAIL verdict."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def _verdict_ok(result) -> bool:
    return all(r.consistent and all(c.ok for c in r.zero_checks)
               for r in result.realizations)


def _answer_from_result(result) -> Answer:
    parts = [r.realization for r in result.realizations]
    return Answer(result.l, result.phi, result.order,
                  [(x.A11, x.A12, x.A21, x.A22, x.B1, x.B2) for x in parts])


@dataclass
class Ladder:
    """Library ops on seeded models, interleaved across rungs.

    Models are ordered rung by rung within each round, so any prefix of
    the loop holds every rung in nearly equal numbers.
    """

    rungs: tuple
    per_rung: int

    def make_models(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [(rung, self.draw(rng, rung)) for _ in range(self.per_rung)
                for rung in self.rungs]

    def write_files(self, models, workdir: str):
        pass

    def reset(self, model):
        pass

    def label(self, model) -> str:
        rung = model[0]
        return f"l={rung}" if isinstance(rung, int) else "{}+{}".format(*rung)

    def op(self, dsfmin, model):
        result = self.solve(dsfmin, model[1])
        if not _verdict_ok(result):
            raise OpFailed("verdict_fail")
        return result

    def answer(self, raw, model) -> Answer:
        return _answer_from_result(raw)


class DsfLadder(Ladder):
    """Pole-residue input, p = 4, m = 2, drawn as random_dsf draws it."""

    p = 4

    def draw(self, rng, l):
        return pole_residue_input(rng, self.p, M, l)

    def solve(self, dsfmin, inp):
        ratcore = dsfmin.ratcore
        Q = ratcore.from_pole_residue(
            ratcore.PoleResidueForm(inp.poles, inp.KQ, np.zeros((self.p, self.p))))
        P = ratcore.from_pole_residue(
            ratcore.PoleResidueForm(inp.poles, inp.KP, np.zeros((self.p, M))))
        return dsfmin.minreal.minreal_pipeline(dsfmin.dsf.DSF(Q, P))

    def check(self, answer, model):
        return oracle.check_pole_residue(answer, model[1])


class RelayLadder(Ladder):
    """State-space partitions with constant diag W and known order p + h."""

    def draw(self, rng, size):
        return relay_blocks(rng, *size, M)

    def solve(self, dsfmin, b):
        part = dsfmin.sslib.PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)
        return dsfmin.minreal.minreal_pipeline(dsfmin.dsf.compute_dsf(part))

    def check(self, answer, model):
        return oracle.check_blocks(answer, model[1])


README_MODEL = {
    "kind": "state_space",
    "A": [[-1., 0., 1., 0., 0.], [0., -2., 0., 1., 0.], [0., 1., -3., 0., 1.],
          [1., 0., 0., -4., 0.], [0., 1., 0., 0., -5.]],
    "B": [[1., 0.], [0., 1.], [0., 0.], [0., 0.], [0., 0.]],
    "C": [[1., 0., 0., 0., 0.], [0., 1., 0., 0., 0.], [0., 0., 1., 0., 0.]],
}


def _inv(k):
    return {"num": [1.0], "den": [float(k), 1.0]}


_ZERO = {"num": [0.0], "den": [1.0]}
EX2_MODEL = {
    "kind": "dsf_coeff",
    "Q": [[_ZERO, _inv(2), _inv(3)], [_inv(1), _ZERO, _inv(3)], [_inv(1), _inv(2), _ZERO]],
    "P": [[_inv(4)], [_inv(4)], [_inv(4)]],
}


@dataclass
class CliModel:
    label: str
    data: dict
    blocks: object = None  # generating system of a relay model
    path: str = None       # model file, set by write_files
    out_dir: str = None


class CliEnumerate:
    """In-process ``dsfmin minreal --enumerate-all`` then ``dsfmin verify``."""

    relay_sizes = ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4))
    relays_per_size = 46

    def make_models(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        models = [CliModel("readme", README_MODEL), CliModel("ex2", EX2_MODEL)]
        for _ in range(self.relays_per_size):
            for p, h in self.relay_sizes:
                b = relay_blocks(rng, p, h, M)
                models.append(CliModel(f"relay_{p}+{h}",
                                       {"kind": "state_space", "A": b.A.tolist(),
                                        "B": b.B.tolist(), "p": p}, b))
        return models

    def write_files(self, models, workdir: str):
        """One JSON file per model and one output directory for all of them."""
        out_dir = os.path.join(workdir, "out")  # reset() empties it before each op
        os.makedirs(out_dir, exist_ok=True)
        for k, model in enumerate(models):
            model.path = os.path.join(workdir, f"model_{k}.json")
            model.out_dir = out_dir
            with open(model.path, "w") as fh:
                fh.write(json.dumps(model.data))

    def label(self, model) -> str:
        return model.label

    def reset(self, model):
        """Remove the previous op's realization files, so none is read twice."""
        for name in os.listdir(model.out_dir):
            os.remove(os.path.join(model.out_dir, name))

    def op(self, dsfmin, model):
        """Returns (minreal stdout, verify seconds)."""
        main = dsfmin.cli.main
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["minreal", model.path, "--enumerate-all", "--out-dir", model.out_dir])
            if code:
                raise OpFailed(f"exit_{code}")
            report = out.getvalue()
            t0 = perf_counter()
            code = main(["verify", model.path,
                         os.path.join(model.out_dir, "realization_1.json")])
            verify_s = perf_counter() - t0
        if code:
            raise OpFailed(f"exit_{code}")
        return report, verify_s

    def answer(self, raw, model) -> Answer:
        report = raw[0]
        fields = {}
        families = []
        for line in report.splitlines():
            if line.startswith("poles of [Q P] (l = "):
                fields["l"] = int(line.split("(l = ")[1].split(")")[0])
            elif line.startswith("max simultaneous cancellations phi = "):
                fields["phi"] = int(line.rsplit("= ", 1)[1])
            elif line.startswith("minimal consistent order = "):
                fields["order"] = int(line.split("= ")[1].split()[0])
            elif line.startswith("realization ") and ": R* = " in line:
                families.append(line.split(": R* = ")[1])
        realizations = []
        for k in range(1, len(families) + 1):
            with open(os.path.join(model.out_dir, f"realization_{k}.json")) as fh:
                ss = json.load(fh)
            A, B, p = np.asarray(ss["A"]), np.asarray(ss["B"]), int(ss["p"])
            C = np.asarray(ss["C"])
            n = A.shape[0]
            if not np.array_equal(C, np.eye(p, n)):
                raise ValueError(f"realization_{k}.json: output map is not [I 0]")
            realizations.append((A[:p, :p], A[:p, p:], A[p:, :p], A[p:, p:], B[:p], B[p:]))
        return Answer(fields["l"], fields["phi"], fields["order"], realizations, families)

    def check(self, answer, model):
        if model.label == "readme":
            want = oracle.README_ANSWER
        elif model.label == "ex2":
            want = oracle.EX2_ANSWER
        else:
            return oracle.check_blocks(answer, model.blocks)
        if model.data["kind"] == "dsf_coeff":
            p = len(model.data["Q"])

            def native(s):
                return oracle.qp_from_coeff(model.data["Q"], model.data["P"], s)
        else:
            p = len(model.data["C"])
            A, B = np.asarray(model.data["A"]), np.asarray(model.data["B"])
            parts = (A[:p, :p], A[:p, p:], A[p:, :p], A[p:, p:], B[:p], B[p:])

            def native(s):
                return oracle.qp_from_blocks(parts, s)
        return oracle.check(answer, native, p) + oracle.check_exact(answer, want)


# The ladders stop below the sizes at which the program fails today
# (false ResidueRankExceedsOne): from l = 5 on dsf_ladder and from 4+6
# and 6+6 on relay_ladder, at rates that grow with the number of poles.
# A run must fail no op, so those rungs are not timed here.
WORKLOADS = {
    "dsf_ladder": DsfLadder(rungs=(2, 3, 4), per_rung=150),
    "relay_ladder": RelayLadder(rungs=((3, 2), (4, 2), (4, 3), (5, 3), (5, 4)),
                                per_rung=60),
    "cli_enumerate": CliEnumerate(),
}
