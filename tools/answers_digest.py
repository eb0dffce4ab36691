"""One SHA-256 over every answer the library gives on the benchmark's ladder pools.

    python3 tools/answers_digest.py <root>

The models are the seed 0 and seed 1 pools of perfbench's ``dsf_ladder``
and ``relay_ladder``, taken from this script's own tree, and each is
turned into a ``DSF`` exactly as the workload's op does.  The library is
imported from ``<root>/src``, so two checkouts of different commits hash
the same models and print digests that are equal exactly when their
answers agree bit for bit.  Per model it hashes
  - the poles, residues and modes of the ``DSF``;
  - ``rmat_poles`` and ``residue_at`` of its rational [Q P] at
    ``tol_pole`` 1e-6 and 1e-3;
  - for ``minreal_pipeline`` with ``enumerate_all`` off and on: the modes
    it extracted, ``l``, ``phi``, the order and hidden count, the graph's
    edges, and per realization its blocks, its R* pattern, its
    cancellation flags, its consistency verdict and its zero checks.
An error is hashed by its class and message.  The last line printed is
the digest.
"""

import os

# pin BLAS threads before numpy loads, as perfbench does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)
LADDERS = ("dsf_ladder", "relay_ladder")
TOL_POLES = (1e-6, 1e-3)


def feed(h, x):
    """Add x to the hash: arrays by dtype, shape and bytes, containers item by item."""
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(f"[{len(x)}".encode())
        for item in x:
            feed(h, item)
        h.update(b"]")
    else:
        h.update(f"{type(x).__name__}:{x!r};".encode())


def guarded(fn, *args, **kwargs):
    """fn's result, or its error's class and message."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # an error is an answer too
        return ("error", type(exc).__name__, str(exc))


def rational_answers(dsfmin, d):
    """Poles and residues of the rational [Q P] at each of TOL_POLES."""
    ratcore = dsfmin.ratcore
    qp = d.qp()
    out = []
    for tol in TOL_POLES:
        poles = guarded(ratcore.rmat_poles, qp, tol)
        out.append(poles)
        if not isinstance(poles, tuple):  # a tuple is an error
            out.append([guarded(ratcore.residue_at, qp, lam, tol) for lam in poles])
    return out


def pipeline_answers(result):
    g = result.gilbert
    out = [g.poles, g.E, g.F, g.D1, g.shift, result.l, result.phi, result.order,
           result.hidden, result.graph.edges, result.cliques.cliques]
    for r in result.realizations:
        x = r.realization
        out.append([x.A11, x.A12, x.A21, x.A22, x.B1, x.B2, r.rstar.pattern(),
                    r.cancellation_flags, r.cancelled_poles, r.consistent,
                    [(c.point, c.v_zero, c.g_zero, c.expected) for c in r.zero_checks]])
    return out


def model_answers(dsfmin, ladder, inp):
    # the op's own solve, with minreal_pipeline swapped for one that hands back its input
    capture = SimpleNamespace(ratcore=dsfmin.ratcore, dsf=dsfmin.dsf, sslib=dsfmin.sslib,
                              minreal=SimpleNamespace(minreal_pipeline=lambda d: d))
    d = guarded(ladder.solve, capture, inp)
    if isinstance(d, tuple):  # an error
        return [d]
    out = [d.poles, d.residues, d.modes, rational_answers(dsfmin, d)]
    for enumerate_all in (False, True):
        result = guarded(dsfmin.minreal.minreal_pipeline, d, enumerate_all=enumerate_all)
        out.append(result if isinstance(result, tuple) else pipeline_answers(result))
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/answers_digest.py <root>", file=sys.stderr)
        return 2
    src = os.path.join(os.path.abspath(argv[1]), "src")
    sys.path.insert(0, src)
    dsfmin = importlib.import_module("dsfmin")
    if not os.path.abspath(dsfmin.__file__).startswith(src + os.sep):
        sys.exit(f"dsfmin was imported from {dsfmin.__file__}, not {src}")
    total = hashlib.sha256()
    for name in LADDERS:
        ladder = WORKLOADS[name]
        for seed in SEEDS:
            h = hashlib.sha256()
            models = ladder.make_models(seed)
            for _, inp in models:
                feed(h, model_answers(dsfmin, ladder, inp))
            print(f"{name} seed {seed}: {len(models)} models {h.hexdigest()}")
            total.update(h.digest())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
