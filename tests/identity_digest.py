"""Digests of specrad's outputs, to show that a change keeps them bit for bit.

Run from the root of a checkout::

    PYTHONPATH=src python tests/identity_digest.py

It prints seven lines; the same lines on two trees mean the same bits.
``--expect FILE`` compares them with lines saved from an earlier run (its
printed output), names each line that differs and exits 1 on any
mismatch::

    PYTHONPATH=src python tests/identity_digest.py > digest.txt
    PYTHONPATH=src python tests/identity_digest.py --expect digest.txt

BLAS runs on one thread, as in the benchmark, because the last bits of a
LAPACK solve depend on the thread count: the ``cli`` line read differently
with two threads than with one.

- ``bench``: the nine ``BENCH_CASES`` solved by both methods (x, lambda,
  bracket, res, iterations and trace), hashed as in CHANGES.md's recipe.
- ``ring``: ring cubes (``conftest.ring_cube``) solved on the dense Newton,
  GMRES Newton and power paths, one partition with a multi-mode block
  among them; their ``AssumptionReport``s; and ``gradient_map`` and
  ``gradient_map_jacobian`` at a seeded positive point.
- ``cli``: the files ``specrad random``, ``check --json`` and
  ``solve --json --trace`` (both methods) write for the 0.84 MB tensor of
  ``random --dims 100,100,100 --density 0.03 --seed 0``.
- ``newton`` and ``power``: every output of one method among the above
  (the nine bench solves, the ring-cube solves and the CLI's ``lsnnm.json``
  and ``lsnnm.csv``, or ``power.json`` and ``power.csv``), so that a change
  to one method can show that it left the other bit for bit as it was.
- ``jacobian``: the dense ``gradient_map_jacobian`` of the nine
  ``BENCH_CASES`` problems and of the ring cubes above, each at a seeded
  positive point, so that a change to the gradient map's summation can show
  that the Jacobian kept its bits.
- ``bordered``: the dense bordered Newton matrix ``newton_matrix`` of the
  same problems at the same points, with ``lambda`` their largest ratio.

The script uses public names only, so it runs against older trees too.

The file name keeps it out of pytest's collection.
"""
import os

# Pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import ring_cube  # noqa: E402

import specrad as sr  # noqa: E402
from specrad.bench import BENCH_CASES  # noqa: E402
from specrad.cli import main  # noqa: E402

#: (ring-cube n, seed, blocks, p, method): Newton takes the dense step up to
#: N = 300 and the GMRES one above; N is n times the number of blocks.
RING_SOLVES = (
    (30, 0, ((0,), (1,), (2,)), ("4", "4", "4"), "lsnnm"),
    (30, 0, ((0,), (1, 2)), ("3", "4"), "lsnnm"),
    (120, 1, ((0,), (1,), (2,)), ("4", "4", "4"), "lsnnm"),
    (160, 1, ((0,), (1, 2)), ("3", "4"), "lsnnm"),
    (310, 3, ((0, 1, 2),), ("4",), "lsnnm"),
    (200, 2, ((0,), (1,), (2,)), ("3", "3", "3"), "power"),
    (200, 2, ((0,), (1, 2)), ("3", "4"), "power"),
)


def result_bytes(r) -> bytes:
    return r.x.flat.tobytes() + repr(
        (r.lambda_star, r.cw_lower, r.cw_upper, r.res, r.iterations, r.trace)
    ).encode()


def digest(parts) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


# Each ``*_parts`` yields ``(method, bytes)``: the solver method that made
# the bytes, or None.
def bench_parts():
    for c in BENCH_CASES:
        for m in ("lsnnm", "power"):
            prob = sr.make_problem(sr.reference_tensor(), c.blocks, c.p)
            yield m, result_bytes(sr.solve(prob, method=m))


def seeded_point(prob, seed: int):
    return sr.BlockVector.from_flat(
        np.random.default_rng(seed).uniform(0.2, 2.0, prob.partition.total_dim),
        prob.partition.block_dims,
    )


def ring_parts():
    for n, seed, blocks, p, method in RING_SOLVES:
        prob = sr.make_problem(ring_cube(n, seed), blocks, p)
        yield None, repr(sr.classify_regime(prob)).encode()
        x = seeded_point(prob, seed)
        yield None, sr.gradient_map(prob, x).flat.tobytes()
        yield None, sr.gradient_map_jacobian(prob, x).tobytes()
        yield method, result_bytes(sr.solve(prob, method=method))


def seeded_problems():
    """The nine ``BENCH_CASES`` problems and the ring cubes, each with a
    seeded positive point."""
    for k, c in enumerate(BENCH_CASES):
        prob = sr.make_problem(sr.reference_tensor(), c.blocks, c.p)
        yield prob, seeded_point(prob, k)
    for n, seed, blocks, p, _ in RING_SOLVES:
        prob = sr.make_problem(ring_cube(n, seed), blocks, p)
        yield prob, seeded_point(prob, seed)


def jacobian_parts():
    for prob, x in seeded_problems():
        yield None, sr.gradient_map_jacobian(prob, x).tobytes()


def bordered_parts():
    for prob, x in seeded_problems():
        yield None, sr.newton_matrix(prob, x, sr.ratio_max(prob, x)).tobytes()


def cli_parts():
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        problem = ["--tensor", str(d / "t.txt"), "--partition", "1;2;3", "--p", "3,3,3"]
        argvs = [
            ["random", "--dims", "100,100,100", "--density", "0.03", "--seed", "0",
             "--out", str(d / "t.txt")],
            ["check", *problem, "--json", str(d / "check.json")],
            *(["solve", *problem, "--method", m, "--json", str(d / f"{m}.json"),
               "--trace", str(d / f"{m}.csv")] for m in ("lsnnm", "power")),
        ]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        for name in ("t.txt", "check.json", "lsnnm.json", "lsnnm.csv", "power.json", "power.csv"):
            yield name.split(".")[0], (d / name).read_bytes()


def compare(lines, expected) -> list[str]:
    """One message for each line of ``lines`` that differs from the line of
    the same name in ``expected``, and for each name found in only one."""
    got = dict(line.split(None, 1) for line in lines)
    want = dict(line.split(None, 1) for line in expected if line.strip())
    return [
        f"{name}: expected {want.get(name, '(none)')}, got {got.get(name, '(none)')}"
        for name in [*want, *(n for n in got if n not in want)]
        if got.get(name) != want.get(name)
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--expect", metavar="FILE",
        help="compare the printed lines with those saved in FILE; exit 1 naming each that differs",
    )
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    lines = []

    def emit(name, value):
        lines.append(f"{name} {value}")
        print(lines[-1], flush=True)

    by_method = {"lsnnm": [], "power": []}
    for name, make in (("bench", bench_parts), ("ring ", ring_parts), ("cli  ", cli_parts)):
        parts = list(make())
        for method, b in parts:
            if method in by_method:
                by_method[method].append(b)
        emit(name, digest(b for _, b in parts))
    emit("newton", digest(by_method["lsnnm"]))
    emit("power", digest(by_method["power"]))
    emit("jacobian", digest(b for _, b in jacobian_parts()))
    emit("bordered", digest(b for _, b in bordered_parts()))
    if args.expect:
        mismatches = compare(lines, Path(args.expect).read_text().splitlines())
        for message in mismatches:
            print(f"mismatch: {message}", file=sys.stderr)
        sys.exit(1 if mismatches else 0)
