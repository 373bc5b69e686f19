"""The four workloads.  Each drives specrad only through public functions.

A workload is built from the seed (inputs made by the benchmark itself),
then ``setup()`` makes the program's set-up calls (``parse_tensor`` and
``make_problem``; this is what ``setup_s`` times), ``verify_setup()``
asserts the intended regime, and ``op(i)`` runs op ``i``.  Ops repeat in
passes of ``pass_len``; ``check(i, out)`` returns the oracle's failure
causes for op ``i``.  Module attributes are looked up at call time so that
a tracer's wrappers are used when installed.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
import oracle

SINGLETONS = [[0], [1], [2]]


class SetupError(RuntimeError):
    """The generated instance is not in the regime the workload is for."""


def require_regime(sr, prob, regime: str) -> None:
    found = sr.classify_regime(prob).regime.value
    if found != regime:
        raise SetupError(f"instance regime is {found}, expected {regime}")


class Reference:
    """The nine bundled cases, each solved with ``lsnnm`` and ``power``.

    The seed only permutes the order of the cases within a pass.
    """

    name = "reference"

    def __init__(self, sr, seed: int, workdir: Path) -> None:
        from specrad.bench import BENCH_CASES, LAMBDA_TOL

        self.sr = sr
        self.lambda_tol = LAMBDA_TOL
        self.tol = sr.SolverOptions().tol
        t = sr.reference_tensor()
        self.idx, self.vals = np.array(t.indices), np.array(t.values)
        self.text = gen.to_text(t.dims, self.idx, self.vals)
        order = np.random.default_rng(seed).permutation(len(BENCH_CASES))
        self.cases = [BENCH_CASES[k] for k in order]
        self.jobs = [(c, m) for c in range(len(self.cases)) for m in ("newton_noda", "power_iteration")]
        self.pass_len = len(self.jobs)
        self.notes = []
        for case in BENCH_CASES:
            s = sum(Fraction(len(b)) / Fraction(p) for b, p in zip(case.blocks, case.p))
            mark = "=" if s == 1 else ("<" if s < 1 else ">")
            if mark != case.mark_ref:
                self.notes.append(
                    f"BENCH_CASES mark_ref for {case.partition_spec} p={','.join(case.p)} "
                    f"is {case.mark_ref!r} but sum(nu/p) = {s} exactly ({mark!r}); "
                    "recorded, not counted as a failure"
                )
        self.brackets: dict[int, tuple] = {}

    def setup(self) -> None:
        tensor = self.sr.parse_tensor(self.text)
        self.problems = [self.sr.make_problem(tensor, c.blocks, c.p) for c in self.cases]

    def verify_setup(self) -> None:
        pass

    def op(self, i: int):
        c, method = self.jobs[i % self.pass_len]
        return getattr(self.sr, method)(self.problems[c])

    def check(self, i: int, res) -> list[str]:
        c, method = self.jobs[i % self.pass_len]
        case = self.cases[c]
        where = f"{case.partition_spec} p={','.join(case.p)} {method}"
        if not res.converged:
            return [f"{where}: not converged"]
        p = [float(Fraction(v)) for v in case.p]
        causes, bracket = oracle.check_pair(
            self.idx, self.vals, case.blocks, p, res.x.blocks, res.lambda_star, self.tol)
        if abs(res.lambda_star - case.lambda_ref) > self.lambda_tol:
            causes.append(f"lambda {res.lambda_star:.6f} differs from {case.lambda_ref} by more than {self.lambda_tol}")
        if method == "newton_noda":
            self.brackets[c] = bracket
        elif c in self.brackets and not oracle.brackets_agree(self.brackets[c], bracket, self.tol):
            causes.append(f"power bracket {bracket} and Newton bracket {self.brackets[c]} disagree")
        return [f"{where}: {m}" for m in causes]

    def close(self) -> None:
        pass


class Generated:
    """One seeded order-3 instance, all-singleton partition, one solver."""

    n: int
    p: int
    method: str
    regime: str
    pass_len = 1

    def __init__(self, sr, seed: int, workdir: Path) -> None:
        self.sr = sr
        self.tol = sr.SolverOptions().tol
        self.idx, self.vals = gen.instance(self.n, seed)
        self.text = gen.to_text((self.n,) * 3, self.idx, self.vals)
        self.notes = [f"n={self.n} per mode, N={3 * self.n}, nnz={self.vals.size}, text {len(self.text) / 1e6:.2f} MB"]

    def setup(self) -> None:
        tensor = self.sr.parse_tensor(self.text)
        self.prob = self.sr.make_problem(tensor, SINGLETONS, [self.p] * 3)

    def verify_setup(self) -> None:
        require_regime(self.sr, self.prob, self.regime)

    def op(self, i: int):
        return getattr(self.sr, self.method)(self.prob)

    def check(self, i: int, res) -> list[str]:
        if not res.converged:
            return [f"{self.method}: not converged (res={res.res:.3e})"]
        causes, _ = oracle.check_pair(
            self.idx, self.vals, SINGLETONS, [float(self.p)] * 3, res.x.blocks, res.lambda_star, self.tol)
        return [f"{self.method}: {m}" for m in causes]

    def close(self) -> None:
        pass


class NewtonDense(Generated):
    name = "newton-dense"
    n, p, method, regime = 200, 4, "newton_noda", "BothValid"


class PowerLarge(Generated):
    name = "power-large"
    n, p, method, regime = 2000, 3, "power_iteration", "WeaklyIrrCritical"


class CliSession:
    """``random``, ``check`` and two ``solve`` calls of ``specrad.cli.main``
    on files in a private directory; one op is the whole session."""

    name = "cli-session"
    pass_len = 1
    dims, density, p, partition = "100,100,100", "0.03", "3,3,3", "1;2;3"
    regime = "WeaklyIrrCritical"

    def __init__(self, sr, seed: int, workdir: Path) -> None:
        import specrad.cli

        self.sr = sr
        self.cli = specrad.cli
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.tensor = str(self.dir / "tensor.txt")
        self.out = {m: (str(self.dir / f"{m}.json"), str(self.dir / f"{m}.csv")) for m in ("power", "lsnnm")}
        problem = ["--tensor", self.tensor, "--partition", self.partition, "--p", self.p]
        self.argvs = [
            ["random", "--dims", self.dims, "--density", self.density, "--seed", str(seed), "--out", self.tensor],
            ["check", *problem],
            *(["solve", *problem, "--method", m, "--json", j, "--trace", t] for m, (j, t) in self.out.items()),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            if self.cli.main(self.argvs[0]) != 0:
                raise SetupError("specrad random failed")
        self.text = Path(self.tensor).read_text(encoding="utf-8")
        _, self.idx, self.vals = oracle.parse_text(self.text)
        self.tol = sr.SolverOptions().tol
        self.notes = [f"tensor file {len(self.text) / 1e6:.2f} MB, nnz={self.vals.size}"]

    def setup(self) -> None:
        tensor = self.sr.parse_tensor(self.text)
        self.prob = self.sr.make_problem(tensor, SINGLETONS, self.p.split(","))

    def verify_setup(self) -> None:
        require_regime(self.sr, self.prob, self.regime)

    def op(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes = [self.cli.main(argv) for argv in self.argvs]
        return codes, buf.getvalue()

    def check(self, i: int, out) -> list[str]:
        codes, stdout = out
        causes = [f"{argv[0]} exited {c}" for argv, c in zip(self.argvs, codes) if c != 0]
        if causes:
            return causes
        if Path(self.tensor).read_text(encoding="utf-8") != self.text:
            causes.append("random wrote a different tensor than at set-up")
        if json.loads(stdout).get("regime") != self.regime:
            causes.append(f"check reported regime other than {self.regime}")
        brackets = []
        for method, (jpath, tpath) in self.out.items():
            doc = json.loads(Path(jpath).read_text(encoding="utf-8"))
            if not doc.get("converged"):
                causes.append(f"solve {method}: not converged")
                continue
            msgs, bracket = oracle.check_pair(
                self.idx, self.vals, SINGLETONS, [3.0] * 3, doc["x"], doc["lambda_star"], self.tol)
            causes += [f"solve {method}: {m}" for m in msgs]
            brackets.append(bracket)
            rows = Path(tpath).read_text(encoding="utf-8").splitlines()
            if len(rows) != len(doc["trace"]) + 1:
                causes.append(f"solve {method}: trace CSV has {len(rows) - 1} rows, JSON {len(doc['trace'])}")
        if len(brackets) == 2 and not oracle.brackets_agree(*brackets, self.tol):
            causes.append(f"power bracket {brackets[0]} and Newton bracket {brackets[1]} disagree")
        return causes

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Reference, NewtonDense, PowerLarge, CliSession)}
