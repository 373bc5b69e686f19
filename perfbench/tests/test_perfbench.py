"""Tests of the benchmark's own parts: generator, oracle and tracer.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
import json
from pathlib import Path

import numpy as np

import specrad as sr
import specrad.cli
import gen
import oracle
import tracing
import workloads


def small_problem(seed=3, n=12, p=4):
    idx, vals = gen.instance(n, seed)
    tensor = sr.parse_tensor(gen.to_text((n,) * 3, idx, vals))
    return idx, vals, sr.make_problem(tensor, workloads.SINGLETONS, [p] * 3)


def test_generator_is_deterministic_per_seed():
    a, b, c = gen.instance(40, 7), gen.instance(40, 7), gen.instance(40, 8)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])
    assert gen.to_text((40,) * 3, *a) == gen.to_text((40,) * 3, *b)


def test_generator_instance_shape_and_regime():
    idx, vals, prob = small_problem()
    assert len(np.unique(idx, axis=0)) == len(idx)
    assert np.all((vals > 0) & (vals <= 1))
    rows = {tuple(r) for r in idx.tolist()}
    assert all((t, t, t) in rows and (t, (t + 1) % 12, (t + 1) % 12) in rows for t in range(12))
    assert sr.classify_regime(prob).regime.value == "BothValid"


def test_oracle_accepts_a_solve_and_rejects_perturbations():
    idx, vals, prob = small_problem()
    res = sr.newton_noda(prob)
    blocks = res.x.blocks
    causes, (lo, hi) = oracle.check_pair(idx, vals, workloads.SINGLETONS, [4.0] * 3, blocks, res.lambda_star, 1e-12)
    assert causes == [] and lo <= res.lambda_star <= hi
    causes, _ = oracle.check_pair(idx, vals, workloads.SINGLETONS, [4.0] * 3, blocks, res.lambda_star * (1 + 1e-6), 1e-12)
    assert any("outside the bracket" in c for c in causes)
    bad = [b.copy() for b in blocks]
    bad[1][0] = 0.0
    causes, _ = oracle.check_pair(idx, vals, workloads.SINGLETONS, [4.0] * 3, bad, res.lambda_star, 1e-12)
    assert causes == ["x is not strictly positive and finite"]
    bad[1][0] = -blocks[1][0]
    causes, _ = oracle.check_pair(idx, vals, workloads.SINGLETONS, [4.0] * 3, bad, res.lambda_star, 1e-12)
    assert causes == ["x is not strictly positive and finite"]


def test_oracle_text_parser_matches_generator():
    idx, vals = gen.instance(9, 1)
    dims, idx2, vals2 = oracle.parse_text(gen.to_text((9,) * 3, idx, vals))
    assert dims == (9, 9, 9) and np.array_equal(idx, idx2) and np.array_equal(vals, vals2)


def test_wrappers_cover_every_binding_and_restore_originals():
    bindings = [
        (sr, "newton_noda"),
        (sr.solvers, "lu_solve"),
        (sr.linalg, "lu_solve"),
        (specrad.cli, "classify_regime"),
        (sr.structure, "gradient_map_jacobian"),
        (sr.tensor_io, "parse_tensor"),
    ]
    before = [getattr(m, a) for m, a in bindings]
    tracer = tracing.Tracer()
    with tracer:
        for (m, a), f in zip(bindings, before):
            assert getattr(m, a) is not f and getattr(m, a).__wrapped__ is f
    assert all(getattr(m, a) is f for (m, a), f in zip(bindings, before))
    assert tracer.absent == []


def run_traced(prob, passes):
    tracer = tracing.Tracer()
    with tracer:
        for i in range(passes):
            tracer.op_id = i
            result = sr.newton_noda(prob)
    return tracer, result


def test_traced_solve_is_bit_identical_and_counts_repeat():
    _, _, prob = small_problem()
    plain = sr.newton_noda(prob)
    tracer, traced = run_traced(prob, 2)
    assert traced.lambda_star == plain.lambda_star
    assert traced.x.flat.tobytes() == plain.x.flat.tobytes()
    assert traced.trace == plain.trace
    once = tracing.layer_metrics(run_traced(prob, 1)[0], {0}, 1)
    twice = tracing.layer_metrics(tracer, {0, 1}, 2)
    for name, unit in tracing.PER_LAYER.items():
        if unit in ("count", "MB", "GFLOP") and name in once:
            assert once[name] == twice[name], name
    assert once["solvers.iterations"] == plain.iterations
    assert once["linalg.lu_solve_calls"] == plain.iterations
    assert once["structure.classify_calls"] == 1


def test_removed_function_is_reported_absent(monkeypatch):
    _, _, prob = small_problem()
    monkeypatch.setattr(sr.linalg, "__all__", ["dominant_eigpair", "strong_components"])
    tracer = tracing.Tracer()
    with tracer:
        tracer.op_id = 0
        sr.newton_noda(prob)
    assert "linalg.lu_solve" in tracer.absent
    metrics = tracing.layer_metrics(tracer, {0}, 1)
    assert metrics["linalg.lu_solve_calls"] == 0 and metrics["solvers.iterations"] > 0


def test_reference_pass_passes_the_oracle_and_records_the_table_mismatch(tmp_path):
    wl = workloads.Reference(sr, 0, tmp_path)
    wl.setup()
    for i in range(wl.pass_len):
        assert wl.check(i, wl.op(i)) == []
    assert any("1;2,3 p=2,4" in note for note in wl.notes)


def test_cli_session_passes_the_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.CliSession, "dims", "12,12,12")
    monkeypatch.setattr(workloads.CliSession, "density", "0.3")
    wl = workloads.CliSession(sr, 5, tmp_path / "cli")
    wl.setup()
    wl.verify_setup()
    assert wl.check(0, wl.op(0)) == []
    wl.close()
    assert not (tmp_path / "cli").exists()


def test_benchmark_json_lists_what_the_runner_reports():
    import run

    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_an_op_or_check_that_raises_is_one_counted_failure():
    import run

    class Faulty:
        pass_len = 1

        def op(self, i):
            if i == 0:
                raise ValueError("op broke")
            return i

        def check(self, i, out):
            if out == 1:
                raise KeyError("lambda_star")
            return []

    loop = run.Loop(Faulty())
    for i in range(3):
        loop.one(i)
    assert (loop.attempted, loop.failed) == (3, 2)
    causes = list(loop.causes)
    assert causes[0].startswith("ValueError: op broke")
    assert causes[1].startswith("check raised KeyError: 'lambda_star'")
