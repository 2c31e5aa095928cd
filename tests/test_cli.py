import csv
import json
import math

import numpy as np
import pytest

from sse.attacksim import AttackScenario, discretize_ugv, run_closed_loop
from sse.bench import iteration_bound
from sse.cli import main
from sse.theory import Strategy


@pytest.fixture
def ugv_model_file(tmp_path):
    path = tmp_path / "ugv.json"
    discretize_ugv().model.save(path)
    return str(path)


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def write_window_trace(path, outputs, inputs):
    p = outputs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"y{i + 1}" for i in range(p)] + ["u1"])
        for y_row, u_row in zip(outputs, inputs):
            writer.writerow([format(float(v), ".17g") for v in y_row]
                            + [format(float(u_row[0]), ".17g")])


def attacked_window(attack=25.0, sensor=2, steps=6):
    """Simulate the vehicle open loop and corrupt one encoder.

    Returns the outputs, the inputs, and the true state at the final sample.
    """
    model = discretize_ugv().model
    x = np.array([0.5, 0.2])
    outputs, inputs = [], []
    for t in range(steps):
        u = 0.3 * math.sin(t)
        y = model.C @ x
        y[sensor] += attack
        outputs.append(y)
        inputs.append([u])
        x_last = x
        x = model.A @ x + model.B @ [u]
    return np.array(outputs), np.array(inputs), x_last


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


def test_observability_reports_ugv_facts(ugv_model_file, capsys):
    assert main(["observability", ugv_model_file]) == 0
    out = capsys.readouterr().out
    assert "kernel_dims=0,1,1" in out
    assert "sparse_observable s=0: yes" in out
    assert "sparse_observable s=1: no" in out
    assert "delta_s = undefined" in out


def test_observability_warns_about_large_budget(tmp_path, capsys):
    model = discretize_ugv().model
    import dataclasses

    big = dataclasses.replace(model, s_bar=2)
    path = tmp_path / "big.json"
    big.save(path)
    assert main(["observability", str(path)]) == 0
    assert "cannot be uniquely" in capsys.readouterr().out


def test_observability_constants_for_healthy_model(tmp_path, capsys):
    from sse.attacksim import generate_instance

    inst = generate_instance(2, 5, 1, 1, "2s", 0.1, seed=0)
    path = tmp_path / "model.json"
    inst.model.save(path)
    assert main(["observability", str(path), "--max-s", "2"]) == 0
    out = capsys.readouterr().out
    assert "sparse_observable s=2: yes" in out
    assert "o_bar" in out and "detection_threshold_sq" in out


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"A": [[1, 2],')
    assert main(["observability", str(path)]) == 3
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path):
    assert main(["observability", str(tmp_path / "nope.json")]) == 3


def test_subset_cap_exit_code(tmp_path):
    from sse.attacksim import generate_instance

    inst = generate_instance(2, 12, 1, 4, "2s", 0.0, seed=1)
    path = tmp_path / "wide.json"
    inst.model.save(path)
    assert main(["observability", str(path), "--max-s", "6", "--subset-cap", "5"]) == 4


# ---------------------------------------------------------------------------
# estimate / oracle
# ---------------------------------------------------------------------------


def test_estimate_recovers_attacked_encoder(ugv_model_file, tmp_path, capsys):
    outputs, inputs, x_final = attacked_window()
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, inputs)
    out_path = tmp_path / "estimate.json"
    code = main(["estimate", ugv_model_file, str(trace_path),
                 "--strategy", "conflict", "--output", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "feasible"
    assert doc["support"] == [2]
    assert np.allclose(doc["x_current"], x_final, atol=1e-9)
    assert doc["iterations"] >= 1
    assert doc["trace"]


def test_estimate_accepts_legacy_verification_key(ugv_model_file, tmp_path, capsys):
    with open(ugv_model_file) as fh:
        doc = json.load(fh)
    doc["verified_sparse_obs"] = 1
    model_path = tmp_path / "legacy.json"
    model_path.write_text(json.dumps(doc))
    outputs, inputs, _ = attacked_window()
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, inputs)
    assert main(["estimate", str(model_path), str(trace_path)]) == 0
    assert json.loads(capsys.readouterr().out)["support"] == [2]


def test_estimate_short_trace_is_input_error(ugv_model_file, tmp_path, capsys):
    trace_path = tmp_path / "short.csv"
    write_window_trace(trace_path, np.zeros((1, 3)), np.zeros((1, 1)))
    assert main(["estimate", ugv_model_file, str(trace_path)]) == 3
    assert "need at least tau" in capsys.readouterr().err


def test_estimate_missing_columns(ugv_model_file, tmp_path, capsys):
    trace_path = tmp_path / "cols.csv"
    trace_path.write_text("y1,y2\n0,0\n0,0\n")
    assert main(["estimate", ugv_model_file, str(trace_path)]) == 3
    assert "missing columns" in capsys.readouterr().err


def test_estimate_infeasible_exit_code(tmp_path, capsys):
    # both encoders disagree with each other and the GPS: budget 1 cannot cope
    model = discretize_ugv().model
    path = tmp_path / "ugv.json"
    model.save(path)
    outputs = np.array([[0.0, 50.0, -50.0], [0.0, 50.0, -50.0]])
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, np.zeros((2, 1)))
    assert main(["estimate", str(path), str(trace_path)]) == 2


def test_estimate_minimal_support_matches_oracle(ugv_model_file, tmp_path, capsys):
    outputs, inputs, _ = attacked_window()
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, inputs)
    assert main(["estimate", ugv_model_file, str(trace_path), "--minimal-support"]) == 0
    est = json.loads(capsys.readouterr().out)
    assert main(["oracle", ugv_model_file, str(trace_path)]) == 0
    orc = json.loads(capsys.readouterr().out)
    assert orc["minimal"] == [[2]]
    assert est["support"] == [2]


def test_estimate_treats_nan_reading_as_attacked(ugv_model_file, tmp_path, capsys):
    outputs, inputs, x_final = attacked_window(attack=0.0)
    outputs[-1, 2] = math.nan
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, inputs)
    assert "nan" in trace_path.read_text()
    assert main(["estimate", ugv_model_file, str(trace_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["support"] == [2]
    assert doc["iterations"] == 1
    assert doc["certificates"][0] == {"kind": "at_least_one_attacked", "sensors": [2]}
    assert np.allclose(doc["x_current"], x_final, atol=1e-9)
    assert main(["oracle", ugv_model_file, str(trace_path)]) == 0
    orc = json.loads(capsys.readouterr().out)
    assert orc["minimal"] == [[2]]


def test_trace_reads_simulator_csv(tmp_path, capsys):
    model = discretize_ugv().model
    model_path = tmp_path / "ugv.json"
    model.save(model_path)
    scenario = AttackScenario(phases=(), steps=30, segment_steps=30)
    trace = run_closed_loop(discretize_ugv(), scenario, seed=0)
    csv_path = tmp_path / "sim.csv"
    trace.to_csv(csv_path)
    assert main(["estimate", str(model_path), str(csv_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["support"] == []


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_bundled_scenario(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["simulate", "ugv_alternating", "--steps", "40", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,x_true,v_true")
    assert len(lines) == 41


def test_simulate_scenario_file_attack_free(tmp_path):
    scn_path = tmp_path / "quiet.json"
    AttackScenario(phases=(), steps=25, segment_steps=25).save(scn_path)
    out = tmp_path / "quiet.csv"
    assert main(["simulate", str(scn_path), "--output", str(out)]) == 0
    rows = _csv_rows(out)
    assert len(rows) == 25
    assert all(row["b1"] == "0" and row["b2"] == "0" and row["b3"] == "0" for row in rows)


def test_simulate_unknown_scenario(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "ghost.json")]) == 3
    assert "scenario not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def bench_spec(tmp_path, sweeps):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"sweeps": sweeps}))
    return str(path)


def test_bench_produces_trials_and_aggregates(tmp_path):
    spec = bench_spec(tmp_path, [{
        "n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 3, "seed": 11,
        "strategies": ["trivial", "conflict"],
    }])
    out = tmp_path / "bench.csv"
    assert main(["bench", spec, "--output", str(out)]) == 0
    rows = _csv_rows(out)
    trials = [r for r in rows if r["record"] == "trial"]
    aggregates = [r for r in rows if r["record"] == "aggregate"]
    assert len(trials) == 6 and len(aggregates) == 2
    for row in trials:
        assert row["status"] == "feasible"
        assert int(row["iterations"]) <= int(row["theoretical_bound"])
        assert float(row["estimation_error"]) <= 1e-6
    gmean = {r["strategy"]: float(r["iterations"]) for r in aggregates}
    assert gmean["conflict"] <= gmean["trivial"] + 1e-9


def test_bench_jobs_deterministic(tmp_path):
    spec = bench_spec(tmp_path, [{
        "n": 2, "p": 5, "s": 1, "s_bar": 1, "trials": 4, "seed": 3,
        "strategies": ["conflict"],
    }])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", spec, "--output", str(out1)]) == 0
    assert main(["bench", spec, "--output", str(out2), "--jobs", "2"]) == 0
    strip = lambda text: [",".join(line.split(",")[:11]) for line in text.splitlines()]
    # identical apart from wall-time jitter
    rows1 = _csv_rows(out1)
    rows2 = _csv_rows(out2)
    for r1, r2 in zip(rows1, rows2):
        r1.pop("wall_time"), r2.pop("wall_time")
        assert r1 == r2


def test_bench_empty_spec(tmp_path, capsys):
    spec = bench_spec(tmp_path, [])
    assert main(["bench", spec]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("record,sweep,trial")
    assert len(out.strip().splitlines()) == 1


def test_bench_capped_trials_recorded(tmp_path):
    spec = bench_spec(tmp_path, [{
        "n": 3, "p": 8, "s": 2, "s_bar": 2, "trials": 1, "seed": 0,
        "strategies": ["trivial"], "max_iterations": 2,
    }])
    out = tmp_path / "bench.csv"
    assert main(["bench", spec, "--output", str(out)]) == 0
    rows = [r for r in _csv_rows(out) if r["record"] == "trial"]
    assert rows[0]["status"] == "capped"
    assert rows[0]["iterations"] == "2"


def test_iteration_bound_values():
    assert iteration_bound(Strategy.TRIVIAL, 4, 1) == 5
    assert iteration_bound(Strategy.CONFLICT, 4, 1) == math.comb(4, 3)
    assert iteration_bound(Strategy.CONFLICT_AGREE, 60, 20) == math.comb(60, 21)


def test_bench_scaling_sweep_shape(tmp_path):
    # growing state and sensor counts together, with the budget at a third of
    # the sensors and every budgeted sensor actually attacked
    sweeps = [{
        "n": n, "p": 3 * n, "s": n, "s_bar": n, "trials": 2, "seed": 50 + n,
        "strategies": ["trivial", "conflict"], "max_iterations": 2000,
    } for n in (2, 3, 4)]
    spec = bench_spec(tmp_path, sweeps)
    out = tmp_path / "scaling.csv"
    assert main(["bench", spec, "--output", str(out)]) == 0
    rows = [r for r in _csv_rows(out) if r["record"] == "trial"]
    assert len(rows) == 12
    for row in rows:
        assert row["status"] in ("feasible", "capped")
        assert int(row["iterations"]) <= int(row["theoretical_bound"])


def test_observability_min_card_flag(ugv_model_file, capsys):
    assert main(["observability", ugv_model_file, "--min-card", "1",
                 "--full-rank-only"]) == 0
    out = capsys.readouterr().out
    assert "o_bar (|I| >= 1)" in out
