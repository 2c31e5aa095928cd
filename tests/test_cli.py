import csv
import json
import math
import re

import numpy as np
import pytest

import sse.attacksim
import sse.bench
import sse.satcore
from sse.attacksim import (
    AttackScenario,
    alternating_encoder_scenario,
    discretize_ugv,
    generate_instance,
    run_closed_loop,
)
from sse.bench import iteration_bound, run_bench
from sse.cli import EXIT_CAP, EXIT_INPUT, main
from sse.estimator import Estimate, EstimatorConfig, IterationLimitError, estimate
from sse.theory import Strategy


@pytest.fixture
def ugv_model_file(tmp_path):
    path = tmp_path / "ugv.json"
    path.write_text(json.dumps(discretize_ugv().model.to_json_dict()))
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
    path.write_text(json.dumps(big.to_json_dict()))
    assert main(["observability", str(path)]) == 0
    assert "cannot be uniquely" in capsys.readouterr().out


def test_observability_constants_for_healthy_model(tmp_path, capsys):
    from sse.attacksim import generate_instance

    inst = generate_instance(2, 5, 1, 1, "2s", 0.1, seed=0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(inst.model.to_json_dict()))
    assert main(["observability", str(path), "--max-s", "2"]) == 0
    out = capsys.readouterr().out
    assert "sparse_observable s=2: yes" in out
    assert "o_bar" in out and "detection_threshold_sq" in out


def test_observability_reports_no_threshold_at_full_leakage(tmp_path, capsys):
    # delta_s is exactly 1 here, so no attack norm is guaranteed to be detected
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[1, 0], [0, 1]], "B": [[0], [0]],
                                "C": [[1, 0], [0, 1], [1, 1]], "tau": 1, "s_bar": 1,
                                "noise_bounds": [0, 0, 0]}))
    assert main(["observability", str(path)]) == 0
    out = capsys.readouterr().out
    assert "delta_s = 1\n" in out
    assert out.endswith("detection_threshold_sq = inf (delta_s >= 1)\n")


@pytest.mark.parametrize("doc, lines", [
    # rounding puts delta_s just below 1, but the exact check refutes the
    # model at 2 s_bar: no bounds
    ({"A": [[0.9]], "B": [[0.0]],
      "C": [[1.8512209651924858], [0.8933216703416794], [0.0]],
      "tau": 1, "s_bar": 1, "noise_bounds": [0, 0, 0]},
     ["sparse_observable s=2: no", "delta_s = 0.99999999999999989",
      "detection_threshold_sq = inf (not 2-sparse observable)"]),
    # delta_s is 1/2, but two sensors cannot outvote one attacked sensor
    ({"A": [[1.0]], "B": [[0.0]], "C": [[1.0], [1.0]], "tau": 1, "s_bar": 1,
      "noise_bounds": [0, 0]},
     ["delta_s = 0.49999999999999989", "detection_threshold_sq = inf (p <= 2 s_bar)"]),
    # proven observable, with a Gram too ill-conditioned to invert
    ({"A": [[1, 0], [0, 1]], "B": [[0], [0]], "C": [[1, 0], [1, 1e-10]], "tau": 1,
      "s_bar": 0, "noise_bounds": [0, 0]},
     ["sparse_observable s=0: yes",
      "delta_s = undefined (Gram matrix of sensor set (0, 1) is too ill-conditioned to "
      "invert: its smallest eigenvalue is at most n * RANK_RTOL times its largest)"]),
], ids=["refuted_below_one", "p_at_most_2_s_bar", "ill_conditioned_gram"])
def test_observability_prints_bounds_only_with_a_guarantee(tmp_path, capsys, doc, lines):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["observability", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(lines[-1] + "\n")
    assert all(line in out.splitlines() for line in lines)
    assert "detected_delta" not in out


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"A": [[1, 2],')
    assert main(["observability", str(path)]) == 3
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path):
    assert main(["observability", str(tmp_path / "nope.json")]) == 3


def test_subset_cap_exit_code(tmp_path, capsys):
    from sse.attacksim import generate_instance

    inst = generate_instance(2, 12, 1, 4, "2s", 0.0, seed=1)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(inst.model.to_json_dict()))
    assert main(["observability", str(path), "--max-s", "6", "--subset-cap", "5"]) == 4
    # the level over the cap is refused by arithmetic, before the lower ones
    # are proved and printed
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "would examine" in captured.err


@pytest.mark.parametrize("flags, sets", [
    (["--min-card", "1", "--subset-cap", "3"], 7),  # o_bar: every non-empty set
    (["--subset-cap", "5"], 9),  # delta_s: 6 pairs of size 2, 3 of size 3
], ids=["o_bar", "delta_s"])
def test_analysis_over_the_cap_refuses_before_any_output(ugv_model_file, capsys, flags, sets):
    assert main(["observability", ugv_model_file, "--max-s", "0", *flags]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"would examine {sets} sensor sets" in captured.err


def test_negative_subset_cap_is_input_error(ugv_model_file, capsys):
    assert main(["observability", ugv_model_file, "--subset-cap", "-1"]) == 3
    assert capsys.readouterr().err == "error: subset_cap must be non-negative, got -1\n"


@pytest.mark.parametrize("flags, message", [
    (["--max-s", "-1"], "max_s must be in [0, 8], got -1"),
    (["--max-s", "20"], "max_s must be in [0, 8], got 20"),
    (["--min-card", "0"], "min_card must be in [1, 8], got 0"),
    (["--min-card", "9"], "min_card must be in [1, 8], got 9"),
    (["--subset-cap", "-1"], "subset_cap must be non-negative, got -1"),
    (["--epsilon", "nan"], "epsilon must be non-negative, got nan"),
    (["--epsilon", "inf"], "epsilon must be finite, got inf"),
], ids=["max_s_negative", "max_s_above_p", "min_card_zero", "min_card_above_p",
        "subset_cap_negative", "epsilon_nan", "epsilon_inf"])
def test_observability_checks_its_flags_before_any_output(tmp_path, capsys, flags, message):
    model = generate_instance(2, 8, 1, 2, "2s", 0.0, seed=1).model
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_json_dict()))
    assert main(["observability", str(path), *flags]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["observability", "estimate"])
def test_a_model_whose_grams_overflow_is_input_error(tmp_path, capsys, command):
    # the blocks are finite, their Grams are not
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[1e200, 0], [0, 1e200]], "B": [[0], [0]],
                                "C": [[1, 0], [0, 1], [1, 1], [1, -1]], "tau": 2,
                                "s_bar": 1, "noise_bounds": [0, 0, 0, 0]}))
    trace = tmp_path / "trace.csv"
    write_window_trace(trace, np.zeros((2, 4)), np.zeros((2, 1)))
    args = [str(path)] + ([str(trace)] if command == "estimate" else [])
    assert main([command, *args]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the squared entries of the model's observability "
                                   "blocks sum to inf")


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


def test_estimate_at_the_iteration_cap_exits_with_cap_code(ugv_model_file, tmp_path, capsys):
    outputs, inputs, _ = attacked_window()
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, inputs)
    code = main(["estimate", ugv_model_file, str(trace_path),
                 "--strategy", "trivial", "--max-iterations", "1"])
    assert code == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.err == "error: estimation aborted after 1 iterations\n"
    assert captured.out == ""


def test_estimate_iteration_cap_below_one_is_input_error(ugv_model_file, tmp_path, capsys):
    outputs, inputs, _ = attacked_window()
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, inputs)
    assert main(["estimate", ugv_model_file, str(trace_path),
                 "--max-iterations", "-3"]) == EXIT_INPUT
    assert "max_iterations must be at least 1, got -3" in capsys.readouterr().err


def test_estimate_nan_epsilon_is_input_error(ugv_model_file, tmp_path, capsys):
    outputs, inputs, _ = attacked_window()
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, inputs)
    assert main(["estimate", ugv_model_file, str(trace_path), "--epsilon", "nan"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "epsilon must be non-negative, got nan" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["estimate", "oracle"])
def test_infinite_epsilon_is_input_error(ugv_model_file, tmp_path, capsys, command):
    # an infinite tolerance would pass every check: every window feasible, nothing attacked
    outputs, inputs, _ = attacked_window()
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, inputs)
    assert main([command, ugv_model_file, str(trace_path), "--epsilon", "inf"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "epsilon must be finite, got inf" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("content, message", [
    (None, "trace file not found"),
    ("", "empty trace file"),
    ("y1,y2,y3,u1\n0,0,0,0\n0,zero,0,0\n", "bad number on line 3"),
], ids=["missing", "empty", "not_a_number"])
def test_estimate_bad_trace_is_input_error_naming_the_file(ugv_model_file, tmp_path,
                                                           capsys, content, message):
    trace_path = tmp_path / "window.csv"
    if content is not None:
        trace_path.write_text(content)
    assert main(["estimate", ugv_model_file, str(trace_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err and str(trace_path) in err


def test_estimate_infeasible_exit_code(tmp_path, capsys):
    # both encoders disagree with each other and the GPS: budget 1 cannot cope
    model = discretize_ugv().model
    path = tmp_path / "ugv.json"
    path.write_text(json.dumps(model.to_json_dict()))
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
    model_path.write_text(json.dumps(model.to_json_dict()))
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


def test_estimate_past_the_search_budget_exits_with_cap_code(tmp_path, capsys, monkeypatch):
    # a budget of 2 makes the second solve branch, a second search node
    model_path = tmp_path / "ugv2.json"
    model_path.write_text(json.dumps({**discretize_ugv().model.to_json_dict(), "s_bar": 2}))
    monkeypatch.setattr(sse.satcore, "MAX_SEARCH_NODES", 1)
    outputs, inputs, _ = attacked_window()
    trace_path = tmp_path / "window.csv"
    write_window_trace(trace_path, outputs, inputs)
    assert main(["estimate", str(model_path), str(trace_path)]) == EXIT_CAP
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == ("error: exceeded 1 search nodes\n", "")


def test_simulate_bundled_scenario(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["simulate", "ugv_alternating", "--steps", "40", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,x_true,v_true")
    assert len(lines) == 41
    summary = capsys.readouterr().out
    assert re.fullmatch(
        rf"wrote 40 steps to {re.escape(str(out))} \(\d+ infeasible estimation steps; "
        r"closed loop \d+\.\d{3} s, \d+ steps/s\)\n", summary), summary


def test_simulate_at_the_iteration_cap_exits_with_cap_code(tmp_path, capsys):
    out = tmp_path / "capped.csv"
    code = main(["simulate", "ugv_alternating", "--max-iterations", "1",
                 "--output", str(out)])
    assert code == EXIT_CAP
    assert capsys.readouterr().err == "error: estimation aborted after 1 iterations\n"
    assert not out.exists()


def test_simulate_scenario_file_attack_free(tmp_path):
    scn_path = tmp_path / "quiet.json"
    quiet = AttackScenario(phases=(), steps=25, segment_steps=25)
    scn_path.write_text(json.dumps(quiet.to_json_dict()))
    out = tmp_path / "quiet.csv"
    assert main(["simulate", str(scn_path), "--output", str(out)]) == 0
    rows = _csv_rows(out)
    assert len(rows) == 25
    assert all(row["b1"] == "0" and row["b2"] == "0" and row["b3"] == "0" for row in rows)


@pytest.mark.parametrize("sensor, message", [
    (3, "phase attacks sensor 3; the model has 3"),
    (-1, "attacked sensor must be non-negative, got -1"),
])
def test_simulate_rejects_a_sensor_the_vehicle_lacks(tmp_path, capsys, sensor, message):
    scn_path = tmp_path / "bad.json"
    doc = {"steps": 20, "phases": [
        {"sensor": sensor, "kind": "step_ramp", "start": 5, "end": 10, "step": 3.0}]}
    scn_path.write_text(json.dumps(doc))
    out = tmp_path / "bad.csv"
    assert main(["simulate", str(scn_path), "--output", str(out)]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("phase, message", [
    ({"delay": -1}, "replay delay must be at least 1 step, got -1"),
    ({"delay": 0}, "replay delay must be at least 1 step, got 0"),
    ({"delay": 1.5}, "delay must be a whole number, got 1.5"),
    ({"sensor": 1.5}, "sensor must be a whole number, got 1.5"),
], ids=["delay_-1", "delay_0", "delay_1.5", "sensor_1.5"])
def test_simulate_rejects_a_bad_replay_phase(tmp_path, capsys, phase, message):
    scn_path = tmp_path / "replay.json"
    doc = {"steps": 20, "phases": [
        {"sensor": 1, "kind": "replay", "start": 5, "end": 20, "delay": 2, **phase}]}
    scn_path.write_text(json.dumps(doc))
    out = tmp_path / "replay.csv"
    assert main(["simulate", str(scn_path), "--output", str(out)]) == EXIT_INPUT
    assert f"{scn_path}: phase 0: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("phase, message", [
    ({"kind": "random_noise", "amplitude": "40"}, "amplitude must be a finite number, got '40'"),
    ({"kind": "step_ramp", "step": None}, "step must be a finite number, got None"),
], ids=["amplitude_text", "step_null"])
def test_simulate_rejects_a_phase_number_that_is_not_finite(tmp_path, capsys, phase, message):
    scn_path = tmp_path / "phase.json"
    scn_path.write_text(json.dumps({"steps": 20, "phases": [
        {"sensor": 1, "start": 5, "end": 20, **phase}]}))
    out = tmp_path / "phase.csv"
    assert main(["simulate", str(scn_path), "--output", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {scn_path}: phase 0: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({"phases": [], "stpes": 5}, "scenario has unknown key 'stpes'"),
    ({"phases": [], "phase": 5}, "scenario has unknown key 'phase'"),
    ({"phases": [{"sensor": 1, "kind": "replay", "start": 5, "end": 20, "dealy": 3}]},
     "phase 0 has unknown key 'dealy'"),
    ({"phases": [{"sensor": 1, "kind": "replay", "start": 5, "end": 20},
                 {"sensor": 2, "kind": "replay", "start": 30, "end": 40, "delay": 0}]},
     "phase 1: replay delay must be at least 1 step, got 0"),
], ids=["stpes", "phase", "phase_dealy", "phase_delay"])
def test_simulate_rejects_an_unknown_scenario_key(tmp_path, capsys, doc, message):
    scn_path = tmp_path / "typo.json"
    scn_path.write_text(json.dumps(doc))
    out = tmp_path / "typo.csv"
    assert main(["simulate", str(scn_path), "--output", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {scn_path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, doc", [
    (["--seed", "-1"], {"steps": 50, "phases": []}),
    ([], {"steps": 50, "seed": -1, "phases": []}),
], ids=["flag", "file"])
def test_simulate_negative_seed_is_input_error(tmp_path, capsys, flag, doc):
    scn_path = tmp_path / "seed.json"
    scn_path.write_text(json.dumps(doc))
    out = tmp_path / "seed.csv"
    assert main(["simulate", str(scn_path), "--output", str(out), *flag]) == EXIT_INPUT
    named = "" if flag else f"{scn_path}: "  # a flag names no file
    assert capsys.readouterr().err == f"error: {named}seed must be non-negative, got -1\n"
    assert not out.exists()


def test_simulate_unknown_scenario(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "ghost.json")]) == 3
    assert "scenario not found" in capsys.readouterr().err


def test_simulate_bundled_scenario_is_the_library_run(tmp_path):
    out, ref = tmp_path / "cli.csv", tmp_path / "library.csv"
    assert main(["simulate", "ugv_alternating", "--output", str(out)]) == 0
    run_closed_loop(discretize_ugv(), alternating_encoder_scenario()).to_csv(ref)
    assert out.read_bytes() == ref.read_bytes()


def test_simulate_file_wins_over_a_bundled_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quiet = AttackScenario(phases=(), steps=25, segment_steps=25)
    (tmp_path / "ugv_alternating").write_text(json.dumps(quiet.to_json_dict()))
    assert main(["simulate", "ugv_alternating", "--output", "quiet.csv"]) == 0
    rows = _csv_rows(tmp_path / "quiet.csv")
    assert len(rows) == 25 and not any(float(row["a2"]) or float(row["a3"]) for row in rows)


# ---------------------------------------------------------------------------
# JSON documents: model, scenario and bench spec
# ---------------------------------------------------------------------------


# what the CLI calls each document -> the command that reads it from a path, an
# object its library type rejects, and the library's message for that object
DOCUMENTS = {
    "model file": (lambda path: ["observability", path], {"A": [[1.0]]},
                   "model document lacks 'B', 'C', 'tau', 's_bar', 'noise_bounds'"),
    "scenario": (lambda path: ["simulate", path, "--output", path + ".csv"],
                 {"phases": {"sensor": 1}}, "phases must be a list of objects"),
    "bench spec": (lambda path: ["bench", path], {"sweeps": 3},
                   "a bench spec is a JSON object with a 'sweeps' list"),
}


@pytest.mark.parametrize("what", list(DOCUMENTS), ids=["model", "scenario", "bench"])
@pytest.mark.parametrize("flaw", ["missing_file", "invalid_json", "non_object", "bad_content"])
def test_document_errors_are_input_errors_naming_the_file(tmp_path, capsys, what, flaw):
    command, content, content_message = DOCUMENTS[what]
    path = tmp_path / "document.json"
    text, message = {
        "missing_file": (None, f"{what} not found: {path}"),
        "invalid_json": ('{"A": [[1, 2],', f"{path}: invalid JSON at line 1, column 15"),
        "non_object": ("[1, 2]", f"{path}: a {what} must be a JSON object"),
        "bad_content": (json.dumps(content), f"{path}: {content_message}"),
    }[flaw]
    if text is not None:
        path.write_text(text)
    assert main(command(str(path))) == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (f"error: {message}\n", "")


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


def test_bench_trial_rows_carry_the_solve_counts():
    # every trial row, a capped one included, carries its solve's theory
    # checks and conflict fallbacks from SolveStats
    sweep = {"n": 3, "p": 8, "s": 2, "s_bar": 2, "trials": 2, "seed": 0,
             "strategies": ["trivial", "conflict"], "max_iterations": 1}
    rows = [r for r in run_bench({"sweeps": [sweep]}) if r["record"] == "trial"]
    assert len(rows) == 4
    for row in rows:
        inst = generate_instance(3, 8, 2, 2, seed=row["seed"])
        config = EstimatorConfig(strategy=row["strategy"], max_iterations=1)
        with pytest.raises(IterationLimitError) as capped:
            estimate(inst.model, inst.stack, inst.window, config)
        assert row["status"] == "capped"
        assert (row["theory_checks"], row["conflict_fallbacks"]) == (
            capped.value.stats.theory_checks, capped.value.stats.conflict_fallbacks)
    assert any(row["theory_checks"] > 0 for row in rows)


def test_bench_capped_trivial_desk_row_carries_the_sat_counts():
    # criterion 4's trivial desk rows stop at the cap; their SAT counts come
    # from the IterationLimitError's stats
    sweep = {"n": 25, "p": 60, "s": 8, "s_bar": 20, "seed": 3, "strategies": ["trivial"],
             "max_iterations": 5}
    (row,) = [r for r in run_bench({"sweeps": [sweep]}) if r["record"] == "trial"]
    inst = generate_instance(25, 60, 8, 20, seed=3)
    with pytest.raises(IterationLimitError) as capped:
        estimate(inst.model, inst.stack, inst.window,
                 EstimatorConfig(strategy="trivial", max_iterations=5))
    stats = capped.value.stats
    assert row["status"] == "capped"
    assert ({name: row[name] for name in sse.bench.STATS_FIELDS}
            == {name: getattr(stats, name) for name in sse.bench.STATS_FIELDS})
    assert row["solve_calls"] == 5 and row["decisions"] > 0


def _infeasible_estimate(*args):
    return Estimate(feasible=False, x=None, iterations=4, certificates=[],
                    residual_sq=None, strategy=Strategy.CONFLICT)


def _failing_estimate(*args):
    raise RuntimeError("solver fault")


@pytest.mark.parametrize("fake, status, iterations, theory_checks", [
    (_infeasible_estimate, "infeasible", 4, 0),
    (_failing_estimate, "error:RuntimeError", "", ""),
], ids=["infeasible", "error"])
def test_bench_trial_rows_for_an_unsolved_window(monkeypatch, fake, status, iterations,
                                                 theory_checks):
    monkeypatch.setattr(sse.bench, "estimate", fake)
    rows = run_bench({"sweeps": [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 1,
                                  "strategies": ["conflict"]}]})
    trial = rows[0]
    assert trial["record"] == "trial"
    assert (trial["status"], trial["iterations"], trial["estimation_error"]) == (
        status, iterations, "")
    assert trial["theory_checks"] == trial["conflict_fallbacks"] == theory_checks
    assert isinstance(trial["wall_time"], float) and trial["wall_time"] >= 0.0


def _bench_instances(monkeypatch, tmp_path, sweep):
    """Run a one-sweep bench and return the instances it generated."""
    made = []
    real = sse.attacksim.generate_instance
    monkeypatch.setattr(sse.attacksim, "generate_instance",
                        lambda *a, **kw: made.append(real(*a, **kw)) or made[-1])
    assert main(["bench", bench_spec(tmp_path, [sweep]),
                 "--output", str(tmp_path / "bench.csv")]) == 0
    return made


def test_bench_attack_norm_list_is_per_sensor_at_two_attacks(monkeypatch, tmp_path):
    sweep = {"n": 3, "p": 8, "s": 2, "s_bar": 2, "trials": 2, "attack_norm": [3.0, 7.0]}
    for inst in _bench_instances(monkeypatch, tmp_path, sweep):
        norms = [np.linalg.norm(inst.attack_blocks[i]) for i in inst.attacked]
        assert norms == pytest.approx([3.0, 7.0], rel=1e-12)


def test_bench_attack_norm_range_is_lo_hi(monkeypatch, tmp_path):
    sweep = {"n": 3, "p": 8, "s": 2, "s_bar": 2, "trials": 2, "seed": 4,
             "attack_norm": {"lo": 3.0, "hi": 7.0}}
    for trial, inst in enumerate(_bench_instances(monkeypatch, tmp_path, sweep)):
        want = generate_instance(3, 8, 2, 2, "2s", 0.0, seed=4 + trial,
                                 attack_norm={"lo": 3.0, "hi": 7.0})
        assert inst.outputs.tobytes() == want.outputs.tobytes()
        for block in inst.attack_blocks.values():
            assert 3.0 <= np.linalg.norm(block) <= 7.0 + 1e-12


def test_bench_old_attack_norm_range_is_input_error(tmp_path, capsys):
    # a 2-element list is per-sensor norms, so at s = 3 it is short by one
    spec = bench_spec(tmp_path, [{"n": 3, "p": 9, "s": 3, "s_bar": 3, "trials": 1,
                                  "attack_norm": [3.0, 7.0]}])
    assert main(["bench", spec]) == EXIT_INPUT
    assert '{"lo": lo, "hi": hi}' in capsys.readouterr().err


def test_bench_iteration_cap_below_one_is_input_error(tmp_path, capsys):
    spec = bench_spec(tmp_path, [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 1,
                                  "max_iterations": 0}])
    assert main(["bench", spec]) == EXIT_INPUT
    assert "max_iterations must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"sweeps": [3]}, "sweep 0 must be a JSON object, got 3"),
    ({"sweeps": [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 2.5}]},
     "sweep 0 trials must be a whole number, got 2.5"),
    ({"sweeps": [{"n": 2, "p": 6.5, "s": 1, "s_bar": 1, "trials": 1}]},
     "sweep 0 p must be a whole number, got 6.5"),
    ({"sweeps": [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "noize": 0.5}]},
     "sweep 0 has unknown key 'noize'"),
    ({"sweeps": [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 1},
                 {"n": 2, "p": 6, "s": 1, "s_bar": 1, "strategy": ["trivial"], "noize": 0.5}]},
     "sweep 1 has unknown key 'strategy'"),
    ({"sweep": [{"n": 2, "p": 6, "s": 1, "s_bar": 1}]}, "bench spec has unknown key 'sweep'"),
    ({}, "a bench spec is a JSON object with a 'sweeps' list"),
    ({"sweeps": [], "jobs": 2}, "bench spec has unknown key 'jobs'"),
    ({"sweeps": [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "seed": -4}]},
     "sweep 0 seed must be non-negative, got -4"),
    ({"sweeps": [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": -2}]},
     "sweep 0 trials must be non-negative, got -2"),
    ({"sweeps": [{"n": 2, "P": 6, "s": 1, "s_bar": 1}]}, "sweep 0 has unknown key 'P'"),
    ({"sweeps": [{"n": -1, "p": 6, "s": 1, "s_bar": 1}]}, "n must be at least 1, got -1"),
    ({"sweeps": [{"n": 0, "p": 6, "s": 1, "s_bar": 1}]}, "n must be at least 1, got 0"),
    ({"sweeps": [{"n": 2, "p": 6, "s": -1, "s_bar": 1}]}, "s must be non-negative, got -1"),
    ({"sweeps": [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "strategies": "conflict"}]},
     "sweep 0 strategies must be a list of 'trivial', 'conflict', 'conflict_agree', "
     "got 'conflict'"),
    ({"sweeps": [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 1},
                 {"n": 2, "p": 6, "s": 1, "s_bar": 1, "strategies": ["bogus"]}]},
     "sweep 1 strategies must be a list of 'trivial', 'conflict', 'conflict_agree', "
     "got ['bogus']"),
], ids=["sweep_not_object", "trials_not_whole", "p_not_whole", "misspelt_key",
        "singular_strategies", "misspelt_sweeps", "no_sweeps", "unknown_top_level_key",
        "negative_seed", "negative_trials", "misspelt_required_key", "negative_n", "zero_n",
        "negative_s", "strategies_not_list", "unknown_strategy"])
def test_bench_malformed_spec_is_input_error(tmp_path, capsys, doc, message):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    assert main(["bench", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("value, message", [
    (0, "jobs must be at least 1, got 0"),
    (-2, "jobs must be at least 1, got -2"),
    (1.5, "jobs must be a whole number, got 1.5"),
    (-5, "seed must be non-negative, got -5"),
])
def test_bench_jobs_below_one_is_input_error(tmp_path, capsys, value, message):
    # the message names the flag: --jobs, or --seed, the offset of every trial seed
    # (run_bench's seed_offset)
    flag = message.split()[0]
    if flag == "jobs":
        with pytest.raises(ValueError, match=message):
            run_bench({"sweeps": []}, jobs=value)
    else:
        sweep = {"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 1}
        with pytest.raises(ValueError, match=f"^seed_offset must be non-negative, got {value}$"):
            run_bench({"sweeps": [sweep]}, seed_offset=value)
    if isinstance(value, int):
        spec = bench_spec(tmp_path, [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 1}])
        assert main(["bench", spec, f"--{flag}", str(value)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"  # a flag: no file named


def test_bench_whole_float_jobs_and_seed_offset_run_as_ints():
    spec = {"sweeps": [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 2,
                        "strategies": ["trivial", "conflict"]}]}
    tables = []
    for jobs, seed_offset in ((1, 1), (2.0, 1.0)):
        rows = run_bench(spec, jobs=jobs, seed_offset=seed_offset)
        for row in rows:
            row.pop("wall_time")
        tables.append(rows)
    assert tables[0] == tables[1]


def test_bench_empty_sweep_list_runs_nothing(tmp_path, capsys):
    assert run_bench({"sweeps": []}) == []
    assert main(["bench", bench_spec(tmp_path, [])]) == 0
    header = ("record,sweep,trial,n,p,s,s_bar,strategy,seed,status,iterations,theory_checks,"
              "conflict_fallbacks,solve_calls,decisions,conflicts,wall_time,estimation_error,"
              "theoretical_bound")
    assert capsys.readouterr().out.strip() == header == ",".join(sse.bench.BENCH_FIELDS)


def test_bench_whole_float_counts_run_as_ints(tmp_path):
    sweep = {"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 2, "seed": 5,
             "strategies": ["trivial", "conflict"]}
    tables = []
    for name, p in (("int", 6), ("float", 6.0)):
        out = tmp_path / f"{name}.csv"
        assert main(["bench", bench_spec(tmp_path, [{**sweep, "p": p}]),
                     "--output", str(out)]) == 0
        rows = _csv_rows(out)
        for row in rows:
            row.pop("wall_time")
        tables.append(rows)
    assert tables[0] == tables[1]
    assert {row["p"] for row in tables[1]} == {"6"}


def test_bench_whole_float_seed_runs_as_an_int(tmp_path, capsys):
    tables = []
    for name, seed in (("int", 2), ("float", 2.0)):
        out = tmp_path / f"{name}.csv"
        sweep = {"n": 2, "p": 6, "s": 1, "s_bar": 1, "trials": 2, "seed": seed}
        assert main(["bench", bench_spec(tmp_path, [sweep]), "--output", str(out)]) == 0
        rows = _csv_rows(out)
        for row in rows:
            row.pop("wall_time")
        tables.append(rows)
    assert tables[0] == tables[1]
    path = bench_spec(tmp_path, [{"n": 2, "p": 6, "s": 1, "s_bar": 1, "seed": 2.5}])
    assert main(["bench", path]) == EXIT_INPUT
    message = "sweep 0 seed must be a whole number, got 2.5"
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_bench_sweep_without_required_key_is_input_error(tmp_path, capsys):
    spec = bench_spec(tmp_path, [{"n": 2, "s": 1, "s_bar": 1}])
    assert main(["bench", spec]) == EXIT_INPUT
    assert "sweep 0 lacks 'p'" in capsys.readouterr().err


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
