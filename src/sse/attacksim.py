"""Instance generation and closed-loop simulation under sensor attacks.

Provides the randomized observable-system generator used by the benches, the
ground-vehicle model (GPS position sensor plus two velocity encoders), three
attack signal classes (random noise, step-then-ramp, replay), and a tracking
controller that consumes the secure estimate.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .estimator import EstimatorConfig, delta_bound, estimate
from .linmodel import (
    ObservabilityStack,
    RobustnessConstants,
    StackedWindow,
    SubsetCapError,
    SystemModel,
    build_observability,
    check_keys,
    check_sparse_observability,
    compute_delta_s,
    compute_o_bar,
    numerical_rank,
    roll_forward,
    simulate_window,
    stack_window,
    whole_number,
)

UGV_MASS = 0.8
UGV_FRICTION = 1.0
UGV_DT = 0.1
UGV_NOISE_SQ = 0.2  # per-sensor squared noise norm bound over the window
UGV_ATTACKABLE = (1, 2)  # the scenario's attack surface: the two encoders
FEEDBACK_POLES = (0.8, 0.85)  # closed-loop poles placed by the controller
PATH_LENGTH = 5.0  # position target of the square path's outbound legs

# The generator checks an observability level with a cap of AUDIT_EXACT_LIMIT
# examined sets.  With at most AUDIT_EXACT_LIMIT removals the check is exact
# and a failing system is resampled.  Above that the first system is kept,
# proven where a partition of the sensors proves the level within the cap and
# unproven otherwise (a Gaussian C fails it with probability zero).  Either
# way the generator then advances its stream as AUDIT_SAMPLES calls of
# ``rng.choice(p, p - level, replace=False)`` would, without making them:
# that stream defines every instance above the limit, criterion 4's grid and
# the benchmark's desk instances among them.
AUDIT_SAMPLES = 200
AUDIT_EXACT_LIMIT = 20_000
# ``_skip_choices`` makes at most about this many bounded draws per call.
SKIP_CHUNK_DRAWS = 1 << 15

# Random systems drawn before generate_instance gives up on a level.
MAX_RESAMPLES = 1000
# Standard deviation of the true initial state's entries.
STATE_SCALE = 3.0
# Default attack norm: each attacked sensor's norm is drawn from [lo, hi].
ATTACK_NORM_RANGE = {"lo": 1.0, "hi": 10.0}


@dataclass(frozen=True)
class UgvModel:
    """Ground vehicle moving on a line: position, velocity, force input."""

    dt: float
    model: SystemModel


def discretize_ugv() -> UgvModel:
    """Exact zero-order-hold discretization of the 1-D vehicle dynamics: mass
    ``UGV_MASS``, friction ``UGV_FRICTION``, time step ``UGV_DT``."""
    a = UGV_FRICTION / UGV_MASS
    e = math.exp(-a * UGV_DT)
    phi = (1.0 - e) / a
    a_d = np.array([[1.0, phi], [0.0, e]])
    b_d = np.array([[(UGV_DT - phi) / (a * UGV_MASS)], [phi / UGV_MASS]])
    c = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    model = SystemModel(
        A=a_d,
        B=b_d,
        C=c,
        tau=2,
        s_bar=1,
        noise_bounds=np.full(3, math.sqrt(UGV_NOISE_SQ)),
    )
    return UgvModel(dt=UGV_DT, model=model)


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeneratedInstance:
    model: SystemModel
    stack: ObservabilityStack
    x_true: np.ndarray
    window: StackedWindow
    attacked: tuple
    attack_blocks: dict      # sensor -> stacked attack vector over the window
    noise_blocks: dict       # sensor -> stacked noise vector over the window
    outputs: np.ndarray      # raw tau x p samples
    inputs: np.ndarray       # raw tau x m samples


def _skip_choices(rng: np.random.Generator, p: int, k: int, times: int) -> None:
    """Advance ``rng`` exactly as ``times`` calls of ``rng.choice(p, size=k,
    replace=False)`` would, with ``integers`` calls of at most about
    ``SKIP_CHUNK_DRAWS`` draws each (one call at desk scale).

    Each such call draws one bounded integer per inclusive upper bound below,
    in this order.  Above 10,000 items, when k exceeds p // 50, numpy swaps
    each of the last k slots of ``arange(p)`` with one at or below it (its
    tail shuffle, which stops above slot 0); otherwise it picks with Floyd's
    algorithm, one draw in [0, j] for each j from p - k to p - 1, and then
    shuffles the k picks.  ``integers`` draws its bounded integers the same
    way, and a bound of 0 draws nothing in either.
    """
    if p > 10_000 and k > p // 50:
        highs = np.arange(p - 1, max(p - k, 1) - 1, -1)
    else:
        highs = np.concatenate([np.arange(p - k, p), np.arange(k - 1, 0, -1)])
    rows = max(1, SKIP_CHUNK_DRAWS // len(highs))
    for start in range(0, times, rows):
        rng.integers(0, highs, endpoint=True, size=(min(rows, times - start), len(highs)))


def _resolve_tau(n: int, p: int, level_s: int) -> int:
    keep = max(p - level_s, 1)
    needed = math.ceil(n / keep)
    return min(n, max(needed, min(2, n)))


def generate_instance(
    n: int,
    p: int,
    s: int,
    s_bar: int,
    observability_level: str = "2s",
    noise_bounds=0.0,
    seed: int = 0,
    *,
    attack_norm=ATTACK_NORM_RANGE,
) -> GeneratedInstance:
    """Random instance: an observable single-input system, one measurement
    window with bounded noise and standard-normal inputs, and attacks
    injected on ``s`` random sensors.

    ``observability_level`` is "2s" or "3s": the system should stay
    observable after removing that many times ``s_bar`` sensors.  With at
    most ``AUDIT_EXACT_LIMIT`` removals the level is checked exactly (the
    model's stack keeps the answer) and a failing system is resampled; above
    that the first system is kept, and its stack keeps the level where a
    partition of the sensors proves it within ``AUDIT_EXACT_LIMIT`` unions.
    ``attack_norm`` fixes each attacked sensor's stacked attack norm: a
    number for all of them, a sequence of ``s`` per-sensor norms, or a
    uniform range ``{"lo": lo, "hi": hi}``.
    Fully deterministic for a given seed.
    """
    n, p, s = whole_number(n, "n", 1), whole_number(p, "p", 1), whole_number(s, "s", 0)
    s_bar, seed = whole_number(s_bar, "s_bar", 0), whole_number(seed, "seed", 0)
    if s > s_bar:
        raise ValueError(f"s={s} exceeds the budget s_bar={s_bar}")
    if observability_level not in ("2s", "3s"):
        raise ValueError(f"observability_level must be '2s' or '3s', got {observability_level!r}")
    level_s = (2 if observability_level == "2s" else 3) * s_bar
    if p - level_s <= 0:
        raise ValueError(
            f"p={p} sensors cannot stay observable after removing {level_s}"
        )
    rng = np.random.default_rng(seed)
    tau = _resolve_tau(n, p, level_s)
    bounds = np.broadcast_to(np.asarray(noise_bounds, dtype=float), (p,)).copy()

    for _ in range(MAX_RESAMPLES):
        a = rng.normal(size=(n, n))
        radius = max(abs(np.linalg.eigvals(a)))
        if radius > 0:
            a *= 0.95 / radius
        b = rng.normal(size=(n, 1))
        c = rng.normal(size=(p, n))
        model = SystemModel(A=a, B=b, C=c, tau=tau, s_bar=s_bar, noise_bounds=bounds)
        try:
            held = check_sparse_observability(model, level_s, subset_cap=AUDIT_EXACT_LIMIT)
        except SubsetCapError:
            held = False
        if math.comb(p, level_s) > AUDIT_EXACT_LIMIT:
            _skip_choices(rng, p, p - level_s, AUDIT_SAMPLES)
            break
        if held:
            break
    else:
        raise RuntimeError(f"no {observability_level}-sparse observable system found "
                           f"in {MAX_RESAMPLES} draws")

    x_true = rng.normal(size=n) * STATE_SCALE
    inputs = rng.normal(size=(tau, 1))

    attacked = tuple(sorted(int(i) for i in rng.choice(p, size=s, replace=False)))
    if np.isscalar(attack_norm):
        norms = [float(attack_norm)] * s
    elif isinstance(attack_norm, dict):
        check_keys(attack_norm, "an attack norm range", ("lo", "hi"), ("lo", "hi"))
        norms = [float(rng.uniform(attack_norm["lo"], attack_norm["hi"])) for _ in range(s)]
    else:
        norms = [float(v) for v in attack_norm]
        if len(norms) != s:
            raise ValueError(f"need {s} attack norms, got {len(norms)}; "
                             'a uniform range is spelled {"lo": lo, "hi": hi}')
    attack_blocks = {}
    for sensor, norm in zip(attacked, norms):
        direction = rng.normal(size=tau)
        # the square root of the same dot that np.linalg.norm takes
        direction /= math.sqrt(direction.dot(direction))
        attack_blocks[sensor] = direction * norm

    noise_blocks = {}
    for sensor in range(p):
        direction = rng.normal(size=tau)
        direction /= math.sqrt(direction.dot(direction))
        radius = bounds[sensor] * rng.uniform() ** (1.0 / tau)
        noise_blocks[sensor] = direction * radius

    # simulate the window forward and overlay attack and noise samples
    outputs = simulate_window(model, x_true, inputs)
    for sensor, block in attack_blocks.items():
        outputs[:, sensor] += block
    for sensor, block in noise_blocks.items():
        outputs[:, sensor] += block

    window = stack_window(model, outputs, inputs)
    return GeneratedInstance(
        model=model,
        stack=build_observability(model),
        x_true=x_true,
        window=window,
        attacked=attacked,
        attack_blocks=attack_blocks,
        noise_blocks=noise_blocks,
        outputs=outputs,
        inputs=inputs,
    )


# ---------------------------------------------------------------------------
# Attack scenarios
# ---------------------------------------------------------------------------

ATTACK_KINDS = ("random_noise", "step_ramp", "replay")


@dataclass(frozen=True)
class AttackPhase:
    """One contiguous attack on one sensor over steps [start, end)."""

    sensor: int
    kind: str
    start: int
    end: int
    amplitude: float = 0.0    # random_noise: |a| uniform in [floor_frac, 1] * amplitude
    floor_frac: float = 0.75
    step: float = 0.0         # step_ramp: held offset ...
    slope: float = 0.0        # ... then grows by slope per second after switch_step
    switch_step: int | None = None
    delay: int = 150          # replay: echo the measurement from this many steps ago

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        for name in ("sensor", "start", "end", "delay", "switch_step"):
            if getattr(self, name) is not None:  # None is switch_step's default
                object.__setattr__(self, name, whole_number(getattr(self, name), name))
        if self.sensor < 0:
            raise ValueError(f"attacked sensor must be non-negative, got {self.sensor}")
        if self.end <= self.start:
            raise ValueError(f"phase [{self.start}, {self.end}) is empty")
        if self.delay < 1:
            raise ValueError(f"replay delay must be at least 1 step, got {self.delay}")
        for name in ("amplitude", "floor_frac", "step", "slope"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.kind == "random_noise" and self.floor_frac > 1.0:
            # the magnitude is drawn from [floor_frac, 1]
            raise ValueError(f"floor_frac must be at most 1, got {self.floor_frac!r}")

    def to_json_dict(self) -> dict:
        doc = {"sensor": self.sensor, "kind": self.kind, "start": self.start, "end": self.end}
        if self.kind == "random_noise":
            doc.update(amplitude=self.amplitude, floor_frac=self.floor_frac)
        elif self.kind == "step_ramp":
            doc.update(step=self.step, slope=self.slope, switch_step=self.switch_step)
        else:
            doc.update(delay=self.delay)
        return doc


@dataclass(frozen=True)
class AttackScenario:
    """Disjoint attack phases (at most one sensor corrupted at a time) plus
    simulation defaults."""

    phases: tuple
    steps: int = 600
    segment_steps: int = 150
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        for name, lo in (("steps", None), ("segment_steps", 1), ("seed", 0)):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, lo))
        ordered = sorted(self.phases, key=lambda ph: ph.start)
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.start < prev.end:
                raise ValueError(
                    f"phases overlap at step {nxt.start}; attacks must alternate"
                )
        object.__setattr__(self, "phases", tuple(ordered))

    def phase_at(self, t: int) -> AttackPhase | None:
        for ph in self.phases:
            if ph.start <= t < ph.end:
                return ph
        return None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "steps": self.steps,
            "segment_steps": self.segment_steps,
            "seed": self.seed,
            "phases": [ph.to_json_dict() for ph in self.phases],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AttackScenario":
        check_keys(doc, "scenario", (), {f.name for f in fields(cls)})
        phases = doc.get("phases", [])
        if not isinstance(phases, list) or not all(isinstance(ph, dict) for ph in phases):
            raise ValueError("phases must be a list of objects")
        phase_fields = fields(AttackPhase)
        required = [f.name for f in phase_fields if f.default is MISSING]
        built = []
        for i, ph in enumerate(phases):
            check_keys(ph, f"phase {i}", required, {f.name for f in phase_fields})
            try:
                built.append(AttackPhase(**ph))
            except ValueError as exc:
                raise ValueError(f"phase {i}: {exc}") from None
        return cls(**{**doc, "phases": tuple(built)})


def alternating_encoder_scenario() -> AttackScenario:
    """Bundled alternating-encoder scenario: random noise on the left encoder,
    step-then-ramp on the right, then a replay of stale left-encoder data."""
    return AttackScenario(
        name="ugv_alternating",
        steps=600,
        segment_steps=150,
        phases=(
            AttackPhase(sensor=1, kind="random_noise", start=60, end=180, amplitude=40.0),
            AttackPhase(sensor=2, kind="step_ramp", start=210, end=330, step=30.0,
                        slope=20.0, switch_step=270),
            AttackPhase(sensor=1, kind="replay", start=360, end=480, delay=150),
        ),
    )


# Scenarios that ``sse simulate`` runs by name.
SCENARIOS = {"ugv_alternating": alternating_encoder_scenario}


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Trace:
    """Per-step record of a closed-loop run."""

    x_true: np.ndarray       # steps x 2
    x_est: np.ndarray        # steps x 2
    y: np.ndarray            # steps x p
    attack: np.ndarray       # steps x p
    b: np.ndarray            # steps x p (int indicators)
    u: np.ndarray            # steps
    feasible: np.ndarray     # steps (bool; False before the first window too)
    estimated: np.ndarray    # steps (bool; whether the solver ran)
    degenerate: np.ndarray   # steps (bool; estimate rejected as rank-deficient)

    @property
    def steps(self) -> int:
        return self.x_true.shape[0]

    def window_attack_norms(self, tau: int) -> np.ndarray:
        """Per-step, per-sensor norm of the attack over the trailing window."""
        steps, p = self.attack.shape
        out = np.zeros((steps, p))
        for t in range(steps):
            lo = max(0, t - tau + 1)
            out[t] = np.linalg.norm(self.attack[lo : t + 1], axis=0)
        return out

    def to_csv(self, path) -> None:
        header = ["t", "x_true", "v_true", "x_est", "v_est"]
        p = self.y.shape[1]
        header += [f"y{i + 1}" for i in range(p)]
        header += [f"a{i + 1}" for i in range(p)]
        header += [f"b{i + 1}" for i in range(p)]
        header += ["u"]
        rows = ([t, *self.x_true[t], *self.x_est[t], *self.y[t], *self.attack[t], *self.b[t],
                 self.u[t]] for t in range(self.steps))
        write_csv(path, header, rows)


def format_exact(value: float) -> str:
    """Decimal text that reads back as the same float (17 significant digits)."""
    return format(float(value), ".17g")


def write_csv(path, header: list, rows) -> None:
    """CSV of ``rows`` under ``header``, floats as ``format_exact`` text and
    anything else as ``str``; stdout when ``path`` is empty."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(format_exact(v) if isinstance(v, float) else str(v)
                               for v in row) + "\n")


def place_feedback_gain(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """State-feedback gain placing the closed-loop poles of a 2-state system
    at ``FEEDBACK_POLES``."""
    ctrb = np.column_stack([b.reshape(-1), (a @ b).reshape(-1)])
    if numerical_rank(ctrb) < 2:
        raise ValueError("system is not controllable; cannot place poles")
    chi = (a - FEEDBACK_POLES[0] * np.eye(2)) @ (a - FEEDBACK_POLES[1] * np.eye(2))
    return (np.linalg.solve(ctrb.T, np.array([0.0, 1.0])) @ chi).reshape(1, 2)


def square_path_reference(t: int, segment_steps: int) -> float:
    """1-D reduction of the stop-and-turn square path: the position target
    alternates between ``PATH_LENGTH`` and 0 every segment."""
    leg = (t // segment_steps) % 2
    return PATH_LENGTH if leg == 0 else 0.0


def run_closed_loop(
    ugv: UgvModel,
    scenario: AttackScenario,
    steps: int | None = None,
    config: EstimatorConfig = EstimatorConfig(),
    seed: int | None = None,
) -> Trace:
    """Drive the vehicle along the reference path while the estimator feeds
    the controller from attacked, noisy measurements.

    Steps before the first full window bootstrap the estimate straight from
    the measurements; an infeasible or rank-deficient solve coasts the
    previous estimate through the model for one step.
    """
    model = ugv.model
    steps = scenario.steps if steps is None else whole_number(steps, "steps")
    seed = scenario.seed if seed is None else whole_number(seed, "seed", 0)
    if steps < model.tau:
        raise ValueError(f"need at least tau={model.tau} steps, got {steps}")
    for phase in scenario.phases:
        if phase.sensor >= model.p:
            raise ValueError(f"phase attacks sensor {phase.sensor}; the model has {model.p}")
    rng = np.random.default_rng(seed)
    stack = build_observability(model)
    gain = place_feedback_gain(model.A, model.B)
    p, tau = model.p, model.tau
    phase_of = [scenario.phase_at(t) for t in range(steps)]
    # The run's doubles come from one rng.random call, in the order of the
    # per-step draws they replace: p noise values each step, then a
    # random_noise step's sign and magnitude draws.  rng.uniform(lo, hi) is
    # lo + (hi - lo) * rng.random(): the same doubles and generator state.
    counts = np.array([p + 2 * (ph is not None and ph.kind == "random_noise")
                       for ph in phase_of])
    starts = np.cumsum(counts) - counts
    draws = rng.random(int(counts.sum()))
    noise_high = model.noise_bounds / math.sqrt(tau)
    noise_low = -noise_high
    noise_rows = noise_low + (noise_high - noise_low) * draws[starts[:, None] + np.arange(p)]
    draws, starts = draws.tolist(), starts.tolist()

    x = np.zeros(2)
    x_est = np.zeros(2)
    tr = Trace(
        x_true=np.zeros((steps, 2)),
        x_est=np.zeros((steps, 2)),
        y=np.zeros((steps, p)),
        attack=np.zeros((steps, p)),
        b=np.zeros((steps, p), dtype=int),
        u=np.zeros(steps),
        feasible=np.zeros(steps, dtype=bool),
        estimated=np.zeros(steps, dtype=bool),
        degenerate=np.zeros(steps, dtype=bool),
    )
    u_rows = tr.u.reshape(steps, 1)  # a view: row t is u_t
    # per-run buffers for the reference state [ref, 0] and the applied input
    target = np.zeros(2)
    u_now = np.zeros(1)
    for t in range(steps):
        noise = noise_rows[t]
        clean = model.C @ x
        attack = tr.attack[t]  # still zero: the step's attack is written in place
        phase = phase_of[t]
        if phase is not None:
            i = phase.sensor
            if phase.kind == "random_noise":
                k = starts[t] + p
                sign = 1.0 if draws[k] < 0.5 else -1.0
                floor = float(phase.floor_frac)  # as rng.uniform takes it
                attack[i] = sign * phase.amplitude * (floor + (1.0 - floor) * draws[k + 1])
            elif phase.kind == "step_ramp":
                switch = phase.switch_step if phase.switch_step is not None else phase.end
                attack[i] = phase.step
                if t >= switch:
                    attack[i] += phase.slope * (t - switch) * ugv.dt
            elif phase.kind == "replay" and t >= phase.delay:
                replayed = tr.y[t - phase.delay, i]
                attack[i] = replayed - (clean[i] + noise[i])
        y = np.add(clean, attack, out=tr.y[t])
        y += noise

        tr.x_true[t] = x
        target[0] = square_path_reference(t, scenario.segment_steps)

        if t >= tau - 1:
            # u_t is not applied yet: it is still 0 and only pads the window
            window_inputs = u_rows[t - tau + 1 : t + 1]
            window = stack_window(model, tr.y[t - tau + 1 : t + 1], window_inputs)
            result = estimate(model, stack, window, config)
            tr.estimated[t] = True
            tr.feasible[t] = result.feasible
            if result.feasible:
                b_row = tr.b[t]
                for sensor in result.support:
                    b_row[sensor] = 1
            if result.feasible and not result.rank_deficient_final:
                x_est = roll_forward(model, result.x, window_inputs[:-1])
            else:
                # hold the previous estimate through the model for one step
                tr.degenerate[t] = result.feasible
                x_est = model.A @ x_est + model.B @ u_now if t else x_est  # u_now is u_(t-1)
        else:
            # no full window yet: invert the output map directly
            x_est = np.array([y[0], 0.5 * (y[1] + y[2])])
        tr.x_est[t] = x_est

        u_now[0] = tr.u[t] = float(-(gain @ (x_est - target))[0])
        x = model.A @ x + model.B @ u_now
    return tr


def ugv_guarantees(ugv: UgvModel, epsilon: float):
    """Robustness constants and bounds for the vehicle, restricted to the
    scenario's attack surface, ``UGV_ATTACKABLE``.

    The velocity encoders alone never observe position, so the unrestricted
    leakage constant degenerates to 1; restricting the attacked set to the
    encoders (and the enumeration to full-rank sensor subsets) matches the
    sets the estimator can actually accept when the GPS stays honest.
    """
    stack = build_observability(ugv.model)
    o_bar = compute_o_bar(stack, ugv.model.p - ugv.model.s_bar, full_rank_only=True)
    delta = compute_delta_s(
        stack, ugv.model.s_bar, attackable=UGV_ATTACKABLE, skip_singular_sets=True
    )
    constants = RobustnessConstants(o_bar=o_bar, delta_s=delta)
    return constants, delta_bound(ugv.model, constants, epsilon)
