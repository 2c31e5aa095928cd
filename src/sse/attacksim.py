"""Instance generation and closed-loop simulation under sensor attacks.

Provides the randomized observable-system generator used by the benches, the
ground-vehicle model (GPS position sensor plus two velocity encoders), three
attack signal classes (random noise, step-then-ramp, replay), and a tracking
controller that consumes the secure estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import EstimatorConfig, estimate
from .linmodel import (
    JsonFile,
    ObservabilityStack,
    StackedWindow,
    SystemModel,
    build_observability,
    check_sparse_observability,
    compute_delta_s,
    compute_o_bar,
    numerical_rank,
    roll_forward,
    stack_window,
)

UGV_MASS = 0.8
UGV_FRICTION = 1.0
UGV_DT = 0.1
UGV_NOISE_SQ = 0.2  # per-sensor squared noise norm bound over the window

# Subsets sampled when an observability level is too combinatorial to verify
# exhaustively; random instances fail a rank test with probability zero, so a
# sampled audit plus resampling-on-failure is the pragmatic check at scale.
AUDIT_SAMPLES = 200
AUDIT_EXACT_LIMIT = 20_000

# Random systems drawn before generate_instance gives up on a level.
MAX_RESAMPLES = 1000
# Standard deviation of the true initial state's entries.
STATE_SCALE = 3.0


@dataclass(frozen=True)
class UgvModel:
    """Ground vehicle moving on a line: position, velocity, force input."""

    M: float
    B_f: float
    dt: float
    model: SystemModel


def discretize_ugv(M: float = UGV_MASS, B_f: float = UGV_FRICTION, dt: float = UGV_DT) -> UgvModel:
    """Exact zero-order-hold discretization of the 1-D vehicle dynamics."""
    if M <= 0 or dt <= 0:
        raise ValueError("mass and time step must be positive")
    if B_f < 0:
        raise ValueError("friction must be non-negative")
    a = B_f / M
    if a * dt < 1e-8:
        a_d = np.array([[1.0, dt], [0.0, 1.0]])
        b_d = np.array([[dt**2 / (2.0 * M)], [dt / M]])
    else:
        e = math.exp(-a * dt)
        phi = (1.0 - e) / a
        a_d = np.array([[1.0, phi], [0.0, e]])
        b_d = np.array([[(dt - phi) / (a * M)], [phi / M]])
    c = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    model = SystemModel(
        A=a_d,
        B=b_d,
        C=c,
        tau=2,
        s_bar=1,
        noise_bounds=np.full(3, math.sqrt(UGV_NOISE_SQ)),
    )
    return UgvModel(M=M, B_f=B_f, dt=dt, model=model)


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

    @property
    def attack_norms(self) -> dict:
        return {i: float(np.linalg.norm(v)) for i, v in self.attack_blocks.items()}


def _observability_holds(model: SystemModel, stack, level_s: int, rng) -> bool:
    """Exact check when enumerable, whose answer ``stack`` keeps as proof;
    otherwise a sampled audit, which proves nothing and leaves no answer."""
    p, n = model.p, model.n
    keep = p - level_s
    if keep <= 0:
        raise ValueError(
            f"cannot be {level_s}-sparse observable with only {p} sensors"
        )
    if math.comb(p, level_s) <= AUDIT_EXACT_LIMIT:
        return check_sparse_observability(model, level_s, stack=stack)
    for _ in range(AUDIT_SAMPLES):
        kept = rng.choice(p, size=keep, replace=False)
        if numerical_rank(stack.rows(sorted(kept))) < n:
            return False
    return True


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
    attack_norm=(1.0, 10.0),
) -> GeneratedInstance:
    """Random instance: an observable single-input system, one measurement
    window with bounded noise and standard-normal inputs, and attacks
    injected on ``s`` random sensors.

    ``observability_level`` is "2s" or "3s" (the system is resampled until it
    stays observable after removing that many times ``s_bar`` sensors).
    ``attack_norm`` fixes each attacked sensor's stacked attack norm, either
    exactly (float or per-sensor sequence) or as a (lo, hi) uniform range.
    Fully deterministic for a given seed.
    """
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
        stack = build_observability(model)
        if _observability_holds(model, stack, level_s, rng):
            break
    else:
        raise RuntimeError(f"no {observability_level}-sparse observable system found "
                           f"in {MAX_RESAMPLES} draws")

    x_true = rng.normal(size=n) * STATE_SCALE
    inputs = rng.normal(size=(tau, 1))

    attacked = tuple(sorted(int(i) for i in rng.choice(p, size=s, replace=False)))
    if np.isscalar(attack_norm):
        norms = [float(attack_norm)] * s
    elif isinstance(attack_norm, tuple) and len(attack_norm) == 2:
        norms = [float(rng.uniform(*attack_norm)) for _ in range(s)]
    else:
        norms = [float(v) for v in attack_norm]
        if len(norms) != s:
            raise ValueError(f"need {s} attack norms, got {len(norms)}")
    attack_blocks = {}
    for sensor, norm in zip(attacked, norms):
        direction = rng.normal(size=tau)
        direction /= np.linalg.norm(direction)
        attack_blocks[sensor] = direction * norm

    noise_blocks = {}
    for sensor in range(p):
        direction = rng.normal(size=tau)
        direction /= np.linalg.norm(direction)
        radius = bounds[sensor] * rng.uniform() ** (1.0 / tau)
        noise_blocks[sensor] = direction * radius

    # simulate the window forward and overlay attack and noise samples
    outputs = np.zeros((tau, p))
    x = x_true.copy()
    for k in range(tau):
        outputs[k] = model.C @ x
        if k + 1 < tau:
            x = model.A @ x + model.B @ inputs[k]
    for sensor, block in attack_blocks.items():
        outputs[:, sensor] += block
    for sensor, block in noise_blocks.items():
        outputs[:, sensor] += block

    window = stack_window(model, outputs, inputs)
    return GeneratedInstance(
        model=model,
        stack=stack,
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
        if self.end <= self.start:
            raise ValueError(f"phase [{self.start}, {self.end}) is empty")

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
class AttackScenario(JsonFile):
    """Disjoint attack phases (at most one sensor corrupted at a time) plus
    simulation defaults."""

    json_kind = "scenario"

    phases: tuple
    steps: int = 600
    segment_steps: int = 150
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        ordered = sorted(self.phases, key=lambda ph: ph.start)
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.start < prev.end:
                raise ValueError(
                    f"phases overlap at step {nxt.start}; attacks must alternate"
                )
        object.__setattr__(self, "phases", tuple(ordered))

    @property
    def attacked(self) -> tuple:
        return tuple(sorted({ph.sensor for ph in self.phases}))

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
        phases = tuple(AttackPhase(**ph) for ph in doc.get("phases", []))
        casts = {"steps": int, "segment_steps": int, "seed": int, "name": str}
        return cls(phases=phases, **{k: cast(doc[k]) for k, cast in casts.items() if k in doc})


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


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Trace:
    """Per-step record of a closed-loop run."""

    dt: float
    x_true: np.ndarray       # steps x 2
    x_est: np.ndarray        # steps x 2
    y: np.ndarray            # steps x p
    attack: np.ndarray       # steps x p
    noise: np.ndarray        # steps x p
    b: np.ndarray            # steps x p (int indicators)
    u: np.ndarray            # steps
    ref: np.ndarray          # steps (position reference)
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
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for t in range(self.steps):
                row = [str(t)]
                row += [format_exact(v) for v in (self.x_true[t, 0], self.x_true[t, 1],
                                                  self.x_est[t, 0], self.x_est[t, 1])]
                row += [format_exact(v) for v in self.y[t]]
                row += [format_exact(v) for v in self.attack[t]]
                row += [str(int(v)) for v in self.b[t]]
                row.append(format_exact(self.u[t]))
                fh.write(",".join(row) + "\n")


def format_exact(value: float) -> str:
    """Decimal text that reads back as the same float (17 significant digits)."""
    return format(float(value), ".17g")


def place_feedback_gain(a: np.ndarray, b: np.ndarray, poles=(0.8, 0.85)) -> np.ndarray:
    """State-feedback gain placing the closed-loop poles of a 2-state system."""
    ctrb = np.column_stack([b.reshape(-1), (a @ b).reshape(-1)])
    if abs(np.linalg.det(ctrb)) < 1e-12:
        raise ValueError("system is not controllable; cannot place poles")
    chi = (a - poles[0] * np.eye(2)) @ (a - poles[1] * np.eye(2))
    return (np.linalg.solve(ctrb.T, np.array([0.0, 1.0])) @ chi).reshape(1, 2)


def square_path_reference(t: int, segment_steps: int, length: float = 5.0) -> float:
    """1-D reduction of the stop-and-turn square path: the position target
    alternates between 0 and ``length`` every segment."""
    leg = (t // segment_steps) % 2
    return length if leg == 0 else 0.0


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
    steps = scenario.steps if steps is None else int(steps)
    seed = scenario.seed if seed is None else int(seed)
    if steps < model.tau:
        raise ValueError(f"need at least tau={model.tau} steps, got {steps}")
    rng = np.random.default_rng(seed)
    stack = build_observability(model)
    gain = place_feedback_gain(model.A, model.B)
    p, tau = model.p, model.tau
    per_step_noise = model.noise_bounds / math.sqrt(tau)

    x = np.zeros(2)
    x_est = np.zeros(2)
    tr = Trace(
        dt=ugv.dt,
        x_true=np.zeros((steps, 2)),
        x_est=np.zeros((steps, 2)),
        y=np.zeros((steps, p)),
        attack=np.zeros((steps, p)),
        noise=np.zeros((steps, p)),
        b=np.zeros((steps, p), dtype=int),
        u=np.zeros(steps),
        ref=np.zeros(steps),
        feasible=np.zeros(steps, dtype=bool),
        estimated=np.zeros(steps, dtype=bool),
        degenerate=np.zeros(steps, dtype=bool),
    )
    for t in range(steps):
        noise = rng.uniform(-per_step_noise, per_step_noise)
        clean = model.C @ x
        attack = np.zeros(p)
        phase = scenario.phase_at(t)
        if phase is not None:
            i = phase.sensor
            if phase.kind == "random_noise":
                sign = 1.0 if rng.uniform() < 0.5 else -1.0
                attack[i] = sign * phase.amplitude * rng.uniform(phase.floor_frac, 1.0)
            elif phase.kind == "step_ramp":
                switch = phase.switch_step if phase.switch_step is not None else phase.end
                attack[i] = phase.step
                if t >= switch:
                    attack[i] += phase.slope * (t - switch) * ugv.dt
            elif phase.kind == "replay" and t >= phase.delay:
                replayed = tr.y[t - phase.delay, i]
                attack[i] = replayed - (clean[i] + noise[i])
        y = clean + attack + noise

        tr.x_true[t] = x
        tr.y[t] = y
        tr.attack[t] = attack
        tr.noise[t] = noise
        tr.ref[t] = square_path_reference(t, scenario.segment_steps)

        if t >= tau - 1:
            outputs = tr.y[t - tau + 1 : t + 1]
            recent_u = tr.u[t - tau + 1 : t]  # u_t is not applied yet
            window_inputs = np.concatenate([recent_u, [0.0]]).reshape(tau, 1)
            window = stack_window(model, outputs, window_inputs)
            result = estimate(model, stack, window, config)
            tr.estimated[t] = True
            tr.feasible[t] = result.feasible
            if result.feasible:
                tr.b[t, list(result.support)] = 1
            if result.feasible and not result.rank_deficient_final:
                x_est = roll_forward(model, result.x, recent_u.reshape(tau - 1, 1))
            else:
                # hold the previous estimate through the model for one step
                tr.degenerate[t] = result.feasible
                x_est = model.A @ x_est + model.B @ np.array([tr.u[t - 1]]) if t else x_est
        else:
            # no full window yet: invert the output map directly
            x_est = np.array([y[0], 0.5 * (y[1] + y[2])])
        tr.x_est[t] = x_est

        u = float(-(gain @ (x_est - np.array([tr.ref[t], 0.0])))[0])
        tr.u[t] = u
        x = model.A @ x + model.B @ np.array([u])
    return tr


def ugv_guarantees(ugv: UgvModel, epsilon: float, attackable=(1, 2)):
    """Robustness constants and bounds for the vehicle, restricted to the
    scenario's attack surface.

    The velocity encoders alone never observe position, so the unrestricted
    leakage constant degenerates to 1; restricting the attacked set to the
    encoders (and the enumeration to full-rank sensor subsets) matches the
    sets the estimator can actually accept when the GPS stays honest.
    """
    from .estimator import delta_bound
    from .linmodel import RobustnessConstants

    stack = build_observability(ugv.model)
    o_bar = compute_o_bar(stack, ugv.model.p - ugv.model.s_bar, full_rank_only=True)
    delta = compute_delta_s(
        stack, ugv.model.s_bar, attackable=attackable, skip_singular_sets=True
    )
    constants = RobustnessConstants(o_bar=o_bar, delta_s=delta)
    return constants, delta_bound(ugv.model, constants, epsilon)
