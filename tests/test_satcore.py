import itertools
import time

import numpy as np
import pytest

from sse import satcore
from sse.satcore import (
    Certificate,
    CertificateKind,
    SatInstance,
    SearchBudgetError,
    new_instance,
)


def alo(*sensors):
    return Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(sensors))


def zero(*sensors):
    return Certificate(CertificateKind.ALL_UNATTACKED, frozenset(sensors))


def satisfies(b, s_bar, constraints):
    """Direct evaluation of the stored constraint semantics (test oracle)."""
    if int(np.sum(b)) > s_bar:
        return False
    for c in constraints:
        members = [b[i] for i in c.sensors]
        if c.kind is CertificateKind.AT_LEAST_ONE_ATTACKED and not any(members):
            return False
        if c.kind is CertificateKind.ALL_UNATTACKED and any(members):
            return False
    return True


def exhaustive_sat(p, s_bar, constraints):
    """2^p enumeration; returns True iff some assignment satisfies everything."""
    for bits in itertools.product([False, True], repeat=p):
        if satisfies(np.array(bits), s_bar, constraints):
            return True
    return False


def test_budget_only_solution_is_all_zero():
    inst = new_instance(3, 1)
    got = inst.solve()
    assert got.support == ()
    assert not got.b.any()


def test_single_sensor_zero_budget():
    inst = new_instance(1, 0)
    got = inst.solve()
    assert got.support == ()


def test_budget_constraint_solution_space_size():
    # p=4, s_bar=2: the budget alone admits sum(C(4,s) for s<=2) assignments
    count = sum(
        1 for bits in itertools.product([False, True], repeat=4)
        if satisfies(np.array(bits), 2, [])
    )
    assert count == 11
    assert new_instance(4, 2).solve() is not None


def test_at_least_one_forces_a_member():
    inst = new_instance(3, 1)
    inst.add_constraint(alo(0, 1))
    got = inst.solve()
    assert got.b[0] or got.b[1]
    # ascending-index tiebreak on equal suspicion
    assert got.support == (0,)


def test_all_zero_then_at_least_one_contradiction():
    inst = new_instance(3, 1)
    inst.add_constraint(zero(0, 1))
    inst.add_constraint(alo(0, 1))
    assert inst.solve() is None


def test_disjoint_sets_exceed_budget():
    inst = new_instance(4, 1)
    inst.add_constraint(alo(0, 1))
    inst.add_constraint(alo(2, 3))
    assert inst.solve() is None
    assert not exhaustive_sat(4, 1, [alo(0, 1), alo(2, 3)])


def test_solve_is_deterministic():
    def run():
        inst = new_instance(6, 3)
        supports = []
        for c in (alo(1, 2, 5), alo(0, 4), zero(5), alo(2, 3)):
            inst.add_constraint(c)
            supports.append(inst.solve().support)
        return supports

    assert run() == run()


def test_never_reproposes_excluded_supports():
    inst = new_instance(5, 2)
    seen = []
    for _ in range(12):
        got = inst.solve()
        if got is None:
            break
        assert got.support not in seen
        seen.append(got.support)
        # exclude exactly this hypothesis, as the estimation loop does
        complement = frozenset(range(5)) - set(got.support)
        inst.add_constraint(Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, complement))


def test_soundness_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(300):
        p = int(rng.integers(2, 9))
        s_bar = int(rng.integers(0, p + 1))
        inst = new_instance(p, s_bar)
        constraints = []
        for _ in range(int(rng.integers(0, 6))):
            if rng.uniform() < 0.75:
                size = int(rng.integers(1, p + 1))
                c = alo(*rng.choice(p, size=size, replace=False).tolist())
            else:
                size = int(rng.integers(1, max(p // 2, 2)))
                c = zero(*rng.choice(p, size=size, replace=False).tolist())
            constraints.append(c)
            inst.add_constraint(c)
        got = inst.solve()
        expected = exhaustive_sat(p, s_bar, constraints)
        assert (got is not None) == expected
        if got is not None:
            assert satisfies(got.b, s_bar, constraints)
            assert len(got.support) <= s_bar


def test_constraint_validation():
    inst = new_instance(3, 1)
    with pytest.raises(ValueError, match="out of range"):
        inst.add_constraint(alo(0, 7))
    with pytest.raises(ValueError, match="s_bar"):
        SatInstance(3, 9)


def test_empty_at_least_one_is_permanent_unsat():
    inst = new_instance(3, 2)
    inst.add_constraint(alo(1))
    assert inst.solve() is not None
    inst.add_constraint(Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset()))
    assert inst.solve() is None
    assert inst.solve() is None


def test_bump_prioritizes_suspects():
    inst = new_instance(5, 2)
    inst.add_constraint(alo(1, 2, 3))
    inst.bump(3)
    got = inst.solve()
    assert 3 in got.support


def test_learning_a_suspect_equals_add_then_bump():
    learned = new_instance(5, 2)
    learned.add_constraint(
        Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset({0, 1}), suspect=1))
    learned.add_constraint(
        Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset({1, 2, 3}), suspect=3))
    manual = new_instance(5, 2)
    manual.add_constraint(alo(0, 1))
    manual.bump(1)
    manual.add_constraint(alo(1, 2, 3))
    manual.bump(3)
    # the bump lands after the decay, so the newer suspect outweighs the older
    assert learned.weights.tolist() == manual.weights.tolist() == [0.0, 1.6, 0.0, 2.0, 0.0]
    assert learned.solve().support == manual.solve().support


def test_large_instance_speed():
    rng = np.random.default_rng(1)
    inst = new_instance(60, 20)
    for _ in range(100):
        size = int(rng.integers(2, 22))
        inst.add_constraint(alo(*rng.choice(60, size=size, replace=False).tolist()))
    start = time.perf_counter()
    got = inst.solve()
    elapsed = time.perf_counter() - start
    assert got is not None
    assert elapsed < 1.0


def test_stats_accumulate():
    inst = new_instance(4, 2)
    inst.add_constraint(alo(0, 1))
    inst.solve()
    inst.solve()
    assert inst.stats.solve_calls == 2
    assert inst.stats.decisions >= 1


def test_phase_saving_beats_a_higher_bump():
    inst = new_instance(4, 1)
    inst.add_constraint(alo(0, 1))
    assert inst.solve().support == (0,)
    inst.bump(1, amount=5.0)
    # the last support stays preferred over a more suspected sensor
    assert inst.solve().support == (0,)
    fresh = new_instance(4, 1)
    fresh.add_constraint(alo(0, 1))
    fresh.bump(1, amount=5.0)
    assert fresh.solve().support == (1,)


def test_padding_adds_only_suspected_free_sensors():
    inst = new_instance(6, 4)
    inst.add_constraint(alo(0, 1))
    inst.bump(3)
    inst.bump(4, amount=1.0)
    # 0 hits the set; 3 and 4 carry weight; 1, 2 and 5 carry none
    assert inst.solve().support == (0, 3, 4)
    inst.add_constraint(zero(3))
    # 3 keeps its phase bonus but is fixed to zero, so padding skips it
    assert inst.solve().support == (0, 4)


def test_search_budget_error_on_a_small_node_budget(monkeypatch):
    monkeypatch.setattr(satcore, "MAX_SEARCH_NODES", 3)
    inst = new_instance(8, 3)
    for pair in ((0, 1), (2, 3), (4, 5), (6, 7)):
        inst.add_constraint(alo(*pair))
    with pytest.raises(SearchBudgetError):
        inst.solve()
