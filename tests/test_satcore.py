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
    assert got == ()


def test_single_sensor_zero_budget():
    inst = new_instance(1, 0)
    got = inst.solve()
    assert got == ()


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
    assert 0 in got or 1 in got
    # ascending-index tiebreak on equal suspicion
    assert got == (0,)


def test_all_zero_then_at_least_one_contradiction():
    inst = new_instance(3, 1)
    inst.add_constraint(zero(0, 1))
    inst.add_constraint(alo(0, 1))
    assert inst.solve() is None


def test_clean_fix_keeps_rows_as_learned():
    # a fix leaves the stored rows alone and acts through the search's ban:
    # (0, 1, 2) less the clean 0 and 1 must be hit by 2
    inst = new_instance(4, 1)
    inst.add_constraint(alo(0, 1, 2))
    inst.add_constraint(zero(0, 1))
    assert inst._masks == [0b111]
    assert inst.solve() == (2,)
    inst.add_constraint(zero(2))
    assert inst._masks == [0b111]
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
            supports.append(inst.solve())
        return supports

    assert run() == run()


def test_never_reproposes_excluded_supports():
    inst = new_instance(5, 2)
    seen = []
    for _ in range(12):
        got = inst.solve()
        if got is None:
            break
        assert got not in seen
        seen.append(got)
        # exclude exactly this hypothesis, as the estimation loop does
        complement = frozenset(range(5)) - set(got)
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
            assert satisfies(np.isin(np.arange(p), got), s_bar, constraints)
            assert len(got) <= s_bar


def test_constraint_validation():
    inst = new_instance(3, 1)
    with pytest.raises(ValueError, match="out of range"):
        inst.add_constraint(alo(0, 7))
    with pytest.raises(ValueError, match="s_bar"):
        SatInstance(3, 9)


def test_bump_rejects_a_sensor_out_of_range():
    with pytest.raises(ValueError, match="sensor index out of range: 3"):
        new_instance(3, 1).bump(3)


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
    assert 3 in got


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
    assert learned.solve() == manual.solve()


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
    assert inst.solve() == (0,)
    for _ in range(3):
        inst.bump(1)
    assert inst.weights[1] > inst.weights[0]
    # the last support stays preferred over a more suspected sensor
    assert inst.solve() == (0,)
    fresh = new_instance(4, 1)
    fresh.add_constraint(alo(0, 1))
    for _ in range(3):
        fresh.bump(1)
    assert fresh.solve() == (1,)


def test_padding_adds_only_suspected_free_sensors():
    inst = new_instance(6, 3)
    inst.add_constraint(alo(0, 1))
    inst.bump(5)
    inst.bump(5)
    inst.bump(4)
    inst.bump(3)
    # 0 hits the set; two budget slots are left for 5 (two bumps), then 3
    # and 4 (one each, lower index first); 1 and 2 carry no weight
    assert inst.solve() == (0, 3, 5)
    inst.add_constraint(zero(3))
    # 3 keeps its phase bonus but is fixed to zero, so padding skips it
    assert inst.solve() == (0, 4, 5)


def test_search_budget_error_on_a_small_node_budget(monkeypatch):
    monkeypatch.setattr(satcore, "MAX_SEARCH_NODES", 3)
    inst = new_instance(8, 3)
    for pair in ((0, 1), (2, 3), (4, 5), (6, 7)):
        inst.add_constraint(alo(*pair))
    with pytest.raises(SearchBudgetError):
        inst.solve()


class ListOfMasksInstance:
    """Reference store: the learned sets as a list of int bitmasks, each search
    node filtering that list (the store before the column index).  Kept to
    check that the indexed search is the same search, count for count."""

    def __init__(self, p, s_bar):
        self.p = p
        self.s_bar = s_bar
        self.stats = satcore.SolveStats()
        self.weights = np.zeros(p)
        self._phase = 0
        self._masks = []
        self._zero_mask = 0

    def add_constraint(self, cert):
        mask = 0
        for i in cert.sensors:
            mask |= 1 << i
        if cert.kind is CertificateKind.ALL_UNATTACKED:
            self._zero_mask |= mask
            self.weights[sorted(cert.sensors)] = 0.0
            self._masks = [m & ~self._zero_mask for m in self._masks]
        else:
            self.weights *= satcore.WEIGHT_DECAY
            self._masks.append(mask & ~self._zero_mask)
        if cert.suspect is not None:
            self.bump(cert.suspect)

    def bump(self, sensor):
        if not (self._zero_mask >> sensor) & 1:
            self.weights[sensor] += satcore.BUMP

    def solve(self):
        self.stats.solve_calls += 1
        if 0 in self._masks:
            return None
        rank = [
            w + satcore.PHASE_BONUS if (self._phase >> v) & 1 else w
            for v, w in enumerate(self.weights.tolist())
        ]
        order = sorted(range(self.p), key=rank.__getitem__, reverse=True)
        self._ranked = [(v, 1 << v) for v in order]
        found = self._dfs((), self._masks, 0, self.s_bar)
        if found is None:
            return None
        support = set(found)
        for v, bit in self._ranked:
            if len(support) >= self.s_bar or rank[v] <= 0.0:
                break
            if v not in support and not self._zero_mask & bit:
                support.add(v)
        self._phase = sum(1 << v for v in support)
        return tuple(sorted(support))

    def _dfs(self, chosen, unhit, banned, limit):
        if not unhit:
            return chosen
        depth = len(chosen)
        if depth >= limit:
            self.stats.conflicts += 1
            return None
        if depth == limit - 1:
            inter = ~banned
            for mask in unhit:
                inter &= mask
                if inter == 0:
                    self.stats.conflicts += 1
                    return None
            self.stats.propagations += 1
            return chosen + (next(v for v, bit in self._ranked if inter & bit),)
        free = min(unhit, key=int.bit_count) & ~banned
        if free == 0:
            self.stats.conflicts += 1
            return None
        for v, bit in self._ranked:
            if not free & bit:
                continue
            self.stats.decisions += 1
            child_unhit = [mask for mask in unhit if not mask & bit]
            found = self._dfs(chosen + (v,), child_unhit, banned, limit)
            if found is not None:
                return found
            banned |= bit
        return None


def test_search_backtracks_from_a_set_whose_members_are_all_banned():
    # with 0 banned after its branch fails and 2 chosen, 3 hits {1, 3} once 1
    # has failed too: {0, 1} is then the first set left, with no free member
    rows = [(0, 2), (1, 3), (0, 1), (4, 5), (6, 7), (8, 9), (10, 11)]
    indexed, reference = SatInstance(12, 4), ListOfMasksInstance(12, 4)
    for inst in (indexed, reference):
        for row in rows:
            inst.add_constraint(alo(*row))
    assert indexed.solve() is None and reference.solve() is None
    assert indexed.stats == reference.stats


def random_op_stream(rng, p, s_bar, length):
    """Learned sets (some with suspects, some empty, some the complement of
    the last support as the trivial strategy learns), all-unattacked fixes
    and bumps, with a solve after each."""
    ops = []
    for _ in range(length):
        roll = rng.uniform()
        if roll < 0.03:
            ops.append(("add", alo()))
        elif roll < 0.15:
            size = int(rng.integers(1, max(p // 4, 1) + 1))
            ops.append(("add", zero(*rng.choice(p, size=size, replace=False).tolist())))
        elif roll < 0.25:
            ops.append(("bump", int(rng.integers(p)), int(rng.choice([1, 2, 3]))))
        elif roll < 0.45:
            ops.append(("complement",))
        else:
            size = int(rng.integers(1, p + 1))
            members = rng.choice(p, size=size, replace=False).tolist()
            suspect = int(rng.choice(members)) if rng.uniform() < 0.6 else None
            ops.append(("add", Certificate(
                CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(members), suspect)))
        ops.append(("solve",))
    return ops


def stripped_rows(inst):
    """The instance's rows less its clean sensors, as the reference stores them."""
    return [m & ~inst._zero_mask for m in inst._masks]


def assert_index_describes_rows(inst):
    rows = inst._masks
    assert inst._occ == [
        sum(1 << pos for pos, row in enumerate(rows) if row >> v & 1) for v in range(inst.p)
    ]
    assert inst._by_size == [
        sum(1 << pos for pos, row in enumerate(stripped_rows(inst)) if row.bit_count() == size)
        for size in range(inst.p + 1)
    ]


def test_indexed_search_matches_list_of_masks_reference():
    rng = np.random.default_rng(20261018)
    solves = 0
    for stream in range(400):
        p = int(rng.choice([1, 2, 3, 5, 8, 12, 30, 60, 64, 65, 100]))
        s_bar = int(rng.integers(0, min(p, 5) + 1))
        indexed, reference = new_instance(p, s_bar), ListOfMasksInstance(p, s_bar)
        last = ()
        for op in random_op_stream(rng, p, s_bar, int(rng.integers(1, 40))):
            if op[0] == "solve":
                got, want = indexed.solve(), reference.solve()
                assert got == want, (stream, got, want)
                assert indexed.stats == reference.stats, stream
                assert indexed.weights.tolist() == reference.weights.tolist(), stream
                assert stripped_rows(indexed) == reference._masks
                assert_index_describes_rows(indexed)
                last = () if got is None else got
                solves += 1
                continue
            if op[0] == "complement":
                op = ("add", alo(*sorted(set(range(p)) - set(last))))
            for inst in (indexed, reference):
                if op[0] == "add":
                    inst.add_constraint(op[1])
                else:  # a sensor bumped one to three times
                    for _ in range(op[2]):
                        inst.bump(op[1])
    assert solves > 4000


def test_indexed_search_matches_reference_at_desk_scale():
    """The regime of the desk-scale trivial baseline (p = 60, s_bar = 20): each
    solve's complement is learned as a 40-sensor row with no suspect, so most
    weights tie at zero and supports are padded up to the budget; bumps and a
    few all-unattacked fixes come in between."""
    rng = np.random.default_rng(20261019)
    p, s_bar = 60, 20
    indexed, reference = new_instance(p, s_bar), ListOfMasksInstance(p, s_bar)
    complements = padded = fixes = 0
    for step in range(500):
        got, want = indexed.solve(), reference.solve()
        assert got == want, (step, got, want)
        assert indexed.stats == reference.stats, step
        assert indexed.weights.tolist() == reference.weights.tolist(), step
        assert stripped_rows(indexed) == reference._masks, step
        if got is None:
            break
        padded += len(got) == s_bar
        roll = rng.uniform()
        if roll < 0.03:
            sensor, times = int(rng.integers(p)), int(rng.integers(1, 4))
            for inst in (indexed, reference):
                for _ in range(times):
                    inst.bump(sensor)
        elif roll < 0.04 and fixes < 3:
            fixes += 1
            fix = zero(*rng.choice(p, size=2, replace=False).tolist())
            for inst in (indexed, reference):
                inst.add_constraint(fix)
        complement = alo(*sorted(set(range(p)) - set(got)))
        for inst in (indexed, reference):
            inst.add_constraint(complement)
        complements += 1
    assert_index_describes_rows(indexed)
    stats = indexed.stats
    assert complements >= 300 and fixes >= 1 and padded >= 100, (complements, fixes, padded)
    assert stats.propagations >= 100 and stats.conflicts >= 1, stats
