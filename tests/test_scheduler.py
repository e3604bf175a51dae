import random

import pytest

from tscodes import pauli, scheduler as sch
from tscodes.errors import BadParams, InconsistentOutcome
from tscodes.pauli import Pauli
from tscodes.scheduler import MeasurementSchedule, Tableau


def _is_zz(code, i):
    """Whether link i is a two-body Z (a "b" edge or a triangle side)."""
    x, z = code.hypergraph.link_ops[i]
    return x == 0 and z != 0


def test_decompositions_reproduce_generators(
    pipeline_codes, tri22_codes, honeycomb_code
):
    # th3 triangular 2x2 is the code with -1 signs, the honeycomb colex code
    # the one with loop2 generators.
    codes = [*pipeline_codes.values(), tri22_codes["th3_tri22"], honeycomb_code]
    assert {g.kind for code in codes for g in code.generators} == {
        "sigma1_fprime", "sigma1_boundary", "sigma2_promoted",
        "sigma2_necklace", "sigma2_bridged", "loop2",
    }
    for code in codes:
        for gen in code.generators:
            seq = sch.decompose(code, gen)
            assert seq == list(gen.links)
            ops = [code.hypergraph.link_ops[i] for i in seq]
            prod, phase = pauli.phase_product(ops)
            assert prod == pauli.cycle_operator(code.hypergraph, gen.cycle)
            assert phase % 2 == 0
            assert pauli.first_bad_prefix(ops) is None


def test_decomposition_groups_by_color(th2_22):
    order = {"r": 0, "g": 1, "b": 2}
    for gen in th2_22.generators:
        seq = sch.decompose(th2_22, gen)
        rounds = []
        for i in seq:
            lk = th2_22.hypergraph.links[i]
            rounds.append(2 if _is_zz(th2_22, i) else order[lk.color])
        assert rounds == sorted(rounds)


def test_promoted_sigma1_has_no_b_round(th2_22):
    gen = next(g for g in th2_22.generators if g.kind == "sigma1_fprime")
    seq = sch.decompose(th2_22, gen)
    assert all(not _is_zz(th2_22, i) for i in seq)


def test_validate_prefixes_flags_bad_order(th2_22):
    gen = next(g for g in th2_22.generators if g.kind == "sigma2_promoted")
    seq = sch.decompose(th2_22, gen)
    ops = [th2_22.hypergraph.link_ops[i] for i in seq]
    assert pauli.first_bad_prefix(ops) is None
    # Move a final-round two-body Z in front: it anticommutes with the
    # incomplete prefix.
    bad = [ops[-1]] + ops[:-1]
    assert pauli.first_bad_prefix(bad) is not None


def test_validate_prefixes_singleton():
    xx = Pauli.from_string("XX")
    assert pauli.first_bad_prefix([(xx.x, xx.z)]) is None


def test_schedule_round_counts(pipeline_codes):
    for code in pipeline_codes.values():
        assert sch.build_schedule(code, "relaxed").time_steps == 3
        assert sch.build_schedule(code, "exclusive").time_steps == 4


def test_honeycomb_schedules_three_rounds_both_models(honeycomb_code):
    assert sch.build_schedule(honeycomb_code, "relaxed").time_steps == 3
    assert sch.build_schedule(honeycomb_code, "exclusive").time_steps == 3


def test_exclusive_rounds_touch_qubits_once(th2_22):
    sched = sch.build_schedule(th2_22, "exclusive")
    for rnd in sched.rounds:
        seen = set()
        for sl in rnd:
            for v in sl.vertices:
                assert v not in seen
                seen.add(v)


def test_relaxed_b_round_links_commute(th2_22):
    sched = sch.build_schedule(th2_22, "relaxed")
    last = sched.rounds[-1]
    ops = [Pauli(th2_22.n, *th2_22.hypergraph.link_ops[sl.link]) for sl in last]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert pauli.commutes(ops[i], ops[j])


def test_schedule_owners_cover_generators(th2_22):
    sched = sch.build_schedule(th2_22, "relaxed")
    owned = {}
    for rnd in sched.rounds:
        for sl in rnd:
            for gid in sl.stabilizers:
                owned.setdefault(gid, set()).add(sl.link)
    for gid, seq in enumerate(sched.per_stabilizer):
        assert owned[gid] == set(seq)


def test_simulation_consistency(th2_22):
    sched = sch.build_schedule(th2_22, "relaxed")
    rep = sch.simulate_syndrome(th2_22, sched, trials=25, seed=5)
    assert rep.consistent
    assert rep.idempotent
    assert rep.agreement == 1.0


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("strict", [True, False])
def test_simulation_rejects_nonpositive_trials(th2_22, trials, strict):
    sched = sch.build_schedule(th2_22, "relaxed")
    with pytest.raises(BadParams, match="trials must be >= 1"):
        sch.simulate_syndrome(th2_22, sched, trials=trials, strict=strict)


def test_simulation_gauge_outcomes_vary(th2_22):
    # r > 0: individual link outcomes flip across trials even though the
    # XOR combinations never do.
    sched = sch.build_schedule(th2_22, "relaxed")
    rep = sch.simulate_syndrome(th2_22, sched, trials=25, seed=6)
    assert rep.varying_links > 0


def test_broken_schedule_detected(th2_22):
    good = sch.build_schedule(th2_22, "relaxed")
    # Adversarial fixture: reverse one generator's ordered sequence so a
    # late anticommuting link lands first.
    target = next(
        gid
        for gid, gen in enumerate(th2_22.generators)
        if gen.kind == "sigma2_promoted"
    )
    broken_stabs = list(good.per_stabilizer)
    seq = list(broken_stabs[target])
    # Pull the last two-body Z link in front of the r and g rounds.
    seq = [seq[-1]] + seq[:-1]
    broken_stabs[target] = tuple(seq)
    ops = [th2_22.hypergraph.link_ops[i] for i in broken_stabs[target]]
    assert pauli.first_bad_prefix(ops) is not None
    broken = MeasurementSchedule(
        model=good.model,
        time_steps=good.time_steps,
        rounds=good.rounds,
        per_stabilizer=tuple(broken_stabs),
        signs=good.signs,
    )
    rep = sch.simulate_syndrome(th2_22, broken, trials=40, seed=7, strict=False)
    assert rep.agreement < 1.0
    with pytest.raises(InconsistentOutcome):
        sch.simulate_syndrome(th2_22, broken, trials=40, seed=7)


def test_tableau_basics():
    rng = random.Random(0)
    t = Tableau(2)
    assert t.measure(Pauli.from_string("ZI"), 1, rng) == 0
    assert t.measure(Pauli.from_string("ZI"), -1, rng) == 1
    t.apply_h(0)
    t.apply_cnot(0, 1)
    assert t.measure(Pauli.from_string("ZZ"), 1, rng) == 0
    assert t.measure(Pauli.from_string("XX"), 1, rng) == 0


def test_tableau_single_stabilizer_repeats():
    rng = random.Random(3)
    for _ in range(20):
        t = Tableau(2)
        t.randomize(rng)
        first = t.measure(Pauli.from_string("XX"), 1, rng)
        assert t.measure(Pauli.from_string("XX"), 1, rng) == first


def test_tableau_measurement_statistics():
    rng = random.Random(4)
    outcomes = {0: 0, 1: 0}
    for _ in range(200):
        t = Tableau(1)
        outcomes[t.measure(Pauli.from_string("X"), 1, rng)] += 1
    assert outcomes[0] > 50 and outcomes[1] > 50


def test_schedule_json_shape(th2_22):
    sched = sch.build_schedule(th2_22, "exclusive")
    data = sch.schedule_json_dict(sched)
    assert data["time_steps"] == 4
    assert len(data["rounds"]) == 4
    entry = data["rounds"][0][0]
    assert set(entry) == {"edge", "pauli", "vertices", "stabilizers"}


def test_b_links_overlap_earlier_product_twice(th2_22):
    # In every decomposition the final-round two-body Z links meet the
    # product of the earlier rounds on exactly two qubits.
    for gen in th2_22.generators:
        seq = sch.decompose(th2_22, gen)
        prefix_support = 0
        prefix = None
        for i in seq:
            lk = th2_22.hypergraph.links[i]
            op = Pauli(th2_22.n, *th2_22.hypergraph.link_ops[i])
            if not _is_zz(th2_22, i):
                prefix = op if prefix is None else prefix.mul(op)
            else:
                assert prefix is not None
                support = prefix.x | prefix.z
                mask = (1 << lk.vertices[0]) | (1 << lk.vertices[1])
                assert (support & mask).bit_count() == 2


def test_tableau_row_invariants():
    rng = random.Random(9)
    t = Tableau(6)
    t.randomize(rng)
    for i in range(6):
        for j in range(6):
            assert pauli.commutes(t.stab[i], t.stab[j])
            expected = i != j
            assert pauli.commutes(t.destab[i], t.stab[j]) == expected


def test_broken_schedule_reports_witnesses(th2_22):
    good = sch.build_schedule(th2_22, "relaxed")
    target = next(
        gid
        for gid, gen in enumerate(th2_22.generators)
        if gen.kind == "sigma2_promoted"
    )
    broken_stabs = list(good.per_stabilizer)
    seq = list(broken_stabs[target])
    broken_stabs[target] = tuple([seq[-1]] + seq[:-1])
    broken = MeasurementSchedule(
        model=good.model,
        time_steps=good.time_steps,
        rounds=good.rounds,
        per_stabilizer=tuple(broken_stabs),
        signs=good.signs,
    )
    rep = sch.simulate_syndrome(th2_22, broken, trials=40, seed=7, strict=False)
    assert rep.failures
    assert all(gid == target for gid, _ in rep.failures)


def test_simulation_golden(th2_22):
    # Pinned outputs of the row-major tableau: any change to the order in
    # which the tableau draws random numbers shows up here.
    for model in ("relaxed", "exclusive"):
        sched = sch.build_schedule(th2_22, model)
        rep = sch.simulate_syndrome(th2_22, sched, trials=40, seed=7)
        assert (rep.agreement, rep.direct_agreement) == (1.0, 1.0)
        assert (rep.idempotent, rep.varying_links) == (True, 80)
    good = sch.build_schedule(th2_22, "relaxed")
    target = next(
        gid
        for gid, gen in enumerate(th2_22.generators)
        if gen.kind == "sigma2_promoted"
    )
    broken_stabs = list(good.per_stabilizer)
    seq = list(broken_stabs[target])
    broken_stabs[target] = tuple([seq[-1]] + seq[:-1])
    broken = MeasurementSchedule(
        model=good.model,
        time_steps=good.time_steps,
        rounds=good.rounds,
        per_stabilizer=tuple(broken_stabs),
        signs=good.signs,
    )
    rep = sch.simulate_syndrome(th2_22, broken, trials=40, seed=7, strict=False)
    trials = (0, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20,
              22, 23, 25, 26, 28, 31, 32, 38, 39)
    assert rep.failures == tuple((1, t) for t in trials)
    assert (rep.agreement, rep.direct_agreement) == (0.975, 0.978125)
