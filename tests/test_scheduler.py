import copy
import dataclasses
import random
import re

import pytest

from reference_tableau import destab_of, stab_of
from tscodes import pauli, scheduler as sch
from tscodes.errors import (
    BadParams,
    InconsistentOutcome,
    NoValidDecomposition,
    ScheduleConflict,
)
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
        links = code.hypergraph.links
        for model in ("relaxed", "exclusive"):
            sched = sch.build_schedule(code, model)
            last = 3 if model == "exclusive" else 2
            for gen, seq, sign in zip(
                code.generators, sched.per_stabilizer, sched.signs
            ):
                # The schedule measures the stored links in time order, and
                # both orders give the generator with the schedule's sign.
                assert seq == tuple(sorted(
                    gen.links, key=lambda i: (min(links[i].step, last), i)
                ))
                for order in (gen.links, seq):
                    ops = [code.hypergraph.link_ops[i] for i in order]
                    prod, phase = pauli.phase_product(ops)
                    assert prod == pauli.cycle_operator(code.hypergraph, gen.cycle)
                    assert phase in (0, 2) and sign == 1 - phase
                    assert pauli.first_bad_prefix(ops) is None


def test_decomposition_groups_by_color(th2_22):
    order = {"r": 0, "g": 1, "b": 2}
    for gen in th2_22.generators:
        seq = gen.links
        rounds = []
        for i in seq:
            lk = th2_22.hypergraph.links[i]
            rounds.append(2 if _is_zz(th2_22, i) else order[lk.color])
        assert rounds == sorted(rounds)


def test_promoted_sigma1_has_no_b_round(th2_22):
    gen = next(g for g in th2_22.generators if g.kind == "sigma1_fprime")
    seq = gen.links
    assert all(not _is_zz(th2_22, i) for i in seq)


def test_validate_prefixes_flags_bad_order(th2_22):
    gen = next(g for g in th2_22.generators if g.kind == "sigma2_promoted")
    seq = gen.links
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
        seq = gen.links
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
            assert pauli.commutes(stab_of(t)[i], stab_of(t)[j])
            expected = i != j
            assert pauli.commutes(destab_of(t)[i], stab_of(t)[j]) == expected


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


def _with_steps(code, change):
    """A copy of ``code`` whose link table has each step replaced by
    ``change(step)``; the session fixture stays as it is."""
    h = copy.copy(code.hypergraph)
    h.__dict__["links"] = tuple(
        lk if lk.step is None else lk._replace(step=change(lk.step))
        for lk in code.hypergraph.links
    )
    return dataclasses.replace(code, hypergraph=h)


def _shared_qubits(code, step):
    """Qubits that two links of the given step touch."""
    seen, shared = set(), set()
    for lk in code.hypergraph.links:
        if lk.step == step:
            shared.update(seen & set(lk.vertices))
            seen.update(lk.vertices)
    return shared


def test_schedule_rejects_generator_missing_a_link(th2_22):
    gens = list(th2_22.generators)
    gens[5] = gens[5]._replace(links=gens[5].links[:-1])
    code = dataclasses.replace(th2_22, generators=tuple(gens))
    with pytest.raises(
        NoValidDecomposition,
        match=r"^decomposition of generator 5 does not reproduce it$",
    ):
        sch.build_schedule(code)


def test_exclusive_schedule_rejects_reused_qubit(th2_22):
    # Triangle sides 0 and 1 share a qubit; measuring both at step 2 reuses it.
    code = _with_steps(th2_22, lambda step: min(step, 2))
    assert sch.build_schedule(code, "relaxed").time_steps == 3
    with pytest.raises(ScheduleConflict, match="measured twice in time step 2") as err:
        sch.build_schedule(code, "exclusive")
    qubit = int(re.match(r"qubit (\d+) ", str(err.value)).group(1))
    assert qubit in _shared_qubits(code, 2)


def test_relaxed_schedule_rejects_anticommuting_links_on_a_qubit(th2_22):
    # XX and YY links on one qubit anticommute; measure g with r.
    code = _with_steps(th2_22, lambda step: 0 if step == 1 else step)
    with pytest.raises(
        ScheduleConflict, match="anticommuting links share qubit .* in round 0"
    ) as err:
        sch.build_schedule(code, "relaxed")
    qubit = int(re.search(r"qubit (\d+) ", str(err.value)).group(1))
    assert qubit in _shared_qubits(code, 0)


def test_schedule_checks_prefix_rule_in_time_order(th2_22, monkeypatch):
    sched = sch.build_schedule(th2_22, "exclusive")
    ops = th2_22.hypergraph.link_ops
    target = 3
    seen = []

    def first_bad_prefix(seq):
        seen.append(list(seq))
        return 0 if len(seen) == target + 1 else None

    monkeypatch.setattr(pauli, "first_bad_prefix", first_bad_prefix)
    with pytest.raises(
        ScheduleConflict,
        match=rf"^generator {target} breaks the prefix rule in time order$",
    ):
        sch.build_schedule(th2_22, "exclusive")
    # One check per generator, on the sequence the schedule measures.
    assert seen == [
        [ops[i] for i in seq] for seq in sched.per_stabilizer[: target + 1]
    ]
