"""The column-mask tableau against the row-major reference tableau."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from reference_tableau import ReferenceTableau
from tscodes import pauli
from tscodes.errors import BadParams, SizeMismatch
from tscodes.pauli import Pauli
from tscodes.scheduler import Tableau


@st.composite
def programs(draw):
    """A qubit count, a random seed and a list of gates and measurements of
    random Hermitian Paulis with random signs."""
    n = draw(st.integers(1, 8))
    qubit = st.integers(0, n - 1)
    vec = st.integers(0, (1 << n) - 1)
    steps = [
        st.tuples(st.just("h"), qubit),
        st.tuples(st.just("s"), qubit),
        st.tuples(st.just("measure"), vec, vec, st.sampled_from((1, -1))),
    ]
    if n > 1:  # control and target differ: shift the target by 1..n-1
        steps.append(
            st.tuples(st.just("cnot"), qubit, st.integers(1, n - 1)).map(
                lambda g: (g[0], g[1], (g[1] + g[2]) % n)
            )
        )
    step = st.one_of(steps)
    seed = draw(st.integers(0, 2**32 - 1))
    return n, seed, draw(st.booleans()), draw(st.lists(step, max_size=40))


def _run(tab, steps, rng, randomize):
    if randomize:
        tab.randomize(rng)
    outcomes = []
    for step in steps:
        if step[0] == "h":
            tab.apply_h(step[1])
        elif step[0] == "s":
            tab.apply_s(step[1])
        elif step[0] == "cnot":
            tab.apply_cnot(step[1], step[2])
        else:
            _, x, z, sign = step
            outcomes.append(tab.measure(Pauli(tab.n, x, z), sign, rng))
    return outcomes


@given(programs())
@settings(max_examples=300, deadline=None)
def test_tableau_matches_reference(program):
    n, seed, randomize, steps = program
    fast, ref = Tableau(n), ReferenceTableau(n)
    rng_fast, rng_ref = random.Random(seed), random.Random(seed)
    outcomes = _run(fast, steps, rng_fast, randomize)
    assert outcomes == _run(ref, steps, rng_ref, randomize)
    assert fast.stab == ref.stab
    assert [2 * ((fast.neg >> i) & 1) for i in range(n)] == ref.sign
    assert fast.destab == ref.destab
    assert rng_fast.getstate() == rng_ref.getstate()


@st.composite
def long_programs(draw):
    """Up to 300 steps on 1 to 10 qubits, about three in four of them
    measurements, so that the destabilizer slots run out many times."""
    n = draw(st.integers(1, 10))
    qubit = st.integers(0, n - 1)
    vec = st.integers(0, (1 << n) - 1)
    measure = st.tuples(st.just("measure"), vec, vec, st.sampled_from((1, -1)))
    gates = [st.tuples(st.just("h"), qubit), st.tuples(st.just("s"), qubit)]
    if n > 1:
        gates.append(
            st.tuples(st.just("cnot"), qubit, st.integers(1, n - 1)).map(
                lambda g: (g[0], g[1], (g[1] + g[2]) % n)
            )
        )
    step = st.one_of(*[measure] * 8, *gates)  # 8 of 11 draws measure (8 of 10 at n = 1)
    seed = draw(st.integers(0, 2**32 - 1))
    return n, seed, draw(st.lists(step, min_size=50, max_size=300))


def _check_slots(tab):
    """Columns stay within the 2n slots, free slots are zero everywhere, and
    slot / row_of is a bijection between the rows and the n live slots."""
    n, full = tab.n, (1 << 2 * tab.n) - 1
    assert all(0 <= col <= full for col in tab.dX + tab.dZ)
    assert not any(col & tab.free for col in tab.dX + tab.dZ)
    assert tab.live & tab.free == 0 and tab.live.bit_count() == n
    assert sum(1 << s for s in tab.slot) == tab.live
    assert [tab.row_of[s] for s in tab.slot] == list(range(n))


def _random_outcome(ref, step):
    """Whether the reference tableau draws a random outcome for `step`."""
    op = Pauli(ref.n, step[1], step[2])
    return any(not pauli.commutes(op, s) for s in ref.stab)


def _run_checked(n, seed, steps):
    fast, ref = Tableau(n), ReferenceTableau(n)
    rng_fast, rng_ref = random.Random(seed), random.Random(seed)
    random_count = 0
    for step in steps:
        if step[0] == "measure":
            random_count += _random_outcome(ref, step)
        assert _run(fast, [step], rng_fast, False) == _run(ref, [step], rng_ref, False)
        _check_slots(fast)
    assert fast.stab == ref.stab
    assert [2 * ((fast.neg >> i) & 1) for i in range(n)] == ref.sign
    assert fast.destab == ref.destab
    assert rng_fast.getstate() == rng_ref.getstate()
    # Slots run out on random measurements n + 1, 2(n + 1), ...: the first
    # n use the initially free slots, every recycling pass frees n + 1.
    assert fast.recycles == random_count // (n + 1)
    return fast.recycles


@given(long_programs())
@settings(max_examples=60, deadline=None)
def test_slot_recycling_matches_reference(program):
    _run_checked(*program)


@pytest.mark.parametrize("n", range(1, 11))
def test_long_run_recycles_several_times(n):
    rng = random.Random(1000 + n)
    steps = [
        ("measure", rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        if rng.random() < 0.8
        else ("h", rng.randrange(n))
        for _ in range(300)
    ]
    assert _run_checked(n, n, steps) >= 3


def test_tableau_row_invariants_after_measurements():
    n = 12
    rng = random.Random(21)
    t = Tableau(n)
    t.randomize(rng)
    for _ in range(50):
        op = Pauli(n, rng.getrandbits(n), rng.getrandbits(n))
        t.measure(op, rng.choice((1, -1)), rng)
    stab, destab = t.stab, t.destab
    for i in range(n):
        for j in range(n):
            assert pauli.commutes(stab[i], stab[j])
            assert pauli.commutes(destab[i], stab[j]) == (i != j)


def test_measure_rejects_wrong_size_operator():
    with pytest.raises(SizeMismatch):
        Tableau(3).measure(Pauli.from_string("ZZ"), 1, random.Random(0))


@pytest.mark.parametrize("sign", [0, 2, -2, 1j, "1"])
def test_measure_rejects_bad_sign(sign):
    with pytest.raises(BadParams):
        Tableau(2).measure(Pauli.from_string("ZI"), sign, random.Random(0))


def test_cnot_rejects_equal_control_and_target():
    # H(0), CNOT(0, 1), CNOT(0, 0) on 2 qubits: an unguarded CNOT(0, 0)
    # zeroes qubit 0's columns and leaves anticommuting stabilizers IX, IZ.
    t = Tableau(2)
    t.apply_h(0)
    t.apply_cnot(0, 1)
    before = (t.stab, t.destab, t.neg)
    with pytest.raises(BadParams):
        t.apply_cnot(0, 0)
    assert (t.stab, t.destab, t.neg) == before
