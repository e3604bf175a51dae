"""The column-mask tableau against the row-major reference tableau."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from reference_tableau import ReferenceTableau, destab_of, stab_of
from tscodes import gf2, pauli
from tscodes.errors import BadParams, InconsistentOutcome, SizeMismatch
from tscodes.pauli import Pauli
from tscodes.scheduler import Tableau, _randbelow


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
        elif step[0] == "op":
            outcomes.append(tab.measure(step[1], step[2], rng))
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
    _assert_same_state(fast, ref, rng_fast, rng_ref)


@given(programs())
@settings(max_examples=300, deadline=None)
def test_stored_rows_stay_hermitian(program):
    """In XZ form a row i^e X^x Z^z is Hermitian iff e = |x & z| mod 2:
    after any gates and signed measurements, every row's e0 bit is the
    parity of its Y count, and no plane has a bit above row n - 1."""
    n, seed, randomize, steps = program
    t = Tableau(n)
    _run(t, steps, random.Random(seed), randomize)
    assert t.e0 >> n == t.e1 >> n == 0
    assert [(t.e0 >> i) & 1 for i in range(n)] == [
        (x & z).bit_count() & 1 for x, z in zip(t.sx, t.sz)
    ]


@pytest.mark.parametrize("letter", ["Z", "Y"])
def test_corrupted_column_raises_noncommuting_rows(letter):
    """Pivot row 0 is Z0 or Y0; a corrupted cx[0] gives row 1 (Z1) an X on
    qubit 0 that its stored row lacks, so the measurement multiplies row 1
    by a pivot it anticommutes with.  The Y pivot's check reads cx[0] after
    the X walk has flipped it."""
    t = Tableau(2)
    if letter == "Y":
        t.apply_h(0)
        t.apply_s(0)
    assert stab_of(t)[0].to_string() == letter + "I"
    t.cx[0] |= 0b10
    op = Pauli.from_string("XX" if letter == "Z" else "ZZ")
    with pytest.raises(InconsistentOutcome, match="^stabilizer rows do not commute$"):
        t.measure(op, 1, random.Random(0))


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


def _assert_same_state(fast, ref, rng_fast, rng_ref):
    """Rows, signs, destabilizers and random streams agree."""
    assert stab_of(fast) == ref.stab
    assert [2 * ((fast.neg >> i) & 1) for i in range(fast.n)] == ref.sign
    assert destab_of(fast) == ref.destab
    assert rng_fast.getstate() == rng_ref.getstate()


def _run_checked(n, seed, steps):
    fast, ref = Tableau(n), ReferenceTableau(n)
    rng_fast, rng_ref = random.Random(seed), random.Random(seed)
    random_count = 0
    for step in steps:
        if step[0] == "measure":
            random_count += _random_outcome(ref, step)
        assert _run(fast, [step], rng_fast, False) == _run(ref, [step], rng_ref, False)
        _check_slots(fast)
    _assert_same_state(fast, ref, rng_fast, rng_ref)
    # Slots run out on random measurements n + 1, 2(n + 1), ...: the first
    # n use the initially free slots, every recycling pass frees n + 1.
    assert fast.recycles == random_count // (n + 1)
    return fast.recycles


@given(long_programs())
@settings(max_examples=60, deadline=None)
def test_slot_recycling_matches_reference(program):
    _run_checked(*program)


@given(long_programs(), st.data())
@settings(max_examples=60, deadline=None)
def test_measure_all_batches_match_reference(program, data):
    """Runs of consecutive measurements go through `measure_all` in batches
    of random size, the reference measures them one step at a time; gates
    end a batch."""
    n, seed, steps = program
    fast, ref = Tableau(n), ReferenceTableau(n)
    rng_fast, rng_ref = random.Random(seed), random.Random(seed)
    random_count = k = 0
    while k < len(steps):
        if steps[k][0] != "measure":
            _run(fast, [steps[k]], rng_fast, False)
            _run(ref, [steps[k]], rng_ref, False)
            k += 1
            continue
        size, batch = data.draw(st.integers(1, 40)), []
        while k < len(steps) and steps[k][0] == "measure" and len(batch) < size:
            batch.append(steps[k])
            k += 1
        expected = []
        for step in batch:
            random_count += _random_outcome(ref, step)
            expected += _run(ref, [step], rng_ref, False)
        ops = [(Pauli(n, x, z), sign) for _, x, z, sign in batch]
        assert fast.measure_all(ops, rng_fast) == expected
        _check_slots(fast)
        _assert_same_state(fast, ref, rng_fast, rng_ref)
        assert fast.recycles == random_count // (n + 1)


@pytest.mark.parametrize("bad", [(1, "width"), (3, "width"), (1, "sign"), (3, "sign")])
def test_measure_all_checks_every_pair_before_measuring(bad):
    """A wrong width or sign at position k > 0 raises before the random
    measurements in front of it touch the tableau or the random stream."""
    k, kind = bad
    ops = [(Pauli.from_string(s), 1) for s in ("XIII", "IXZI", "YYII", "IIIX", "ZZZZ")]
    op, sign = ops[k]
    ops[k] = (Pauli.from_string("XII"), sign) if kind == "width" else (op, -2)
    t, rng = Tableau(4), random.Random(9)

    def state():
        return (stab_of(t), destab_of(t), t.neg, list(t.slot), list(t.row_of),
                t.live, t.free, t.recycles, rng.getstate())

    before = state()
    with pytest.raises(SizeMismatch if kind == "width" else BadParams):
        t.measure_all(ops, rng)
    assert state() == before
    assert t.measure_all([], rng) == [] and state() == before
    # Without the bad pair, the first measurement is random and draws.
    ops[k] = (op, sign)
    t.measure_all(ops[:1], rng)
    assert state() != before


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
    stab, destab = stab_of(t), destab_of(t)
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
    before = (stab_of(t), destab_of(t), t.neg)
    with pytest.raises(BadParams):
        t.apply_cnot(0, 0)
    assert (stab_of(t), destab_of(t), t.neg) == before


def test_measure_rejects_cached_operator_of_another_width():
    op = Pauli.from_string("XZY")
    Tableau(3).measure(op, 1, random.Random(0))
    assert op.support == ([0, 2], [1, 2])
    with pytest.raises(SizeMismatch):
        Tableau(4).measure(op, 1, random.Random(0))
    with pytest.raises(SizeMismatch):
        Tableau(2).measure(op, -1, random.Random(0))


def test_support_cache_leaves_pauli_value_unchanged():
    op, twin = Pauli(70, (1 << 69) | 6, 3 << 40), Pauli(70, (1 << 69) | 6, 3 << 40)
    before = (hash(op), repr(op), dataclasses.astuple(op))
    assert op.support == (gf2.bits(op.x), gf2.bits(op.z))
    assert "support" in vars(op) and "support" not in vars(twin)
    assert op == twin and hash(op) == hash(twin)
    assert (hash(op), repr(op), dataclasses.astuple(op)) == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.x = 0


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 12345678901])
def test_randbelow_matches_randrange(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for k in range(1, 258):
        for _ in range(3):
            assert _randbelow(ours.getrandbits, k) == theirs.randrange(k)
            assert ours.getstate() == theirs.getstate()


def _link_program(pick):
    """A program at link scale, its random choices made by pick(lo, hi):
    40 to 130 qubits and up to 60 steps after `randomize`.  The steps are H
    and S gates (S turns X letters into Y, so pivots carry all three
    letters), CNOTs, measurements of a few dense operators, and, most
    often, measurements drawn from a fixed pool of weight-2 XX / YY / ZZ
    and weight-3 ZZZ operators: the same objects again and again, as
    `simulate_syndrome` measures its links.  Both signs occur."""
    n = pick(40, 130)

    def link(letter, weight):
        q0, d1, d2 = pick(0, n - 1), pick(1, n - 1), pick(1, n - 2)
        qs = [q0, q0 + d1, q0 + d2 + (d2 >= d1)][:weight]
        vec = sum(1 << (q % n) for q in qs)
        return Pauli(n, 0 if letter == "Z" else vec, 0 if letter == "X" else vec)

    pool = [
        link(*(("X", 2), ("Y", 2), ("Z", 2), ("Z", 3))[pick(0, 3)])
        for _ in range(pick(4, 24))
    ]
    steps = []
    for _ in range(pick(10, 60)):
        kind, sign = pick(0, 9), (1, -1)[pick(0, 1)]
        if kind == 0:
            steps.append(("h", pick(0, n - 1)))
        elif kind == 1:
            steps.append(("s", pick(0, n - 1)))
        elif kind == 2:
            c = pick(0, n - 1)
            steps.append(("cnot", c, (c + pick(1, n - 1)) % n))
        elif kind == 3:
            full = (1 << n) - 1
            steps.append(("measure", pick(0, full), pick(0, full), sign))
        else:
            steps.append(("op", pool[pick(0, len(pool) - 1)], sign))
    return n, steps


def _run_stepwise(n, seed, steps):
    """Both tableaux randomized from one seed, then compared after every
    step; returns the letters and sizes of the reference's pivots."""
    fast, ref = Tableau(n), ReferenceTableau(n)
    rng_fast, rng_ref = random.Random(seed), random.Random(seed)
    fast.randomize(rng_fast)
    ref.randomize(rng_ref)
    letters, sizes = set(), []
    for step in steps:
        if step[0] in ("measure", "op"):
            op = step[1] if step[0] == "op" else Pauli(n, step[1], step[2])
            anti = [s for s in ref.stab if not pauli.commutes(op, s)]
            if anti:
                piv = anti[0]
                letters.update(c for c in piv.to_string() if c != "I")
                sizes.append(piv.weight)
        assert _run(fast, [step], rng_fast, False) == _run(ref, [step], rng_ref, False)
        _assert_same_state(fast, ref, rng_fast, rng_ref)
    return letters, sizes


@given(st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_link_scale_matches_reference(data, seed):
    n, steps = _link_program(lambda lo, hi: data.draw(st.integers(lo, hi)))
    _run_stepwise(n, seed, steps)


def test_link_scale_programs_cover_pivot_letters_and_heavy_pivots():
    letters, sizes, pools = set(), [], []
    for seed in range(4):
        rng = random.Random(seed)
        n, steps = _link_program(rng.randint)
        got_letters, got_sizes = _run_stepwise(n, seed, steps)
        letters |= got_letters
        sizes += got_sizes
        pools += [s[1] for s in steps if s[0] == "op"]
    assert letters == {"X", "Y", "Z"}
    assert max(sizes) >= 20 and min(sizes) <= 3
    # Pool operators are measured repeatedly; each decoded its support once.
    assert len(pools) > len({id(op) for op in pools})
    assert all(vars(op)["support"] == (gf2.bits(op.x), gf2.bits(op.z)) for op in pools)
