"""The pivot-keyed GF(2) core against the row-scan reference elimination."""

from functools import reduce
from operator import xor

from hypothesis import given, settings, strategies as st

import reference_gf2
from tscodes import gf2


@st.composite
def programs(draw):
    """A width, a list of add / reduce / rows / copy steps over sparse
    (1-4 set bits) or dense vectors of that width, and one more vector."""
    w = draw(st.integers(1, 200))
    if draw(st.booleans()):
        vec = st.lists(st.integers(0, w - 1), min_size=1, max_size=4).map(
            lambda bs: reduce(xor, (1 << b for b in bs), 0)
        )
    else:
        vec = st.integers(0, (1 << w) - 1)
    step = st.one_of(
        st.tuples(st.just("add"), vec),
        st.tuples(st.just("reduce"), vec),
        st.just(("rows",)),
        st.just(("copy",)),
    )
    steps = draw(st.lists(step, max_size=60))
    return w, steps, draw(vec)


@given(programs())
@settings(max_examples=300, deadline=None)
def test_basis_matches_reference(program):
    w, steps, extra = program
    fast, ref = gf2.Basis(), reference_gf2.Basis()
    added, copies = [], []
    for step in steps:
        if step[0] == "add":
            assert fast.add(step[1]) == ref.add(step[1])
            added.append(step[1])
        elif step[0] == "reduce":
            assert fast.reduce(step[1]) == ref.reduce(step[1])
            assert fast.contains(step[1]) == ref.contains(step[1])
        elif step[0] == "rows":
            assert fast.rows == ref.rows
        else:
            copies.append((fast.copy(), ref.copy()))
        assert fast.dim == ref.dim
        assert list(fast.top) == ref.pivots
    assert fast.rows == ref.rows
    # The sweep reads the added vectors as columns: its relations are the
    # kernel of the transposed matrix, whose row j has bit i when column i
    # has bit j.
    transposed = [
        sum(1 << i for i, v in enumerate(added) if v >> j & 1) for j in range(w)
    ]
    assert gf2.relations(added) == reference_gf2.kernel(transposed, len(added))
    rows, pivots = list(fast.rows), list(fast.top)
    for fast_copy, ref_copy in copies:
        # Later adds to the original left the copy alone, and vice versa.
        assert (fast_copy.rows, list(fast_copy.top)) == (
            ref_copy.rows, ref_copy.pivots
        )
        assert fast_copy.add(extra) == ref_copy.add(extra)
        assert (fast_copy.rows, list(fast_copy.top)) == (
            ref_copy.rows, ref_copy.pivots
        )
        assert (fast.rows, list(fast.top)) == (rows, pivots)


@st.composite
def wide_ints(draw):
    """An int of 0-3000 bits: dense (every bit drawn) or sparse (0-12 set
    bits), so both long and short walks of set bits occur."""
    w = draw(st.integers(0, 3000))
    if w == 0:
        return 0
    if draw(st.booleans()):
        return draw(st.integers(0, (1 << w) - 1))
    bs = draw(st.lists(st.integers(0, w - 1), max_size=12))
    return reduce(xor, (1 << b for b in bs), 0)


@given(wide_ints())
@settings(max_examples=300, deadline=None)
def test_bits_lists_set_bits_ascending(v):
    # The oracles in reference_pauli and reference_tableau call gf2.bits, so
    # it is checked here against a bit-by-bit scan that shares no code.
    assert gf2.bits(v) == [i for i in range(v.bit_length()) if v >> i & 1]


def test_bits_edges():
    assert gf2.bits(0) == []
    assert gf2.bits(1) == [0]
    assert gf2.bits(1 << 2999) == [2999]
    assert gf2.bits((1 << 2880) - 1) == list(range(2880))


@st.composite
def coset_problems(draw):
    """A width up to 40 bits, a basis of dim 0-14 over it and 1-4 vectors;
    with even odds one vector is replaced by a span vector.  The basis rows
    are dense or sparse (1-4 set bits), so the search meets one, two and
    three disjoint information sets and remainders of enough free columns
    but too little rank."""
    w = draw(st.integers(1, 40))
    vec = st.integers(0, (1 << w) - 1)
    sparse = st.lists(st.integers(0, w - 1), min_size=1, max_size=4).map(
        lambda bs: reduce(xor, (1 << b for b in bs), 0)
    )
    n = draw(st.integers(0, 14))
    basis = gf2.Basis(draw(st.lists(st.one_of(vec, sparse), min_size=n, max_size=n)))
    vectors = draw(st.lists(vec, min_size=1, max_size=4))
    if draw(st.booleans()):
        span = gf2.span_vectors(basis.rows)
        i = draw(st.integers(0, len(vectors) - 1))
        vectors[i] = span[draw(st.integers(0, len(span) - 1))]
    return w, basis, vectors


@given(coset_problems())
@settings(max_examples=200, deadline=None)
def test_min_coset_weight_matches_span_enumeration(problem):
    _, basis, vectors = problem
    span = gf2.span_vectors(basis.rows)
    want = min((v ^ x).bit_count() for v in vectors for x in span)
    assert gf2.min_coset_weight(basis, vectors) == want


def _reversed(v, w):
    return int(f"{v:0{w}b}"[::-1], 2)


@given(coset_problems())
@settings(max_examples=200, deadline=None)
def test_min_coset_weight_ignores_column_order(problem):
    """Reversing the columns moves the pivots, so each information set takes
    other columns and the search stops at another level; the weight stays."""
    w, basis, vectors = problem
    flipped = gf2.Basis(_reversed(row, w) for row in basis.rows)
    assert gf2.min_coset_weight(flipped, [_reversed(v, w) for v in vectors]) == (
        gf2.min_coset_weight(basis, vectors)
    )


def test_min_coset_weight_edges():
    assert gf2.min_coset_weight(gf2.Basis([0b11]), []) is None
    assert gf2.min_coset_weight(gf2.Basis([0b11]), iter([0b10])) == 1
    # No rows: the lightest vector.
    assert gf2.min_coset_weight(gf2.Basis(), [0b1011, 0b110, 0b11101]) == 2
    # A vector in the span, and one that is not.
    assert gf2.min_coset_weight(gf2.Basis([0b11, 0b110]), [0b1000, 0b101]) == 0
    # Reduction leaves 0b011 on the first set, the pivot 0b100; only adding
    # the row 0b111 reaches weight 1, which the second set, pivot 0b010,
    # sees with no row added.
    assert gf2.min_coset_weight(gf2.Basis([0b111]), [0b011]) == 1
    # After the pivots 4, 3, 1 the free columns 0 and 2 carry rank 2 < 3, so
    # there is no second set to raise the bound; 0b11100 ^ 0b01100 weighs 1.
    assert gf2.min_coset_weight(gf2.Basis([0b10101, 0b1100, 0b11]), [0b11100]) == 1
