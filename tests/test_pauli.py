import itertools

import pytest
from hypothesis import given, settings, strategies as st

import reference_pauli
from tscodes import colex, gf2, hypergraph as hg, lattices, pauli
from tscodes.errors import ColorMissing, NotACycle, SizeMismatch
from tscodes.hypergraph import HEdge, Hypergraph
from tscodes.pauli import Pauli


def _span(gens=()):
    return gf2.Basis(p.vec() for p in gens)


def _link(vertices, color, n):
    return Pauli(n, *pauli.link_operator(vertices, color))


def test_link_operator_table():
    assert _link((0, 1), "r", 3).to_string() == "XXI"
    assert _link((0, 1), "g", 3).to_string() == "YYI"
    assert _link((0, 1), "b", 2).to_string() == "ZZ"
    assert _link((0, 1, 2), None, 3).to_string() == "ZZZ"


def test_link_operator_missing_color():
    with pytest.raises(ColorMissing):
        pauli.link_operator((0, 1), None)


def test_commutes_by_overlap_parity():
    xx = Pauli.from_string("XXI")
    assert not pauli.commutes(xx, Pauli.from_string("IZZ"))  # share one qubit
    assert pauli.commutes(xx, Pauli.from_string("ZZI"))  # share two
    assert pauli.commutes(xx, Pauli.identity(3))


def test_commutes_size_mismatch():
    with pytest.raises(SizeMismatch):
        pauli.commutes(Pauli.identity(2), Pauli.identity(3))


def test_string_round_trip():
    s = "XXIZZYI"
    assert Pauli.from_string(s).to_string() == s
    assert Pauli.from_string(s).weight == 5


def test_phase_product_signs():
    x = (1, 0)
    z = (0, 1)
    y = Pauli.from_string("Y")
    prod, k = pauli.phase_product([x, z])  # XZ = -iY
    assert Pauli(1, *prod) == y and k == 3
    prod, k = pauli.phase_product([z, x])  # ZX = +iY
    assert Pauli(1, *prod) == y and k == 1
    prod, k = pauli.phase_product([x, x])
    assert Pauli(1, *prod).is_identity and k == 0


def _th2(seed):
    c = colex.construct_A(seed)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    return hg.promote(c, vfaces, "r")


def test_commutation_law_matches_intersection_parity(grid22):
    h = _th2(grid22)
    n = h.num_vertices
    ops = [
        _link(e.vertices, e.color, n) for e in h.edges
    ]
    for i, j in itertools.combinations(range(h.num_edges), 2):
        shared = len(
            set(h.edges[i].vertices) & set(h.edges[j].vertices)
        )
        assert pauli.commutes(ops[i], ops[j]) == (shared % 2 == 0)


def test_cycle_operator_empty_is_identity(grid22):
    h = _th2(grid22)
    assert Pauli(h.num_vertices, *pauli.cycle_operator(h, 0)).is_identity


def test_cycle_operator_rejects_non_cycle(grid22):
    h = _th2(grid22)
    with pytest.raises(NotACycle):
        pauli.cycle_operator(h, 1)  # a single edge has odd incidence


def test_cycle_operator_uncolored_edge():
    edges = tuple(
        HEdge(tuple(sorted(e)), None, ("x", i))
        for i, e in enumerate([(0, 1), (1, 2), (2, 3), (3, 0)])
    )
    h = Hypergraph(4, edges)
    with pytest.raises(ColorMissing):
        pauli.cycle_operator(h, 0b1111)
    # Odd incidence is reported first, as before any link is looked up.
    with pytest.raises(NotACycle):
        pauli.cycle_operator(h, 0b0001)
    colored = h.recolored(["r", "b", "r", "b"])
    assert Pauli(4, *pauli.cycle_operator(colored, 0b1111)).to_string() == "YYYY"


def test_promoted_sigma1_weight(grid22):
    h = _th2(grid22)
    for f, rec in enumerate(h.faces):
        if rec.kind != "promoted":
            continue
        fc1, _ = hg.canonical_face_cycles(h, f)
        assert fc1.kind == "sigma1_fprime"
        w = Pauli(h.num_vertices, *pauli.cycle_operator(h, fc1.cycle))
        assert w.weight == len(rec.new_vertices)


def test_rank2_cycle_operator_commutes_with_all_links(honeycomb33_colex):
    h = hg.from_colex(honeycomb33_colex)
    cs = hg.cycle_space(h)
    n = h.num_vertices
    links = [_link(e.vertices, e.color, n) for e in h.edges]
    for sigma in cs.basis:
        w = Pauli(n, *pauli.cycle_operator(h, sigma))
        assert all(pauli.commutes(w, lk) for lk in links)


def test_cycle_operator_is_linear(grid22):
    h = _th2(grid22)
    cs = hg.cycle_space(h)
    a, b = cs.basis[0], cs.basis[1]
    n = h.num_vertices
    wa = Pauli(n, *pauli.cycle_operator(h, a))
    wb = Pauli(n, *pauli.cycle_operator(h, b))
    assert Pauli(n, *pauli.cycle_operator(h, a ^ b)) == wa.mul(wb)


def test_centralizer_single_x():
    span = _span([Pauli.from_string("X")])
    cent = reference_pauli.centralizer(span, 1)
    assert cent.dim == 1
    assert cent.contains(Pauli.from_string("X").vec())


def test_centralizer_of_nothing_is_everything():
    span = _span()
    assert reference_pauli.centralizer(span, 2).dim == 4


def test_centralizer_rank_nullity_random():
    import random

    rng = random.Random(1)
    for _ in range(20):
        n = rng.randrange(1, 6)
        span = _span()
        for _ in range(rng.randrange(0, 2 * n + 1)):
            span.add(Pauli(n, rng.getrandbits(n), rng.getrandbits(n)).vec())
        assert reference_pauli.centralizer(span, n).dim == 2 * n - span.dim


def _exhaustive_center(gens):
    """2-qubit oracle: scan all 16 phase-free Paulis."""
    n = 2
    span = _span(gens)
    out = []
    for x in range(4):
        for z in range(4):
            p = Pauli(n, x, z)
            if span.contains(p.vec()) and all(
                pauli.commutes(p, g) for g in gens
            ):
                out.append(p)
    basis = gf2.Basis(p.vec() for p in out)
    return basis.dim


def test_center_xx_zz():
    # XX and ZZ commute (two shared qubits), so the span is abelian and is
    # its own center; the exhaustive oracle fixes the dimension at 2.
    gens = [Pauli.from_string("XX"), Pauli.from_string("ZZ")]
    c = pauli.center(_span(gens), 2)
    assert _exhaustive_center(gens) == 2
    assert c.dim == 2
    assert c.contains(Pauli.from_string("YY").vec())


def test_center_of_gauge_chain_is_trivial():
    # A single row of two-body gauge operators has no stabilizer at all.
    gens = [
        Pauli.from_string("XXI"),
        Pauli.from_string("IXX"),
        Pauli.from_string("ZZI"),
        Pauli.from_string("IZZ"),
    ]
    assert pauli.center(_span(gens), 3).dim == 0


def test_center_of_two_by_two_compass_gauge():
    # Column X pairs and row Z pairs on a 2x2 block: the center is spanned
    # by the full-block X and Z parities.
    gens = [
        Pauli.from_string("XIXI"),
        Pauli.from_string("IXIX"),
        Pauli.from_string("ZZII"),
        Pauli.from_string("IIZZ"),
    ]
    c = pauli.center(_span(gens), 4)
    assert c.dim == 2
    assert c.contains(Pauli.from_string("XXXX").vec())
    assert c.contains(Pauli.from_string("ZZZZ").vec())
    for p in (Pauli.from_vec(4, v) for v in c.rows):
        assert all(pauli.commutes(p, g) for g in gens)


def test_center_abelian():
    c = pauli.center(_span([Pauli.from_string("X")]), 1)
    assert c.dim == 1


def test_center_anticommuting_pair_is_trivial():
    c = pauli.center(_span([Pauli.from_string("X"), Pauli.from_string("Z")]), 1)
    assert c.dim == 0


def test_span_membership_and_strings():
    span = _span([Pauli.from_string("XX"), Pauli.from_string("ZZ")])
    assert span.contains(Pauli.from_string("YY").vec())
    assert not span.contains(Pauli.from_string("XI").vec())
    assert len([Pauli.from_vec(2, v).to_string() for v in span.rows]) == span.dim == 2


@st.composite
def operator_sequences(draw):
    """n-qubit (x, z) sequences mixing random operators, identities, repeats
    of earlier entries and partners that anticommute with an earlier entry."""
    n = draw(st.integers(1, 12))
    rand = st.integers(0, (1 << n) - 1)
    ops = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["random", "identity", "repeat", "anti"]))
        if kind == "identity":
            ops.append((0, 0))
        elif kind in ("repeat", "anti") and ops:
            px, pz = ops[draw(st.integers(0, len(ops) - 1))]
            if kind == "repeat":
                ops.append((px, pz))
                continue
            x, z = draw(rand), draw(rand)
            if (x & pz).bit_count() % 2 == (z & px).bit_count() % 2 and px | pz:
                q = ((px | pz) & -(px | pz)).bit_length() - 1
                z ^= ((px >> q) & 1) << q  # flips the overlap on qubit q
                x ^= ((pz >> q) & 1 & ~(px >> q)) << q
            ops.append((x, z))
        else:
            ops.append((draw(rand), draw(rand)))
    return n, ops


@given(operator_sequences())
@settings(max_examples=300, deadline=None)
def test_int_product_and_prefix_rule_match_pauli_oracle(case):
    n, ops = case
    paulis = [Pauli(n, x, z) for x, z in ops]
    prod, k = pauli.phase_product(ops)
    if paulis:
        assert (Pauli(n, *prod), k) == reference_pauli.phase_product(paulis)
    else:
        assert (prod, k) == ((0, 0), 0)
    assert pauli.first_bad_prefix(ops) == reference_pauli.first_bad_prefix(paulis)
