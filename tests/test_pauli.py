import itertools

import pytest

from tscodes import colex, gf2, hypergraph as hg, lattices, pauli
from tscodes.errors import ColorMissing, NotACycle, SizeMismatch
from tscodes.hypergraph import HEdge, Hypergraph
from tscodes.pauli import Pauli, PauliSpan


def test_link_operator_table():
    assert pauli.link_operator((0, 1), "r", 3).to_string() == "XXI"
    assert pauli.link_operator((0, 1), "g", 3).to_string() == "YYI"
    assert pauli.link_operator((0, 1), "b", 2).to_string() == "ZZ"
    assert pauli.link_operator((0, 1, 2), None, 3).to_string() == "ZZZ"


def test_link_operator_missing_color():
    with pytest.raises(ColorMissing):
        pauli.link_operator((0, 1), None, 2)


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
    x = Pauli.from_string("X")
    z = Pauli.from_string("Z")
    y = Pauli.from_string("Y")
    prod, k = pauli.phase_product([x, z])  # XZ = -iY
    assert prod == y and k == 3
    prod, k = pauli.phase_product([z, x])  # ZX = +iY
    assert prod == y and k == 1
    prod, k = pauli.phase_product([x, x])
    assert prod.is_identity and k == 0


def _th2(seed):
    c = colex.construct_A(seed)
    vfaces = [f for f, (k, _) in enumerate(c.parentage) if k == "v"]
    return hg.promote(c, vfaces, "r")


def test_commutation_law_matches_intersection_parity(grid22):
    h = _th2(grid22)
    n = h.num_vertices
    ops = [
        pauli.link_operator(e.vertices, e.color, n) for e in h.edges
    ]
    for i, j in itertools.combinations(range(h.num_edges), 2):
        shared = len(
            set(h.edges[i].vertices) & set(h.edges[j].vertices)
        )
        assert pauli.commutes(ops[i], ops[j]) == (shared % 2 == 0)


def test_cycle_operator_empty_is_identity(grid22):
    h = _th2(grid22)
    assert pauli.cycle_operator(h, 0).is_identity


def test_cycle_operator_rejects_non_cycle(grid22):
    h = _th2(grid22)
    with pytest.raises(NotACycle):
        pauli.cycle_operator(h, 1)  # a single edge has odd incidence


def test_cycle_operator_uncolored_edge():
    edges = tuple(
        HEdge(tuple(sorted(e)), None, ("x", i))
        for i, e in enumerate([(0, 1), (1, 2), (2, 3), (3, 0)])
    )
    h = Hypergraph(4, edges, 4)
    with pytest.raises(ColorMissing):
        pauli.cycle_operator(h, 0b1111)
    # Odd incidence is reported first, as before any link is looked up.
    with pytest.raises(NotACycle):
        pauli.cycle_operator(h, 0b0001)
    colored = h.recolored(["r", "b", "r", "b"])
    assert pauli.cycle_operator(colored, 0b1111).to_string() == "YYYY"


def test_promoted_sigma1_weight(grid22):
    h = _th2(grid22)
    for f, rec in enumerate(h.faces):
        if rec.kind != "promoted":
            continue
        fc = hg.canonical_face_cycles(h, f)
        w = pauli.cycle_operator(h, fc.sigma1)
        assert w.weight == len(rec.new_vertices)


def test_rank2_cycle_operator_commutes_with_all_links(honeycomb33_colex):
    h = hg.from_colex(honeycomb33_colex)
    cs = hg.cycle_space(h)
    n = h.num_vertices
    links = [pauli.link_operator(e.vertices, e.color, n) for e in h.edges]
    for sigma in cs.basis:
        w = pauli.cycle_operator(h, sigma)
        assert all(pauli.commutes(w, lk) for lk in links)


def test_cycle_operator_is_linear(grid22):
    h = _th2(grid22)
    cs = hg.cycle_space(h)
    a, b = cs.basis[0], cs.basis[1]
    wa = pauli.cycle_operator(h, a)
    wb = pauli.cycle_operator(h, b)
    assert pauli.cycle_operator(h, a ^ b) == wa.mul(wb)


def test_centralizer_single_x():
    span = PauliSpan(1, [Pauli.from_string("X")])
    cent = pauli.centralizer(span)
    assert cent.dim == 1
    assert cent.contains(Pauli.from_string("X"))


def test_centralizer_of_nothing_is_everything():
    span = PauliSpan(2)
    assert pauli.centralizer(span).dim == 4


def test_centralizer_rank_nullity_random():
    import random

    rng = random.Random(1)
    for _ in range(20):
        n = rng.randrange(1, 6)
        span = PauliSpan(n)
        for _ in range(rng.randrange(0, 2 * n + 1)):
            span.add(Pauli(n, rng.getrandbits(n), rng.getrandbits(n)))
        assert pauli.centralizer(span).dim == 2 * n - span.dim


def _exhaustive_center(gens):
    """2-qubit oracle: scan all 16 phase-free Paulis."""
    n = 2
    span = PauliSpan(n, gens)
    out = []
    for x in range(4):
        for z in range(4):
            p = Pauli(n, x, z)
            if span.contains(p) and all(
                pauli.commutes(p, g) for g in gens
            ):
                out.append(p)
    basis = gf2.Basis(p.vec() for p in out)
    return basis.dim


def test_center_xx_zz():
    # XX and ZZ commute (two shared qubits), so the span is abelian and is
    # its own center; the exhaustive oracle fixes the dimension at 2.
    gens = [Pauli.from_string("XX"), Pauli.from_string("ZZ")]
    c = pauli.center(PauliSpan(2, gens))
    assert _exhaustive_center(gens) == 2
    assert c.dim == 2
    assert c.contains(Pauli.from_string("YY"))


def test_center_of_gauge_chain_is_trivial():
    # A single row of two-body gauge operators has no stabilizer at all.
    gens = [
        Pauli.from_string("XXI"),
        Pauli.from_string("IXX"),
        Pauli.from_string("ZZI"),
        Pauli.from_string("IZZ"),
    ]
    assert pauli.center(PauliSpan(3, gens)).dim == 0


def test_center_of_two_by_two_compass_gauge():
    # Column X pairs and row Z pairs on a 2x2 block: the center is spanned
    # by the full-block X and Z parities.
    gens = [
        Pauli.from_string("XIXI"),
        Pauli.from_string("IXIX"),
        Pauli.from_string("ZZII"),
        Pauli.from_string("IIZZ"),
    ]
    c = pauli.center(PauliSpan(4, gens))
    assert c.dim == 2
    assert c.contains(Pauli.from_string("XXXX"))
    assert c.contains(Pauli.from_string("ZZZZ"))
    for p in c.basis_paulis():
        assert all(pauli.commutes(p, g) for g in gens)


def test_center_abelian():
    c = pauli.center(PauliSpan(1, [Pauli.from_string("X")]))
    assert c.dim == 1


def test_center_anticommuting_pair_is_trivial():
    c = pauli.center(PauliSpan(1, [Pauli.from_string("X"), Pauli.from_string("Z")]))
    assert c.dim == 0


def test_span_membership_and_strings():
    span = PauliSpan(2, [Pauli.from_string("XX"), Pauli.from_string("ZZ")])
    assert span.contains(Pauli.from_string("YY"))
    assert not span.contains(Pauli.from_string("XI"))
    assert len(span.to_strings()) == span.dim == 2
