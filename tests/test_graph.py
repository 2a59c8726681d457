import random

import pytest

from molga import cli, codec, graph
from molga.codec import PHENYL_SYMBOLS, Genotype, decode, random_genotype
from molga.discriminator import featurize
from molga.graph import (
    FP_BITS,
    FP_RADIUS,
    KekulizationFailure,
    MolecularGraph,
    SmilesSyntaxError,
    UnsupportedFeature,
    ValenceViolation,
    _FNV_OFFSET,
    _FNV_PRIME,
    _HASH_MEMO_SIZE,
    _MASK64,
    _basis_by_elimination,
    _fundamental_cycles,
    _hash_ints,
    _minimum_cycle_basis,
    canonical,
    canonical_length_bounds,
    canonical_length_in,
    fingerprint,
    parse_smiles,
    tanimoto,
    validate,
)
from molga.props import penalized_logp

from helpers import brute_force_isomorphic, enumerate_simple_cycles


def permuted(mol: MolecularGraph, rng: random.Random) -> MolecularGraph:
    idx = list(range(mol.n_atoms))
    rng.shuffle(idx)
    perm = {old: new for new, old in enumerate(idx)}
    elements = [mol.elements[idx[i]] for i in range(len(idx))]
    bonds = [(perm[a], perm[b], o) for a, b, o in mol.bond_list]
    return MolecularGraph(elements, bonds)


class TestValidate:
    def test_methane_ok(self):
        assert validate(MolecularGraph(["C"], [])) == []

    def test_overbonded_carbon(self):
        mol = MolecularGraph(["C", "F", "F", "F", "F", "F"],
                             [(0, i, 1) for i in range(1, 6)])
        problems = validate(mol)
        assert any("atom 0" in p for p in problems)

    def test_disconnected(self):
        mol = MolecularGraph(["C", "C"], [])
        problems = validate(mol)
        assert any("disconnected" in p for p in problems), problems

    def test_repeated_bond_rejected_at_construction(self):
        for bonds in ([(0, 1, 1), (1, 0, 1)], [(0, 1, 1), (0, 1, 2)]):
            with pytest.raises(ValueError, match="repeated bond"):
                MolecularGraph(["C", "C"], bonds)

    def test_self_loop_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MolecularGraph(["C"], [(0, 0, 1)])


class TestRings:
    def test_cyclopentane(self):
        mol = decode_text("[C][C][C][C][C][Ring1][#C]")
        basis = list(mol.ring_basis())
        assert len(basis) == 1 and len(basis[0]) == 5

    def test_acyclic(self):
        assert list(decode_text("[C][C][C]").ring_basis()) == []

    def test_naphthalene_two_six_cycles(self):
        mol = parse_smiles("c1ccc2ccccc2c1")
        basis = list(mol.ring_basis())
        assert sorted(len(c) for c in basis) == [6, 6]
        # oracle: brute-force enumeration contains exactly these sizes
        all_cycles = enumerate_simple_cycles(mol)
        assert sorted(len(c) for c in all_cycles) == [6, 6, 10]

    def test_circuit_rank_property(self):
        rng = random.Random(5)
        for _ in range(500):
            mol = decode(random_genotype(rng, 50))
            assert len(list(mol.ring_basis())) == len(mol.bond_list) - mol.n_atoms + 1

    def test_forest_needs_no_cycle_search(self, monkeypatch):
        def no_search(g):
            raise AssertionError("a forest has no cycle to search for")

        monkeypatch.setattr(graph, "_fundamental_cycles", no_search)
        rng = random.Random(8)
        trees = 0
        for _ in range(300):
            mol = decode(random_genotype(rng, 40))
            if len(mol.bond_list) == mol.n_atoms - 1:
                trees += 1
                assert _minimum_cycle_basis(mol) == ()
        assert trees > 200
        # two chains; a chain numbered so that connectivity needs a search
        for mol in (MolecularGraph(["C"] * 4, [(0, 1, 1), (2, 3, 1)]),
                    MolecularGraph(["C"] * 3, [(0, 2, 1), (1, 2, 1)])):
            assert _minimum_cycle_basis(mol) == ()

    def test_spiro_shares_one_atom(self):
        # two triangles sharing one atom
        mol = MolecularGraph(
            ["C"] * 5,
            [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
        assert sorted(len(c) for c in list(mol.ring_basis())) == [3, 3]

    def test_one_ring_basis_matches_elimination(self):
        rng = random.Random(41)
        unicyclic = {}
        while len(unicyclic) < 2_000:
            mol = decode(random_genotype(rng, 40))
            if len(mol.bond_list) - mol.n_atoms + 1 == 1:
                unicyclic[mol.elements, mol.bond_list] = mol
        for mol in unicyclic.values():
            for labelled in (mol, permuted(mol, rng)):
                assert _minimum_cycle_basis(labelled) == _basis_by_elimination(
                    labelled, _fundamental_cycles(labelled))
        # disconnected: a ring beside a chain
        mol = MolecularGraph(["C"] * 6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1)])
        assert (_minimum_cycle_basis(mol) == _basis_by_elimination(mol, _fundamental_cycles(mol))
                == ((1, 2, 3),))


def decode_text(text):
    from molga.codec import parse_genotype

    return decode(parse_genotype(text))


class TestCanonical:
    def test_three_carbon_chain(self):
        assert canonical(decode_text("[C][C][C]")) == "CCC"

    def test_determinism(self):
        mol = decode_text("[C][Branch1][C][F][C]")
        assert canonical(mol) == canonical(decode_text("[C][Branch1][C][F][C]"))

    def test_permutation_invariance(self):
        rng = random.Random(2)
        for _ in range(100):
            mol = decode(random_genotype(rng, 50))
            base = canonical(mol)
            for _ in range(5):
                assert canonical(permuted(mol, rng)) == base

    @pytest.mark.parametrize("elements, bonds, expected", [
        (["C", "C", "C", "O"], [(0, 1, 1), (2, 3, 2)], "C=O.CC"),  # ethane + formaldehyde
        (["C", "C", "C", "O"], [(0, 1, 1), (2, 3, 1)], "CC.CO"),  # ethane + methanol
        (["C", "C"], [], "C.C"),
    ])
    def test_disconnected_writes_every_component(self, elements, bonds, expected):
        mol = MolecularGraph(elements, bonds)
        assert canonical(mol) == expected
        rng = random.Random(len(expected))
        for _ in range(10):
            assert canonical(permuted(mol, rng)) == expected

    def test_reparse_isomorphic(self):
        rng = random.Random(3)
        checked = 0
        while checked < 150:
            mol = decode(random_genotype(rng, 22))
            if mol.n_atoms > 12:
                continue
            back = parse_smiles(canonical(mol))
            assert brute_force_isomorphic(back, mol)
            checked += 1

    def test_reparse_fixed_point(self):
        rng = random.Random(4)
        for _ in range(500):
            mol = decode(random_genotype(rng, 50))
            text = canonical(mol)
            assert canonical(parse_smiles(text)) == text

    def test_ring_closure_with_bond_order(self):
        # all-double 4-ring: closure must carry '='
        mol = MolecularGraph(["C"] * 4, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (0, 3, 1)])
        text = canonical(mol)
        assert canonical(parse_smiles(text)) == text


def relabelled(mol: MolecularGraph, perm: tuple[int, ...] | None) -> MolecularGraph:
    """`mol` with atom i renumbered perm[i]; `mol` itself when perm is None."""
    if perm is None:
        return mol
    elements = [""] * mol.n_atoms
    for i, p in enumerate(perm):
        elements[p] = mol.elements[i]
    return MolecularGraph(elements, [(perm[a], perm[b], o) for a, b, o in mol.bond_list])


class TestCanonicalPinned:
    # Canonical strings and ring bases captured before the canonical-form
    # kernel was rewritten; any change to the ranks, the traversal, the
    # renderer or the ring-basis candidate search moves them.
    CASES = [
        ("c1ccccc1",
         "C1=CC=CC=C1", ((0, 1, 2, 3, 4, 5),)),
        ("c1ccc2ccccc2c1",
         "C1C=CC2=CC=CC=C2C=1", ((3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 8, 9))),
        ("C1CCC2(CC1)CCCC2",
         "C1CCC2(CC1)CCCC2", ((3, 6, 7, 8, 9), (0, 1, 2, 3, 4, 5))),
        ("C1CC11CC1",
         "C1CC11CC1", ((0, 1, 2), (2, 3, 4))),
        ("CC(C)(C)C",
         "CC(C)(C)C", ()),
        ("CC(C)(C)C(C)(C)C",
         "CC(C)(C)C(C)(C)C", ()),
        ("C12C3C4C1C5C2C3C45",
         "C12C3C4C1C1C2C3C14",
         ((0, 1, 2, 3), (0, 1, 6, 5), (0, 3, 4, 5), (1, 2, 7, 6), (2, 3, 4, 7))),
        # 3-regular, so every atom keeps the same rank, but not all are equivalent
        ("C12C3C1C1C2C2C1C23",
         "C12C3C1C1C2C2C1C23",
         ((0, 1, 2), (5, 6, 7), (0, 2, 3, 4), (3, 4, 5, 6), (0, 1, 7, 5, 4))),
        ("C12C3C1C1C4C2C2C1C3C24",
         "C12C3C1C1C4C2C2C1C3C24",
         ((0, 1, 2), (4, 5, 6, 9), (6, 7, 8, 9), (0, 2, 3, 4, 5), (1, 2, 3, 7, 8),
          (3, 4, 5, 6, 7))),
        ("C1C2CC3CC1CC(C2)C3",
         "C1C2CC3CC(C2)CC1C3", ((0, 1, 2, 3, 4, 5), (0, 1, 8, 7, 6, 5), (1, 2, 3, 9, 7, 8))),
        ("C1CC2CCC1C2",
         "C1CC2CCC1C2", ((0, 1, 2, 6, 5), (2, 3, 4, 5, 6))),
        ("c1ccc2ncoc2c1",
         "C1=CC=C2C(=C1)N=CO2", ((3, 4, 5, 6, 7), (0, 1, 2, 3, 7, 8))),
        ("FC(F)(F)c1ccc2ncoc2c1",
         "C1C=C2C(=CC=1C(F)(F)F)OC=N2", ((7, 8, 9, 10, 11), (4, 5, 6, 7, 11, 12))),
        ("O=C1NC(=O)c2ccccc21",
         "C1=CC=C2C(=C1)C(NC2=O)=O", ((1, 2, 3, 5, 10), (5, 6, 7, 8, 9, 10))),
        ("C#CC#N",
         "C#CC#N", ()),
        ("CCOC(=O)C(C)N",
         "CCOC(C(C)N)=O", ()),
        ("C1=CC=C1",
         "C1=CC=C1", ((0, 1, 2, 3),)),
        ("OC1C2CC3C1C23",
         "C1C2C3C1C(C23)O", ((4, 5, 6), (2, 3, 4, 6), (1, 2, 6, 5))),
        ("[=O][O][N][N][#N][=O][S][=N][C][Ring2][Branch1][=C][S][=O][S][Branch2][=C]"
         "[Ring2][P][C][=C][=N][=C]",
         "C1(NSON=NNOO1)SOS", ((0, 1, 2, 3, 4, 5, 6, 7, 8),)),
        ("[#C][=C][N][C][N][O][S][#C][N][Ring1][Branch1][=O]",
         "C1NC=CN(CSON1)O", ((0, 1, 2, 3, 4, 5, 6, 7, 8),)),
        ("N#Cc1ccccc1C#N",
         "C1=CC=C(C#N)C(=C1)C#N", ((2, 3, 4, 5, 6, 7),)),
        ("C1CC1C1CC1",
         "C1CC1C1CC1", ((0, 1, 2), (3, 4, 5))),
        ("OCC(O)CO",
         "C(C(CO)O)O", ()),
        ("C1=CC2=CC=CC2=C1",
         "C1C=C2C=CC=C2C=1", ((0, 1, 2, 6, 7), (2, 3, 4, 5, 6))),
    ]

    # The two molecules of the open ring-perception bug (ROADMAP item 1), as
    # parsed and under three fixed relabellings (atom i becomes perm[i]).
    # Their strings and bases depend on the labelling today: these pins
    # record that output and move with the fix.
    RELABELLED = [
        ("C1C2N(OC3(C=1C=PNN=N3)O2)P=N",
         None,
         "C1C2N(OC3(C=1C=PNN=N3)O2)P=N",
         ((0, 1, 11, 4, 5), (1, 2, 3, 4, 11), (4, 5, 6, 7, 8, 9, 10))),
        ("C1C2N(OC3(C=1C=PNN=N3)O2)P=N",
         (2, 3, 12, 10, 13, 1, 6, 7, 0, 8, 5, 11, 4, 9),
         "C1C2N(OC3(C=1C=PNN=N3)O2)P=N",
         ((1, 2, 3, 11, 13), (3, 11, 13, 10, 12), (0, 7, 6, 1, 13, 5, 8))),
        ("C1C2N(OC3(C=1C=PNN=N3)O2)P=N",
         (3, 8, 4, 6, 5, 0, 11, 10, 7, 9, 13, 1, 12, 2),
         "C1C2=CC3N(OC2(N=NNP=1)O3)P=N",
         ((0, 3, 8, 1, 5), (1, 5, 6, 4, 8), (0, 3, 8, 4, 6, 5))),
        ("C1C2N(OC3(C=1C=PNN=N3)O2)P=N",
         (13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
         "C1C2N(OC3(C=1C=PNN=N3)O2)P=N",
         ((2, 9, 8, 13, 12), (2, 9, 10, 11, 12), (3, 4, 5, 6, 7, 8, 9))),
        ("C1OON=NSPN=C2C3C(C3(CS2)N=S)=NSONS1",
         None,
         "C1C2(C3C2=NSONSCOON=NSPN=C3S1)N=S",
         ((9, 10, 11), (8, 9, 11, 12, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 18, 19, 20))),
        ("C1OON=NSPN=C2C3C(C3(CS2)N=S)=NSONS1",
         (20, 4, 15, 18, 13, 9, 6, 7, 5, 1, 2, 17, 10, 3, 12, 14, 0, 16, 11, 8, 19),
         "C1C2(C3C2=NSONSCOON=NSPN=C3S1)N=S",
         ((1, 2, 17), (1, 5, 3, 10, 17), (0, 2, 1, 5, 7, 6, 9, 13, 18, 15, 4, 20, 19, 8, 11, 16))),
        ("C1OON=NSPN=C2C3C(C3(CS2)N=S)=NSONS1",
         (9, 2, 14, 13, 16, 11, 1, 20, 18, 3, 4, 12, 5, 6, 8, 10, 17, 0, 15, 19, 7),
         "C1OON=NSPN=C2C3C(C3(CS2)N=S)=NSONS1",
         ((3, 4, 12), (3, 12, 5, 6, 18), (3, 4, 12, 5, 6, 18))),
        ("C1OON=NSPN=C2C3C(C3(CS2)N=S)=NSONS1",
         (20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
         "C1C2(C3C2=NSONSCOON=NSPN=C3S1)N=S",
         ((9, 10, 11), (7, 8, 9, 11, 12),
          (0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20))),
    ]

    @pytest.mark.parametrize("source, text, basis", CASES)
    def test_pinned(self, source, text, basis):
        mol = decode_text(source) if source.startswith("[") else parse_smiles(source)
        fresh = MolecularGraph(mol.elements, mol.bond_list)
        assert fresh.canonical() == text
        assert fresh.ring_basis() == basis

    @pytest.mark.parametrize("source, perm, text, basis", RELABELLED)
    def test_pinned_relabelled(self, source, perm, text, basis):
        mol = relabelled(parse_smiles(source), perm)
        fresh = MolecularGraph(mol.elements, mol.bond_list)
        assert fresh.canonical() == text
        assert fresh.ring_basis() == basis


def assert_bounded(mol: MolecularGraph) -> None:
    lo, hi = canonical_length_bounds(mol)
    assert lo <= len(mol.canonical()) <= hi, (mol.canonical(), lo, hi)


class TestCanonicalLengthBounds:
    def test_bundled_reference(self, bundled_reference):
        for mol in bundled_reference.graphs:
            assert_bounded(mol)

    def test_random_decodes(self):
        rng = random.Random(8)
        for _ in range(5000):
            assert_bounded(decode(random_genotype(rng, 100)))

    @pytest.mark.parametrize("source", [case[0] for case in TestCanonicalPinned.CASES])
    def test_pinned(self, source):
        mol = decode_text(source) if source.startswith("[") else parse_smiles(source)
        assert_bounded(MolecularGraph(mol.elements, mol.bond_list))

    @pytest.mark.parametrize("source, perm", [case[:2] for case in TestCanonicalPinned.RELABELLED])
    def test_pinned_relabelled(self, source, perm):
        assert_bounded(relabelled(parse_smiles(source), perm))

    def test_two_character_digits(self):
        # a ladder whose carbon rail is walked first: every rung stays open
        # until the nitrogen rail comes back, so 11 closures are open at once
        text = "C1C2C3C4C5C6C7C8C9C%10C%11CNN%11N%10N9N8N7N6N5N4N3N2N1"
        mol = parse_smiles(text)
        assert mol.canonical() == text and "%" in text
        # n = 24, no multiple bonds, r = 11; 20 atoms of degree 3
        assert canonical_length_bounds(mol) == (24 + 2 * 11, 24 + 18 + 6 * 2 + 2 + 2 * 20)
        assert_bounded(mol)

    def test_connected_decode_is_not_rendered(self):
        mol = decode_text("[C][C][Branch1][C][O][C][=C][C][Ring1][Ring1][N]")
        fresh = MolecularGraph(mol.elements, mol.bond_list)
        canonical_length_bounds(fresh)
        assert "canonical" not in fresh._cache

    @pytest.mark.parametrize("mol", [
        # two components: the canonical walk writes one of them
        MolecularGraph(["C", "C", "C", "O"], [(0, 1, 1), (2, 3, 2)]),
        MolecularGraph(["C", "N", "O", "C", "C"], [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 3)]),
        # connected, but atom 1's only neighbor comes after it
        MolecularGraph(["C", "C", "O"], [(0, 2, 1), (1, 2, 1)]),
    ])
    def test_unproven_connectivity_is_rendered(self, mol):
        k = len(mol.canonical())
        assert canonical_length_bounds(mol) == (k, k)


class TestCanonicalLengthIn:
    @pytest.mark.parametrize("lo, hi", [(1, 20), (10, 30), (25, 60)])
    def test_random_decodes(self, lo, hi):
        rng = random.Random(lo * 100 + hi)
        outcomes = set()
        for _ in range(1500):
            mol = decode(random_genotype(rng, 100))
            fresh = MolecularGraph(mol.elements, mol.bond_list)  # nothing memoized
            inside = canonical_length_in(fresh, lo, hi)
            rendered = "canonical" in fresh._cache
            assert inside == (lo <= len(fresh.canonical()) <= hi)
            outcomes.add("rendered" if rendered else "in" if inside else "out")
        assert outcomes == {"in", "out", "rendered"}

    def test_disconnected_graph_is_rendered(self):
        # ethane and formaldehyde: "C=O.CC"
        for (lo, hi), inside in (((1, 6), True), ((6, 9), True), ((1, 5), False), ((7, 9), False)):
            mol = MolecularGraph(["C", "C", "C", "O"], [(0, 1, 1), (2, 3, 2)])
            assert canonical_length_in(mol, lo, hi) is inside
            assert mol._cache["canonical"] == "C=O.CC"


class TestParseSmiles:
    def test_chain(self):
        mol = parse_smiles("CCC")
        assert mol.elements == ("C", "C", "C")
        assert sorted(mol.bond_list) == [(0, 1, 1), (1, 2, 1)]

    def test_benzene_kekulized(self):
        mol = parse_smiles("c1ccccc1")
        assert sorted(o for _, _, o in mol.bond_list) == [1, 1, 1, 2, 2, 2]
        assert validate(mol) == []
        assert len(list(mol.ring_basis())) == 1
        # alternation: no atom carries two doubles
        for i in range(6):
            doubles = sum(1 for _, o in mol.neighbors(i) if o == 2)
            assert doubles == 1

    def test_charged_species_rejected_with_offset(self):
        with pytest.raises(UnsupportedFeature) as exc:
            parse_smiles("C[NH3+]")
        assert exc.value.offset == 1

    def test_stereo_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_smiles("F/C=C/F")

    def test_chlorine_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_smiles("CCCl")

    def test_dot_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_smiles("CC.CC")

    def test_unknown_char(self):
        with pytest.raises(SmilesSyntaxError) as exc:
            parse_smiles("CC?C")
        assert exc.value.offset == 2

    def test_unclosed_ring(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C1CCC")

    def test_unbalanced_branch(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C(CC")
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("CC)C")

    def test_dangling_bond(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("CC=")

    def test_empty(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("")

    def test_aromatic_not_in_ring(self):
        with pytest.raises(KekulizationFailure):
            parse_smiles("cc")

    def test_pyridine(self):
        mol = parse_smiles("c1ccncc1")
        assert validate(mol) == []
        assert sorted(o for _, _, o in mol.bond_list) == [1, 1, 1, 2, 2, 2]

    def test_furan_oxygen_takes_no_double(self):
        mol = parse_smiles("c1ccoc1")
        assert validate(mol) == []
        o_idx = mol.elements.index("O")
        assert all(o == 1 for _, o in mol.neighbors(o_idx))

    def test_pyrrole_type_nitrogen(self):
        mol = parse_smiles("c1ccnc1")
        assert validate(mol) == []

    def test_biphenyl_link_single(self):
        mol = parse_smiles("c1ccccc1c1ccccc1")
        assert validate(mol) == []
        assert len(list(mol.ring_basis())) == 2

    def test_overvalent_rejected(self):
        with pytest.raises(ValenceViolation):
            parse_smiles("C(C)(C)(C)(C)C")

    def test_percent_ring_closure(self):
        mol = parse_smiles("C%10CCC%10")
        assert len(list(mol.ring_basis())) == 1

    def test_explicit_bond_orders(self):
        mol = parse_smiles("C-C=CC#N")
        assert sorted(o for _, _, o in mol.bond_list) == [1, 1, 2, 3]

    def test_ring_bond_order_conflict(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C=1CCC-1")


class TestFingerprint:
    def test_identical_graphs_equal(self):
        a = decode_text("[C][O][C]")
        b = decode_text("[C][O][C]")
        assert fingerprint(a) == fingerprint(b)

    def test_different_elements_differ(self):
        assert fingerprint(MolecularGraph(["C"], [])) != fingerprint(parse_smiles("O"))

    def test_methane_vs_ethane(self):
        t = tanimoto(fingerprint(MolecularGraph(["C"], [])), fingerprint(parse_smiles("CC")))
        assert t < 1.0

    def test_isomorphism_invariant(self):
        rng = random.Random(6)
        for _ in range(100):
            mol = decode(random_genotype(rng, 40))
            assert fingerprint(permuted(mol, rng)) == fingerprint(mol)

    def test_ring_atoms_are_not_kept(self):
        mol = parse_smiles("c1ccccc1CC1CC1")
        assert mol.ring_atoms() == frozenset(range(6)) | {7, 8, 9}
        mol.canonical()
        mol.fingerprint()
        assert not any(isinstance(v, frozenset) for v in mol._cache.values())


def _fnv1a(data: bytes) -> int:
    """FNV-1a-64 one byte at a time, the reference `_hash_ints` must match."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


class TestHashKernel:
    def test_fnv1a_known_answers(self):
        assert _fnv1a(b"") == 0xCBF29CE484222325
        assert _fnv1a(b"a") == 0xAF63DC4C8601EC8C

    def test_hash_ints_matches_byte_loop(self):
        def byte_loop(values):
            buf = bytearray()
            for v in values:
                buf.extend(v.to_bytes(8, "big"))
            return _fnv1a(bytes(buf))

        rng = random.Random(12)
        inputs = [tuple(rng.getrandbits(rng.choice((3, 8, 64)))
                        for _ in range(rng.randint(1, 9)))
                  for _ in range(_HASH_MEMO_SIZE + 4000)]
        assert len(set(inputs)) > _HASH_MEMO_SIZE  # the memo is cleared at least once
        for values in inputs + inputs[:4000]:
            assert _hash_ints(values) == byte_loop(values)
        assert _hash_ints(list(inputs[0])) == byte_loop(inputs[0])

    def test_hash_ints_at_the_one_byte_boundary(self):
        # values below 256 take the one-byte step, the others the byte rounds
        edges = (0, 1, 255, 256, 257, 65535, 65536, 2**63, 2**64 - 1)
        for a in edges:
            for b in edges:
                data = a.to_bytes(8, "big") + b.to_bytes(8, "big")
                assert _hash_ints((a, b)) == _fnv1a(data)
                assert _hash_ints((a,)) == _fnv1a(data[:8])


class TestFingerprintBits:
    # On bits captured before the hashed environments were memoized; any
    # change to the hash, the invariants or the folding moves them.
    CASES = [
        ("c1ccccc1O", 2, 1024,
         [28, 88, 95, 218, 230, 364, 414, 443, 466, 533, 792, 879, 900, 927, 1023]),
        ("C1CC2CCC1C2", 2, 1024, [355, 396, 463, 684, 818, 826, 876, 918]),
        ("O=C1NC(=O)c2ccccc21", 2, 1024,
         [51, 95, 123, 230, 364, 396, 420, 466, 513, 558, 579, 588, 790, 792, 939, 1023]),
        ("FC(F)(F)c1ccc2ncoc2c1", 2, 1024,
         [5, 14, 95, 98, 120, 244, 316, 337, 364, 486, 493, 505, 507, 582, 602, 691,
          756, 807, 818, 880, 919, 927, 985, 999, 1001, 1023]),
        ("[=O][O][N][N][#N][=O][S][=N][C][Ring2][Branch1][=C][S][=O][S][Branch2][=C]"
         "[Ring2][P][C][=C][=N][=C]", 2, 1024,
         [49, 63, 109, 114, 126, 144, 222, 229, 317, 375, 386, 396, 464, 498, 530, 571,
          588, 612, 620, 632, 640, 684, 701, 719, 774, 818, 820, 904, 927, 965, 1008]),
        ("[#C][=C][N][C][N][O][S][#C][N][Ring1][Branch1][=O]", 2, 1024,
         [23, 29, 83, 95, 214, 249, 327, 363, 373, 386, 400, 446, 472, 521, 584, 588,
          653, 672, 684, 718, 778, 786, 818, 927, 965]),
    ]

    @pytest.mark.parametrize("source, radius, nbits, bits", CASES)
    def test_bits_pinned(self, source, radius, nbits, bits):
        mol = decode_text(source) if source.startswith("[") else parse_smiles(source)
        fresh = MolecularGraph(mol.elements, mol.bond_list)
        assert (radius, nbits) == (FP_RADIUS, FP_BITS)
        assert fresh.fingerprint() == sum(1 << k for k in bits)


class TestTanimoto:
    def test_self_similarity(self):
        fp = fingerprint(parse_smiles("CCOC"))
        assert tanimoto(fp, fp) == 1.0

    def test_disjoint(self):
        a = 1 << 1 | 1 << 2
        b = 1 << 3 | 1 << 4
        assert tanimoto(a, b) == 0.0

    def test_half_overlap(self):
        a = 1 << 1 | 1 << 2 | 1 << 3
        b = 1 << 2 | 1 << 3 | 1 << 4
        assert tanimoto(a, b) == 0.5

    def test_both_empty(self):
        assert tanimoto(0, 0) == 1.0

    def test_symmetric_bounded(self):
        rng = random.Random(9)
        mols = [decode(random_genotype(rng, 30)) for _ in range(20)]
        fps = [fingerprint(m) for m in mols]
        for i in range(len(fps)):
            for j in range(len(fps)):
                t = tanimoto(fps[i], fps[j])
                assert 0.0 <= t <= 1.0
                assert t == tanimoto(fps[j], fps[i])
                if fps[i] == fps[j]:
                    assert t == 1.0


class _Unshared(dict):
    """A table that keeps nothing: a graph built under it gets tuples of
    its own."""

    def setdefault(self, key, default=None):
        return default


def unshared_copy(mol: MolecularGraph) -> MolecularGraph:
    """`mol` rebuilt with freshly allocated tuples, none from the table."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(graph, "_shared", _Unshared())
        return MolecularGraph(mol.elements, mol.bond_list)


def ring_rich_genotype(rng: random.Random) -> Genotype:
    """A random genotype with one to three phenyl blocks spliced in, as the
    phenyl mutation does."""
    symbols = list(random_genotype(rng, 30).symbols)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(symbols))
        symbols[pos:pos] = PHENYL_SYMBOLS
    return Genotype(tuple(symbols))


def structure_values(mol: MolecularGraph, stats) -> tuple:
    return (mol.canonical(), mol.ring_basis(), penalized_logp(mol, stats),
            tuple(featurize(mol)), mol.fingerprint())


class TestBondOrder:
    def test_agrees_with_bond_list(self, bundled_reference):
        rng = random.Random(19)
        mols = list(bundled_reference.graphs)
        mols += [decode(random_genotype(rng, 40)) for _ in range(2000)]
        for mol in mols:
            orders = {(a, b): o for a, b, o in mol.bond_list}
            for i in range(mol.n_atoms):
                for j in range(mol.n_atoms):
                    expected = orders.get((i, j) if i < j else (j, i))
                    assert mol.bond_order(i, j) == expected
            assert len(orders) == len(mol.bond_list)


class TestSharedTuples:
    def test_equal_tuples_are_one_object(self):
        a = MolecularGraph(["C", "C", "O"], [(0, 1, 1), (1, 2, 2)])
        b = MolecularGraph(["N", "C", "C", "F"], [(1, 0, 1), (2, 1, 2), (3, 0, 1)])
        assert a.bond_list[0] is b.bond_list[0]  # (0, 1, 1)
        assert a.bond_list[1] is b.bond_list[1]  # (1, 2, 2)
        assert a.neighbors(1) == ((0, 1), (2, 2))
        assert a.neighbors(1) is b.neighbors(1)  # a whole row
        assert a.neighbors(2)[0] is b.neighbors(2)[0]  # (1, 2)
        assert a.neighbors(0) != b.neighbors(0)

    def test_unshared_copy_has_tuples_of_its_own(self):
        mol = parse_smiles("CC(=O)C1CCCCC1")
        fresh = unshared_copy(mol)
        assert fresh.bond_list == mol.bond_list
        assert fresh._adj == mol._adj
        assert not any(x is y for x, y in zip(fresh.bond_list, mol.bond_list))
        assert not any(x is y for x, y in zip(fresh._adj, mol._adj))

    def test_shared_and_fresh_graphs_agree_on_the_reference(self, bundled_reference):
        stats = bundled_reference.prop_stats
        for mol in bundled_reference.graphs:
            shared = MolecularGraph(mol.elements, mol.bond_list)
            assert structure_values(shared, stats) == structure_values(unshared_copy(mol), stats)

    def test_shared_and_fresh_graphs_agree_on_random_decodes(self, bundled_reference):
        stats = bundled_reference.prop_stats
        rng = random.Random(13)
        genotypes = [random_genotype(rng, 40) for _ in range(3000)]
        genotypes += [ring_rich_genotype(rng) for _ in range(2000)]
        multi_ring = 0
        for gt in genotypes:
            mol = decode(gt)
            assert structure_values(mol, stats) == structure_values(unshared_copy(mol), stats)
            multi_ring += len(mol.ring_basis()) > 1
        assert multi_ring > 500

    def test_table_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(graph, "_SHARED_SIZE", 64)
        monkeypatch.setattr(graph, "_shared", {})
        rng = random.Random(3)
        sizes = []
        for _ in range(2000):
            mol = decode(random_genotype(rng, 40))
            MolecularGraph(mol.elements, mol.bond_list)
            sizes.append(len(graph._shared))
        assert max(sizes) <= 64
        assert sum(b < a for a, b in zip(sizes, sizes[1:])) > 10  # cleared often

    def test_clearing_mid_run_changes_no_output(self, monkeypatch):
        class CountingTable(dict):
            clears = 0

            def clear(self):
                CountingTable.clears += 1
                super().clear()

        config = cli.parse_config({"task": "unconstrained", "population_size": 60,
                                   "generations": 6, "beta": 10.0, "seed": 4, "threads": 1})
        monkeypatch.setattr(codec, "_graphs", {})
        expected = cli.determinism_hash(cli.run_task(config, None))
        monkeypatch.setattr(codec, "_graphs", {})  # build every graph again
        monkeypatch.setattr(graph, "_SHARED_SIZE", 200)
        monkeypatch.setattr(graph, "_shared", CountingTable())
        assert cli.determinism_hash(cli.run_task(config, None)) == expected
        assert CountingTable.clears > 5

    def test_bool_or_numpy_bond_values_are_rejected(self):
        np = pytest.importorskip("numpy")
        for bond in [(0, 1, True), (np.int64(0), 1, 1), (0, 1, 1.0)]:
            with pytest.raises(TypeError):
                MolecularGraph(["C", "C"], [bond])
        assert MolecularGraph(["C", "C"], [(0, 1, 1)]).bond_list == ((0, 1, 1),)
