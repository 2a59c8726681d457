import random

import pytest

from molga.codec import decode, random_genotype
from molga.graph import (
    Fingerprint,
    KekulizationFailure,
    MolecularGraph,
    SmilesSyntaxError,
    UnsupportedFeature,
    ValenceViolation,
    _HASH_MEMO_SIZE,
    _fnv1a,
    _hash_ints,
    canonical,
    fingerprint,
    methane,
    parse_smiles,
    rings,
    tanimoto,
    validate,
)

from helpers import brute_force_isomorphic, enumerate_simple_cycles


def permuted(mol: MolecularGraph, rng: random.Random) -> MolecularGraph:
    idx = list(range(mol.n_atoms))
    rng.shuffle(idx)
    perm = {old: new for new, old in enumerate(idx)}
    elements = [mol.elements[idx[i]] for i in range(len(idx))]
    bonds = [(perm[a], perm[b], o) for (a, b), o in mol.bonds.items()]
    return MolecularGraph(elements, bonds)


class TestValidate:
    def test_methane_ok(self):
        assert validate(methane()) == []

    def test_overbonded_carbon(self):
        mol = MolecularGraph(["C", "F", "F", "F", "F", "F"],
                             [(0, i, 1) for i in range(1, 6)])
        problems = validate(mol)
        assert any("atom 0" in p for p in problems)

    def test_disconnected(self):
        mol = MolecularGraph(["C", "C"], [])
        problems = validate(mol)
        assert any("disconnected" in p for p in problems), problems

    def test_parallel_bonds(self):
        mol = MolecularGraph(["C", "C"], [(0, 1, 1), (1, 0, 1)])
        assert any("parallel" in p for p in validate(mol))

    def test_self_loop_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MolecularGraph(["C"], [(0, 0, 1)])


class TestRings:
    def test_cyclopentane(self):
        mol = decode_text("[C][C][C][C][C][Ring1][#C]")
        basis = rings(mol)
        assert len(basis) == 1 and len(basis[0]) == 5

    def test_acyclic(self):
        assert rings(decode_text("[C][C][C]")) == []

    def test_naphthalene_two_six_cycles(self):
        mol = parse_smiles("c1ccc2ccccc2c1")
        basis = rings(mol)
        assert sorted(len(c) for c in basis) == [6, 6]
        # oracle: brute-force enumeration contains exactly these sizes
        all_cycles = enumerate_simple_cycles(mol)
        assert sorted(len(c) for c in all_cycles) == [6, 6, 10]

    def test_circuit_rank_property(self):
        rng = random.Random(5)
        for _ in range(500):
            mol = decode(random_genotype(rng, 50))
            assert len(rings(mol)) == len(mol.bonds) - mol.n_atoms + 1

    def test_spiro_shares_one_atom(self):
        # two triangles sharing one atom
        mol = MolecularGraph(
            ["C"] * 5,
            [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
        assert sorted(len(c) for c in rings(mol)) == [3, 3]


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


class TestParseSmiles:
    def test_chain(self):
        mol = parse_smiles("CCC")
        assert mol.elements == ("C", "C", "C")
        assert mol.bonds == {(0, 1): 1, (1, 2): 1}

    def test_benzene_kekulized(self):
        mol = parse_smiles("c1ccccc1")
        assert sorted(mol.bonds.values()) == [1, 1, 1, 2, 2, 2]
        assert validate(mol) == []
        assert len(rings(mol)) == 1
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
        assert sorted(mol.bonds.values()) == [1, 1, 1, 2, 2, 2]

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
        assert len(rings(mol)) == 2

    def test_overvalent_rejected(self):
        with pytest.raises(ValenceViolation):
            parse_smiles("C(C)(C)(C)(C)C")

    def test_percent_ring_closure(self):
        mol = parse_smiles("C%10CCC%10")
        assert len(rings(mol)) == 1

    def test_explicit_bond_orders(self):
        mol = parse_smiles("C-C=CC#N")
        assert sorted(mol.bonds.values()) == [1, 1, 2, 3]

    def test_ring_bond_order_conflict(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C=1CCC-1")


class TestFingerprint:
    def test_identical_graphs_equal(self):
        a = decode_text("[C][O][C]")
        b = decode_text("[C][O][C]")
        assert fingerprint(a) == fingerprint(b)

    def test_different_elements_differ(self):
        assert fingerprint(methane()) != fingerprint(parse_smiles("O"))

    def test_methane_vs_ethane(self):
        t = tanimoto(fingerprint(methane()), fingerprint(parse_smiles("CC")))
        assert t < 1.0

    def test_isomorphism_invariant(self):
        rng = random.Random(6)
        for _ in range(100):
            mol = decode(random_genotype(rng, 40))
            assert fingerprint(permuted(mol, rng)) == fingerprint(mol)

    def test_to_array(self):
        arr = fingerprint(methane()).to_array()
        assert arr.shape == (1024,)
        assert arr.sum() == len(fingerprint(methane()).bits)


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
        ("FC(F)(F)c1ccc2ncoc2c1", 3, 64,
         [3, 5, 6, 14, 17, 21, 23, 25, 26, 27, 28, 31, 34, 38, 39, 41, 43, 44, 45, 47,
          48, 50, 51, 52, 56, 57, 59, 60, 63]),
        ("FC(F)(F)c1ccc2ncoc2c1", 0, 1024, [95, 505, 818, 927, 985, 1023]),
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
        assert sorted(fresh.fingerprint(radius, nbits).bits) == bits


class TestTanimoto:
    def test_self_similarity(self):
        fp = fingerprint(parse_smiles("CCOC"))
        assert tanimoto(fp, fp) == 1.0

    def test_disjoint(self):
        a = Fingerprint(1024, frozenset({1, 2}))
        b = Fingerprint(1024, frozenset({3, 4}))
        assert tanimoto(a, b) == 0.0

    def test_half_overlap(self):
        a = Fingerprint(1024, frozenset({1, 2, 3}))
        b = Fingerprint(1024, frozenset({2, 3, 4}))
        assert tanimoto(a, b) == 0.5

    def test_both_empty(self):
        a = Fingerprint(1024, frozenset())
        assert tanimoto(a, a) == 1.0

    def test_symmetric_bounded(self):
        rng = random.Random(9)
        mols = [decode(random_genotype(rng, 30)) for _ in range(20)]
        fps = [fingerprint(m) for m in mols]
        for i in range(len(fps)):
            for j in range(len(fps)):
                t = tanimoto(fps[i], fps[j])
                assert 0.0 <= t <= 1.0
                assert t == tanimoto(fps[j], fps[i])
                if fps[i].bits == fps[j].bits:
                    assert t == 1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            tanimoto(Fingerprint(1024, frozenset()), Fingerprint(512, frozenset()))
