import gc
import random

import pytest

from molga import codec, evolver
from molga.codec import (
    N_SYMBOLS,
    PHENYL_SYMBOLS,
    Genotype,
    GenotypeSyntaxError,
    Symbol,
    UnencodableGraph,
    decode,
    encode,
    parse_genotype,
    random_genotype,
)
from molga.discriminator import _featurize, featurize
from molga.graph import (
    VALENCE,
    MolecularGraph,
    _canonical_string,
    _fingerprint,
    _minimum_cycle_basis,
    canonical,
)
from molga.props import (
    _logp_raw,
    _qed,
    _ring_penalty_raw,
    _sa_raw,
    logp_raw,
    qed,
    ring_penalty_raw,
    sa_raw,
)
from molga.reference import synthetic_reference

from helpers import (
    brute_force_isomorphic,
    connected_ok,
    enumerate_simple_cycles,
    random_genotype_per_symbol,
    valence_ok,
)


def g(text):
    return decode(parse_genotype(text))


class TestDecodeExamples:
    def test_linear_chain(self):
        mol = g("[C][C][C]")
        assert mol.elements == ("C", "C", "C")
        assert sorted(mol.bond_list) == [(0, 1, 1), (1, 2, 1)]

    def test_double_bond_clamped_by_fluorine(self):
        # requested order 2 must clamp to F's remaining valence of 1
        mol = g("[F][=C]")
        assert mol.elements == ("F", "C")
        assert mol.bond_list == ((0, 1, 1),)
        assert valence_ok(mol)

    def test_cyclopentane_ring_closure(self):
        mol = g("[C][C][C][C][C][Ring1][#C]")
        assert mol.n_atoms == 5
        cycles = enumerate_simple_cycles(mol)
        assert len(cycles) == 1 and len(cycles[0]) == 5

    def test_branch_of_length_one(self):
        mol = g("[C][Branch1][C][F][C]")
        assert sorted(mol.elements) == ["C", "C", "F"]
        assert sorted(mol.bond_list) == [(0, 1, 1), (0, 2, 1)]

    def test_all_control_string_falls_back_to_methane(self):
        mol = g("[Ring1][Ring1]")
        assert mol.elements == ("C",)
        assert mol.bond_list == ()

    def test_phenyl_block_is_kekule_benzene(self):
        mol = decode(Genotype(PHENYL_SYMBOLS))
        assert mol.n_atoms == 6
        orders = sorted(o for _, _, o in mol.bond_list)
        assert orders == [1, 1, 1, 2, 2, 2]
        # alternating assignment: every carbon carries one double bond and
        # exactly one implicit hydrogen (full valence 4)
        sums = [sum(o for _, o in mol.neighbors(i)) for i in range(6)]
        assert sums == [3] * 6
        assert all(VALENCE[mol.elements[i]] - sums[i] == 1 for i in range(6))

    def test_triple_bond(self):
        mol = g("[C][#C]")
        assert mol.bond_list == ((0, 1, 3),)

    def test_saturation_terminates_derivation(self):
        # F-F saturates both atoms; everything after is never read
        assert canonical(g("[F][F][C][C][C]")) == canonical(g("[F][F]"))

    def test_terminated_suffix_ignored(self):
        # [C][=O] leaves the attachment atom O saturated, so the derivation
        # terminates at the next atom symbol and never reads past it
        base = g("[C][=O]")
        alt = g("[C][=O][=O][S][S][S]")
        assert canonical(base) == canonical(alt)

    def test_branch_skipped_when_valence_low(self):
        # F has valence 1: after bonding, no branch possible from it
        mol = g("[C][F][Branch1][C][C][C]")
        assert valence_ok(mol)

    def test_missing_branch_operand_ignored(self):
        mol = g("[C][C][Branch1]")
        assert mol.n_atoms == 2

    def test_missing_ring_operands_ignored(self):
        mol = g("[C][C][Ring2][C]")
        assert mol.n_atoms == 2
        assert len(mol.bond_list) == 1

    def test_ring_offset_clamps_to_first_atom(self):
        # offset larger than atoms placed: closes back to atom 0
        mol = g("[C][C][C][Ring1][F]")  # offset = 11 + 2 = 13 > 2
        assert mol.bond_order(0, 2) is not None

    def test_ring_self_and_duplicate_skipped(self):
        mol = g("[C][C][Ring1][C]")  # offset 2 from atom 1 clamps to 0: bond exists
        assert mol.bond_list == ((0, 1, 1),)
        assert valence_ok(mol)

    def test_decode_is_pure(self):
        gt = parse_genotype("[C][Branch1][C][F][C][Ring1][C]")
        assert canonical(decode(gt)) == canonical(decode(gt))


class TestDecodeTotality:
    def test_fuzz_always_valid(self):
        rng = random.Random(123)
        for _ in range(10_000):
            mol = decode(random_genotype(rng, 50))
            assert valence_ok(mol)
            assert connected_ok(mol)

    def test_empty_genotype_rejected(self):
        with pytest.raises(ValueError):
            Genotype(())


class TestGenotypeSymbols:
    def test_int_sequence_becomes_bytes(self):
        gt = Genotype((Symbol.C, Symbol.BRANCH1, 0, 11, 15))
        assert gt.symbols == bytes((0, 12, 0, 11, 15))
        assert gt == Genotype([0, 12, 0, 11, 15]) == Genotype(gt.symbols)
        assert hash(gt) == hash(Genotype(gt.symbols))

    @pytest.mark.parametrize("bad", [16, 99, 255, 256, -1, -16])
    def test_index_outside_alphabet_rejected(self, bad):
        # 99 used to decode as [Ring2] and then fail in text()
        with pytest.raises(ValueError):
            Genotype((Symbol.C, Symbol.C, Symbol.C, bad, Symbol.N, Symbol.C))

    def test_bytes_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            Genotype(b"\x00\x10")

    def test_int_rejected(self):
        # bytes(3) would be three [C] symbols
        with pytest.raises(TypeError):
            Genotype(3)

    def test_graph_memo_ignored_by_equality(self):
        a, b = parse_genotype("[C][O]"), parse_genotype("[C][O]")
        mol = decode(a)
        assert a == b and hash(a) == hash(b)
        assert decode(b) is mol  # the structure cache, not a's memo


class TestEncode:
    def test_single_atom(self):
        assert encode(MolecularGraph(["C"], [])).text() == "[C]"

    def test_two_atom(self):
        gt = encode(MolecularGraph(["F", "C"], [(0, 1, 1)]))
        assert brute_force_isomorphic(decode(gt), MolecularGraph(["F", "C"], [(0, 1, 1)]))

    def test_cyclopentane_roundtrip(self):
        mol = g("[C][C][C][C][C][Ring1][#C]")
        gt = encode(mol)
        assert brute_force_isomorphic(decode(gt), mol)

    def test_roundtrip_fuzz_small(self):
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            mol = decode(random_genotype(rng, 24))
            if mol.n_atoms > 12:
                continue
            assert brute_force_isomorphic(decode(encode(mol)), mol)
            checked += 1

    def test_roundtrip_fuzz_canonical(self):
        rng = random.Random(8)
        for _ in range(1000):
            mol = decode(random_genotype(rng, 50))
            assert canonical(decode(encode(mol))) == canonical(mol)

    def test_high_order_cycle_unencodable(self):
        # triangle of double bonds: ring closures are single, so no genotype
        mol = MolecularGraph(["C", "C", "C"], [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
        with pytest.raises(UnencodableGraph):
            encode(mol)

    def test_phosphorus_double_bond_oriented(self):
        # P=C has no [=P] symbol; the encoder must walk it P-first
        mol = MolecularGraph(["C", "P", "C"], [(0, 1, 2), (1, 2, 1)])
        assert canonical(decode(encode(mol))) == canonical(mol)

    def test_cross_subtree_closure(self):
        # ring closure between sibling branch subtrees
        mol = g("[C][Branch1][O][C][C][C][C][C][C][Ring2][C][C]")
        assert canonical(decode(encode(mol))) == canonical(mol)


class TestRandomGenotype:
    def test_single_symbol_uniform(self):
        rng = random.Random(42)
        counts = [0] * N_SYMBOLS
        n = 10_000
        for _ in range(n):
            gt = random_genotype(rng, 1)
            assert len(gt.symbols) == 1
            counts[gt.symbols[0]] += 1
        expected = n / N_SYMBOLS
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        # 15 dof, far tail: chi2_0.999 ~ 37.7
        assert chi2 < 37.7

    def test_length_uniform(self):
        rng = random.Random(1)
        lengths = [len(random_genotype(rng, 10).symbols) for _ in range(5000)]
        assert min(lengths) == 1 and max(lengths) == 10

    def test_deterministic_with_seed(self):
        a = [random_genotype(random.Random(99), 30).text() for _ in range(5)]
        b = [random_genotype(random.Random(99), 30).text() for _ in range(5)]
        assert a == b

    def test_rejects_bad_max_len(self):
        with pytest.raises(ValueError):
            random_genotype(random.Random(0), 0)

    @pytest.mark.parametrize("seed", range(24))
    def test_consumes_the_stream_like_per_symbol_draws(self, seed):
        # same genotypes and the same generator state after every call, so
        # every later draw from the generator is unchanged too
        blocks, per_symbol = random.Random(seed), random.Random(seed)
        for max_len in (1, 2, 33, 100, 300) * 4:
            assert random_genotype(blocks, max_len) == random_genotype_per_symbol(
                per_symbol, max_len)
            assert blocks.getstate() == per_symbol.getstate()


class TestGenotypeText:
    def test_roundtrip(self):
        text = "[C][Branch1][C][F][C][Ring1][C]"
        assert parse_genotype(text).text() == text

    def test_unknown_token_position(self):
        with pytest.raises(GenotypeSyntaxError) as exc:
            parse_genotype("[C][Xx][C]")
        assert exc.value.offset == 3

    def test_stray_text_rejected(self):
        with pytest.raises(GenotypeSyntaxError):
            parse_genotype("[C]garbage")

    def test_empty_rejected(self):
        with pytest.raises(GenotypeSyntaxError):
            parse_genotype("")

    def test_unterminated(self):
        with pytest.raises(GenotypeSyntaxError):
            parse_genotype("[C][Branch1")


class TestLocality:
    def test_prefix_determines_graph_up_to_termination(self):
        # appending symbols after a hard termination never changes the result
        rng = random.Random(3)
        for _ in range(200):
            gt = random_genotype(rng, 20)
            mol1 = decode(gt)
            extended = Genotype(gt.symbols + bytes((Symbol.C, Symbol.S)))
            mol2 = decode(extended)
            # either the extension changed the molecule (no termination) or
            # it is identical; both must be valid
            assert valence_ok(mol2)

    def test_replacement_changes_graph(self):
        base = parse_genotype("[C][C][C]")
        swapped = parse_genotype("[C][O][C]")
        assert canonical(decode(base)) != canonical(decode(swapped))


def memoized(mol):
    """Every value memoized on a graph, and the features read from them."""
    return (mol.canonical(), mol.ring_basis(), logp_raw(mol), sa_raw(mol),
            ring_penalty_raw(mol), qed(mol), mol.fingerprint(), tuple(featurize(mol)))


def computed(mol):
    """The same values, each computed directly rather than read from the memo."""
    return (_canonical_string(mol), _minimum_cycle_basis(mol), _logp_raw(mol), _sa_raw(mol),
            _ring_penalty_raw(mol), _qed(mol), _fingerprint(mol), tuple(_featurize(mol)))


class TestStructureTable:
    def test_same_structure_same_object(self):
        # the trailing branch misses its operand and is skipped
        assert g("[C][C]") is g("[C][C][Branch1]")
        # no derivable atom: the methane fallback is the graph [C] decodes to
        assert g("[Branch1][C]") is g("[C]")

    def test_relabelled_structure_distinct_object(self):
        a, b = g("[O][C][C]"), g("[C][C][O]")
        assert a is not b
        assert canonical(a) == canonical(b)

    def test_keeps_at_most_size_graphs_alive(self, small_cache):
        def live_graphs():
            return sum(isinstance(o, MolecularGraph) for o in gc.get_objects())

        gc.collect()
        before = live_graphs()
        rng = random.Random(17)
        mols = [decode(random_genotype(rng, 30)) for _ in range(300)]
        assert len({id(mol) for mol in mols}) > small_cache
        del mols
        gc.collect()
        assert live_graphs() - before <= small_cache

    def test_shared_graph_values_match_a_fresh_graph(self):
        rng = random.Random(23)
        decoded = [(gt.symbols, decode(gt))
                   for gt in (random_genotype(rng, 20) for _ in range(600))]
        for _, mol in decoded:
            memoized(mol)  # the first genotype of each structure fills its memo
        mols = {id(mol): mol for _, mol in decoded}
        assert len(mols) < len({symbols for symbols, _ in decoded})
        assert len(mols) >= 300
        for mol in mols.values():
            assert memoized(mol) == computed(MolecularGraph(mol.elements, mol.bond_list))

    def test_never_holds_more_than_its_size(self, small_cache):
        rng = random.Random(5)
        for _ in range(200):
            decode(random_genotype(rng, 20))
            assert len(codec._graphs) <= small_cache
        assert len(codec._graphs) == small_cache

    def test_hit_moves_a_structure_to_the_back(self, small_cache):
        first = decode(chain(1))
        for k in range(2, small_cache + 1):
            decode(chain(k))
        assert decode(chain(1)) is first  # a new genotype object: a cache hit
        for k in range(small_cache + 1, 2 * small_cache):  # size - 1 others
            decode(chain(k))
        assert (first.elements, first.bond_list) in codec._graphs
        decode(chain(2 * small_cache))
        assert (first.elements, first.bond_list) not in codec._graphs
        assert decode(chain(1)) is not first

    def test_genotype_keeps_its_graph(self, small_cache):
        gt = parse_genotype("[C][=C][C][=C][C][=C][Ring1][N]")
        mol = decode(gt)
        for k in range(1, 2 * small_cache):  # evicts mol from the cache
            decode(chain(k))
        assert decode(gt) is mol

    def test_evolver_derives_each_genotype_once(self, monkeypatch):
        genotypes = {}
        derived = [0]

        def counting_decode(gt):
            genotypes[id(gt)] = gt  # kept alive, so ids stay distinct
            return decode(gt)

        def counting_derive(symbols):
            derived[0] += 1
            return derive(symbols)

        ref = synthetic_reference(50, seed=1)
        derive = codec._derive
        monkeypatch.setattr(codec, "_derive", counting_derive)
        monkeypatch.setattr(evolver, "decode", counting_decode)
        evolver.run(evolver.EvolverConfig(population_size=30, generations=5, seed=3), ref)
        assert derived[0] == len(genotypes) > 30

    def test_rebuilt_graph_values_match_a_fresh_graph(self, small_cache):
        rng = random.Random(29)
        by_structure = {}  # one genotype per structure, so each is evicted
        while len(by_structure) < 4 * small_cache:
            gt = random_genotype(rng, 30)
            mol = decode(gt)
            by_structure.setdefault((mol.elements, mol.bond_list), (gt, mol))
        for gt, mol in by_structure.values():
            memoized(mol)
        for k in range(31, 31 + small_cache):  # longer than any of them: evicts all
            decode(chain(k))
        for gt, mol in by_structure.values():
            rebuilt = decode(Genotype(gt.symbols))
            assert rebuilt is not mol
            assert memoized(rebuilt) == computed(MolecularGraph(mol.elements, mol.bond_list))


def chain(n):
    """A genotype deriving an n-carbon chain: a distinct structure per n."""
    return Genotype((Symbol.C,) * n)


@pytest.fixture
def small_cache(monkeypatch):
    """An empty structure cache of 8 entries; returns the size."""
    monkeypatch.setattr(codec, "_GRAPH_CACHE_SIZE", 8)
    monkeypatch.setattr(codec, "_graphs", {})
    return 8
