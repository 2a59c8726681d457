import math
import random

import pytest

from molga.codec import decode, random_genotype
from molga.graph import MolecularGraph, parse_smiles
from molga.props import (
    EmptyReference,
    NormStats,
    fit_norm,
    logp_raw,
    penalized_logp,
    qed,
    ring_penalty_raw,
    sa_raw,
    _desirability,
)

from test_graph import permuted

IDENTITY = NormStats(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)


def mol(text):
    return parse_smiles(text)


class TestLogp:
    def test_methane(self):
        assert logp_raw(MolecularGraph(["C"], [])) == pytest.approx(0.20)

    def test_sulfur_chain(self):
        assert logp_raw(mol("SSSSSSSS")) == pytest.approx(4.80)

    def test_kekule_benzene(self):
        # ring of size 6 with double bonds: conjugated-carbon contribution
        assert logp_raw(mol("C1=CC=CC=C1")) == pytest.approx(1.80)

    def test_saturated_ring_carbons_plain(self):
        assert logp_raw(mol("C1CCCCC1")) == pytest.approx(1.20)

    def test_large_conjugated_ring_not_aromatic_like(self):
        # ring larger than 6 gets no conjugation bonus
        assert logp_raw(mol("C1=CCCCCCC1")) == pytest.approx(8 * 0.20)

    def test_hetero_contributions(self):
        assert logp_raw(mol("N")) == pytest.approx(-0.60)
        assert logp_raw(mol("O")) == pytest.approx(-0.40)
        assert logp_raw(mol("S")) == pytest.approx(0.60)
        assert logp_raw(mol("P")) == pytest.approx(-0.50)
        assert logp_raw(mol("FC")) == pytest.approx(0.40)


class TestSa:
    def test_methane(self):
        assert sa_raw(MolecularGraph(["C"], [])) == pytest.approx(0.05)

    def test_cyclopentane(self):
        assert sa_raw(mol("C1CCCC1")) == pytest.approx(0.65)

    def test_neopentane_branch_point(self):
        assert sa_raw(mol("CC(C)(C)C")) == pytest.approx(0.55)

    def test_distinct_elements(self):
        assert sa_raw(mol("CO")) == pytest.approx(0.10 + 0.80)


class TestRingPenalty:
    def test_cyclohexane(self):
        assert ring_penalty_raw(mol("C1CCCCC1")) == 0.0

    def test_cyclooctane(self):
        assert ring_penalty_raw(mol("C1CCCCCCC1")) == 2.0

    def test_acyclic(self):
        assert ring_penalty_raw(mol("CCCC")) == 0.0


class TestQed:
    def test_all_optima_is_one(self):
        # no integral atom count satisfies every optimum simultaneously
        # (0.25 * 23 heavy atoms is not an integer), so the aggregation is
        # checked at the optimum directly
        assert _desirability(23, 23, 8) == 1.0
        product = (_desirability(23, 23, 8) * _desirability(2.5, 2.5, 2.0)
                   * _desirability(2, 2, 1.5) * _desirability(0.25, 0.25, 0.15))
        assert product ** 0.25 == 1.0

    def test_methane_frozen_value(self):
        # computed independently from the four-desirability definition
        assert qed(MolecularGraph(["C"], [])) == pytest.approx(0.186361033852, abs=1e-9)

    def test_ethanol_frozen_value(self):
        assert qed(mol("CCO")) == pytest.approx(0.290147759821, abs=1e-9)

    def test_range(self):
        rng = random.Random(0)
        for _ in range(300):
            g = decode(random_genotype(rng, 50))
            assert 0.0 < qed(g) <= 1.0

    def test_permutation_invariant(self):
        rng = random.Random(1)
        for _ in range(50):
            g = decode(random_genotype(rng, 40))
            assert qed(permuted(g, rng)) == pytest.approx(qed(g), abs=1e-12)


class TestInvariance:
    def test_all_raw_properties(self):
        rng = random.Random(2)
        for _ in range(200):
            g = decode(random_genotype(rng, 50))
            p = permuted(g, rng)
            assert logp_raw(p) == pytest.approx(logp_raw(g), abs=1e-12)
            assert sa_raw(p) == pytest.approx(sa_raw(g), abs=1e-12)
            assert ring_penalty_raw(p) == pytest.approx(ring_penalty_raw(g), abs=1e-12)


class TestNormalization:
    def test_identity_stats_methane(self):
        rec = penalized_logp(MolecularGraph(["C"], []), IDENTITY)
        assert rec.j == pytest.approx(0.20 - 0.05 - 0.0)

    def test_sigma_floor_on_degenerate_reference(self):
        stats = fit_norm([MolecularGraph(["C"], [])] * 10)
        assert stats.logp_std == pytest.approx(1e-6)
        rec = penalized_logp(MolecularGraph(["C"], []), stats)
        assert math.isfinite(rec.j)

    def test_reference_mean_j_is_zero(self):
        rng = random.Random(3)
        graphs = [decode(random_genotype(rng, 30)) for _ in range(200)]
        stats = fit_norm(graphs)
        mean_j = sum(penalized_logp(g, stats).j for g in graphs) / len(graphs)
        assert abs(mean_j) < 1e-9

    def test_empty_reference(self):
        with pytest.raises(EmptyReference):
            fit_norm([])

    def test_record_identity(self):
        rng = random.Random(4)
        graphs = [decode(random_genotype(rng, 30)) for _ in range(50)]
        stats = fit_norm(graphs)
        for g in graphs[:10]:
            rec = penalized_logp(g, stats)
            assert rec.j == pytest.approx(rec.logp_z - rec.sa_z - rec.ring_z)

    def test_monotone_in_logp(self):
        # same size/branching/rings, different element mix: only logp moves
        stats = IDENTITY
        j_c = penalized_logp(mol("CCC"), stats)
        j_n = penalized_logp(mol("NNN"), stats)
        assert j_c.sa_raw == j_n.sa_raw and j_c.ring_raw == j_n.ring_raw
        assert j_c.logp_raw > j_n.logp_raw
        assert j_c.j > j_n.j

    def test_monotone_in_sa(self):
        # branch point adds sa while logp and rings stay fixed
        stats = IDENTITY
        chain = penalized_logp(mol("CCCCC"), stats)
        branched = penalized_logp(mol("CC(C)CC"), stats)
        assert chain.logp_raw == branched.logp_raw
        assert branched.sa_raw > chain.sa_raw
        assert branched.j < chain.j

    def test_monotone_in_ring_penalty(self):
        stats = IDENTITY
        seven = penalized_logp(mol("C1CCCCCC1"), stats)
        eight = penalized_logp(mol("C1CCCCCCC1"), stats)
        # one extra CH2 raises logp slightly but the ring term dominates here
        assert eight.ring_raw > seven.ring_raw
        delta_ring = eight.ring_z - seven.ring_z
        assert delta_ring == pytest.approx(1.0)


class TestDesignRuleOrdering:
    def test_sulfur_chain_beats_conjugated_and_bridged(self):
        # at the canonical length cap, the pure sulfur chain scores highest
        from molga.reference import load_reference
        from molga.cli import bundled_reference_path

        ref, _ = load_reference(bundled_reference_path())
        cap = 81

        s_chain = mol("S" * cap)
        c_chain = mol("C" + "=CC" * 26)  # alternating double bonds, 79 chars
        bridged = mol("C1=CC=CC=C1S" * 6 + "CCCCC")  # benzene rings with S bridges
        assert len(s_chain.canonical()) <= cap
        assert len(c_chain.canonical()) <= cap
        assert len(bridged.canonical()) <= cap

        js = {name: penalized_logp(g, ref.prop_stats).j
              for name, g in [("s", s_chain), ("c", c_chain), ("bridge", bridged)]}
        assert js["s"] > js["c"]
        assert js["s"] > js["bridge"]
