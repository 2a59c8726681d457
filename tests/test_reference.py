import numpy as np
import pytest

from molga.cli import bundled_reference_path
from molga.discriminator import FeatureStats, featurize
from molga.graph import MolecularGraph
from molga.props import fit_norm, penalized_logp
from molga.reference import load_reference, synthetic_reference
from molga.tasks import run_random_baseline

DERIVED = ("features", "feature_stats", "records", "canonicals")


def eager(graphs: list[MolecularGraph]) -> dict:
    """Every field of a reference set, computed up front on fresh copies of
    its graphs, so that no value memoized on the originals is reused."""
    graphs = [MolecularGraph(g.elements, g.bond_list) for g in graphs]
    prop_stats = fit_norm(graphs)
    features = np.stack([featurize(g) for g in graphs])
    return {
        "prop_stats": prop_stats,
        "features": features,
        "feature_stats": FeatureStats.fit(features),
        "records": [penalized_logp(g, prop_stats) for g in graphs],
        "canonicals": [g.canonical() for g in graphs],
    }


@pytest.fixture(params=["bundled", "synthetic"])
def ref(request):
    if request.param == "bundled":
        return load_reference(bundled_reference_path())[0]
    return synthetic_reference(150, seed=4)


class TestDerivedFields:
    def test_nothing_derived_at_load(self, ref):
        assert not set(DERIVED) & set(vars(ref))

    def test_equal_to_eager_computation(self, ref):
        want = eager(ref.graphs)
        # feature statistics first: they must derive the features they fit
        assert np.array_equal(ref.feature_stats.mean, want["feature_stats"].mean)
        assert np.array_equal(ref.feature_stats.std, want["feature_stats"].std)
        assert np.array_equal(ref.features, want["features"])
        assert ref.prop_stats == want["prop_stats"]
        assert ref.records == want["records"]
        assert ref.canonicals == want["canonicals"]

    def test_derived_once(self, ref):
        assert ref.features is ref.features
        assert ref.records is ref.records
        assert {"features", "records"} <= set(vars(ref))


class TestRandomBaselineDerivesNothing:
    def test_no_reference_features_or_canonicals(self):
        ref, _ = load_reference(bundled_reference_path())
        run_random_baseline(ref, 300, seed=0, max_canonical_len=81, max_genotype_len=100)
        assert not set(DERIVED) & set(vars(ref))
        assert not any("features" in g._cache or "canonical" in g._cache
                       for g in ref.graphs)
        # the probe sees a derived field once it is read
        ref.canonicals
        assert "canonicals" in vars(ref)
        assert all("canonical" in g._cache for g in ref.graphs)
