"""Per-column metadata versioning, and child frames without cache links.

The frame-level halves of the incremental floor work: a column-scoped
mutation rescans only the named columns (everything else keeps its
``AttributeMeta`` object *and* its per-column version stamp), and intent
changes never touch metadata at all.  A filtered, sliced or sampled
child shares no computation-cache slot with its parent: only the ranking
sample cut by ``get_sample`` is linked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LuxDataFrame, config
from repro.core.executor.cache import computation_cache
from repro.core.optimizer.sampling import get_sample
from repro.service.session import encode_recommendations


@pytest.fixture(autouse=True)
def _fresh_cache():
    computation_cache.clear()
    yield
    computation_cache.clear()


def make_frame(n: int = 300, seed: int = 7) -> LuxDataFrame:
    rng = np.random.default_rng(seed)
    return LuxDataFrame(
        {
            "q0": np.round(rng.normal(0, 1, n), 6),
            "q1": np.round(rng.lognormal(1, 0.4, n), 6),
            "d0": rng.choice(["a", "b", "c"], n).tolist(),
        }
    )


class TestPerColumnVersions:
    def test_cold_compute_stamps_every_column_with_frame_version(self):
        frame = make_frame()
        meta = frame.metadata
        assert meta.column_versions == {"q0": 0, "q1": 0, "d0": 0}

    def test_single_column_mutation_advances_only_that_version(self):
        frame = make_frame()
        before = frame.metadata
        untouched = {n: before.attributes[n] for n in ("q1", "d0")}

        frame["q0"] = [-v for v in frame["q0"].to_list()]
        after = frame.metadata

        assert after.column_versions["q0"] == frame._data_version == 1
        assert after.column_versions["q1"] == 0
        assert after.column_versions["d0"] == 0
        # Untouched columns keep the SAME AttributeMeta objects — proof
        # they were carried, not recomputed to equal values.
        for name, attr in untouched.items():
            assert after.attributes[name] is attr
        # The rescanned column reflects the new data.
        assert after["q0"].min == pytest.approx(-before["q0"].max)
        assert after["q0"].max == pytest.approx(-before["q0"].min)

    def test_unread_mutations_accumulate_into_one_delta(self):
        frame = make_frame()
        before = frame.metadata
        d0_attr = before.attributes["d0"]

        # Two mutations land before anyone reads metadata: the pending
        # delta must be their union, so the eventual refresh rescans both
        # mutated columns and still carries the third.
        frame["q0"] = [v + 1.0 for v in frame["q0"].to_list()]
        frame["q1"] = [v + 1.0 for v in frame["q1"].to_list()]
        after = frame.metadata

        assert after.column_versions["q0"] == frame._data_version == 2
        assert after.column_versions["q1"] == 2
        assert after.column_versions["d0"] == 0
        assert after.attributes["d0"] is d0_attr

    def test_intent_change_leaves_metadata_untouched(self):
        frame = make_frame()
        meta = frame.metadata
        versions = dict(meta.column_versions)

        frame.intent = ["q0"]

        # Intent bumps the recommendation epoch only: same metadata cache
        # object, same stamps, no pending delta, data version unmoved.
        assert frame._metadata_cache is meta
        assert frame._metadata_version == frame._data_version
        assert frame._metadata_delta is None
        assert meta.column_versions == versions
        assert frame._data_version == 0 and frame._intent_epoch == 1

    def test_schema_change_keeps_untouched_stamps(self):
        frame = make_frame()
        before = frame.metadata
        untouched = dict(before.attributes)

        frame["d1"] = (["u", "v"] * 150)[: len(frame)]  # add
        after = frame.metadata
        assert after.column_versions == {"q0": 0, "q1": 0, "d0": 0, "d1": 1}
        assert all(after.attributes[n] is a for n, a in untouched.items())

        frame.rename({"q1": "q9"}, inplace=True)
        frame.drop("d0", inplace=True)
        after = frame.metadata
        assert list(after.attributes) == frame.columns == ["q0", "q9", "d1"]
        assert after.column_versions == {"q0": 0, "q9": 3, "d1": 1}
        assert after.attributes["q0"] is untouched["q0"]
        # The renamed column was rescanned under its new name.
        assert after["q9"].name == "q9"
        assert after["q9"].max == before["q1"].max


CHILDREN = {
    "mask": lambda f: f[np.asarray(f["q0"].to_list()) > 0],
    "head": lambda f: f.head(50),
    "iloc_slice": lambda f: f.iloc[10:200],
    "iloc_indices": lambda f: f.iloc[np.arange(0, len(f), 3)],
    "sample": lambda f: f.sample(n=100, random_state=1),
}


class TestChildCacheLinks:
    @pytest.mark.parametrize("derive", list(CHILDREN.values()), ids=list(CHILDREN))
    def test_child_registers_no_link(self, derive):
        parent = make_frame()
        computation_cache.to_float(parent, "q1")
        child = derive(parent)
        assert computation_cache.stats()["links"] == 0
        assert computation_cache._parent_view(child) is None
        np.testing.assert_array_equal(
            computation_cache.to_float(child, "q1"), child.column("q1").to_float()
        )

    def test_ranking_sample_still_links(self):
        config.sampling_start = 100
        config.sampling_cap = 80
        parent = make_frame()
        sample = get_sample(parent)
        assert computation_cache.stats()["links"] == 1
        linked_parent, indices = computation_cache._parent_view(sample)
        assert linked_parent is parent and len(indices) == 80

    def test_filtered_child_bytes_do_not_depend_on_the_cache(self):
        parent = make_frame()
        parent.recommendations  # warms the parent's slot
        child = CHILDREN["mask"](parent)
        warm = encode_recommendations(child.recommendations)
        assert warm
        computation_cache.clear()
        child.expire_recommendations()
        assert encode_recommendations(child.recommendations) == warm
