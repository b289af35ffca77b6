"""Golden test: ``spec_payload`` sanitizes inline data in one pass.

``to_vegalite`` sanitizes every ``data.values`` cell while it builds the
rows, so ``spec_payload`` deep-walks only the rest of the spec.  The wire
bytes must equal those of the full second walk over the whole spec, on the
service benchmark's frame shapes (6 measures x 3 dimensions; 500 rows
under each intent of a steering cycle, and 2k rows without intent) and on
every synthetic load scenario.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import LuxDataFrame, config_overlay
from repro.data.synthetic import SCENARIOS, make_scenario
from repro.vis import Encoding, VisSpec
from repro.vis.vegalite import json_safe, spec_payload, to_vegalite

INTENTS = [["q0"], ["d0"], ["q1", "d1"], ["q2", "q3"], []]


def measure_frame(rows: int) -> LuxDataFrame:
    rng = np.random.default_rng(0)
    columns: dict = {f"q{i}": rng.normal(0.0, 1.0, rows) for i in range(6)}
    for name, card in {"d0": 6, "d1": 12, "d2": 24}.items():
        columns[name] = [f"v{i % card}" for i in range(rows)]
    return LuxDataFrame(columns)


def double_walk(spec: VisSpec, score: float | None) -> dict:
    """The payload with the whole vega-lite spec deep-sanitized again."""
    payload = spec_payload(spec, score)
    payload["vegalite"] = json_safe(to_vegalite(spec))
    return payload


def assert_single_walk_identical(frame: LuxDataFrame) -> int:
    checked = 0
    with config_overlay(streaming=False):
        for _, vislist in frame.recommendations.items():
            for vis in vislist:
                if vis.spec is None:
                    continue
                got = json.dumps(spec_payload(vis.spec, vis.score))
                assert got == json.dumps(double_walk(vis.spec, vis.score)), vis.spec.title
                checked += 1
    return checked


@pytest.mark.parametrize("intent", INTENTS, ids=lambda i: "+".join(i) or "none")
def test_steering_cycle_shape(intent):
    frame = measure_frame(500)
    if intent:
        frame.intent = intent
    assert assert_single_walk_identical(frame) > 0


def test_incremental_shape():
    assert assert_single_walk_identical(measure_frame(2_000)) > 0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_load_scenarios(scenario):
    assert assert_single_walk_identical(make_scenario(scenario, n_rows=300)) > 0


def test_numpy_cells_become_plain_json():
    spec = VisSpec(
        "bar",
        [Encoding("x", "flag", "nominal"), Encoding("y", "", "quantitative", aggregate="count")],
    )
    spec.data = [
        {"flag": np.bool_(True), "count": np.int64(3)},
        {"flag": np.bool_(False), "count": np.float64("nan")},
    ]
    values = spec_payload(spec)["vegalite"]["data"]["values"]
    assert json.dumps(values) == '[{"flag": true, "count": 3}, {"flag": false, "count": null}]'
