"""Planted-signal ranking tests: each ranked action puts its one signal first.

Each frame hides one signal among noise columns:

- Correlation: one measure pair at Pearson's r ≈ 0.9;
- Distribution: one lognormal measure among normals;
- Occurrence: one dimension with 85% of its rows in one value;
- Enhance: under a two-measure intent, one colour dimension that shifts
  the y measure by ±2 between its values.

The signal must rank first twice: through ``action.generate`` (the cold
path), and through a watched session's background pass after an edit to
a noise column, where the action ranks the candidates the precompute
engine enumerated and keyed, reusing the scores of the unedited ones.
The Filter action's test waits for its binned-chart deviation fix.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import LuxDataFrame, config
from repro.core.actions import (
    CorrelationAction,
    DistributionAction,
    EnhanceAction,
    OccurrenceAction,
)
from repro.service import SessionManager

ROWS = 400


def normals(rng, names):
    return {name: np.round(rng.normal(0.0, 1.0, ROWS), 6) for name in names}


def correlation_frame():
    rng = np.random.default_rng(7)
    data = normals(rng, [f"q{i}" for i in range(6)])
    data["q3"] = np.round(0.9 * data["q1"] + np.sqrt(1 - 0.81) * rng.normal(0, 1, ROWS), 6)
    data["d0"] = rng.choice(list("abc"), ROWS).tolist()
    return data, [], {"q1", "q3"}, "q5"


def distribution_frame():
    rng = np.random.default_rng(8)
    data = normals(rng, [f"q{i}" for i in range(5)])
    data["q2"] = np.round(rng.lognormal(0.0, 0.8, ROWS), 6)
    return data, [], {"q2"}, "q4"


def occurrence_frame():
    rng = np.random.default_rng(9)
    data = {f"d{i}": rng.choice(list("abcd"), ROWS).tolist() for i in range(5)}
    data["d3"] = rng.choice(list("abcd"), ROWS, p=[0.85, 0.05, 0.05, 0.05]).tolist()
    data["q0"] = np.round(rng.normal(0, 1, ROWS), 6)
    return data, [], {"d3"}, "d0"


def enhance_frame():
    rng = np.random.default_rng(10)
    data = normals(rng, ["q0", "q1", "q2"])
    for i in range(4):
        data[f"d{i}"] = rng.choice(list("abc"), ROWS).tolist()
    shift = {"a": -2.0, "b": 0.0, "c": 2.0}
    data["q1"] = np.round(data["q1"] + np.array([shift[v] for v in data["d2"]]), 6)
    return data, ["q0", "q1"], {"q0", "q1", "d2"}, "d0"


CASES = {
    "Correlation": (CorrelationAction, correlation_frame),
    "Distribution": (DistributionAction, distribution_frame),
    "Occurrence": (OccurrenceAction, occurrence_frame),
    "Enhance": (EnhanceAction, enhance_frame),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_signal_ranks_first(name):
    action, build = CASES[name]
    data, intent, signal, _ = build()
    frame = LuxDataFrame(data)
    if intent:
        frame.intent = intent
    ranked = action().generate(frame)
    assert set(ranked[0].spec.fields()) == signal
    assert ranked[0].score > ranked[1].score


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_signal_ranks_first_after_an_edit_outside_it(name):
    _, build = CASES[name]
    data, intent, signal, edited = build()
    config.precompute_debounce_s = 0.0
    manager = SessionManager()
    try:
        session = manager.create(LuxDataFrame(data), intent=intent or None)
        assert manager.engine.wait_idle(60)
        session.mutate(edited, session.frame[edited].to_list()[::-1])
        assert manager.engine.wait_idle(60)
        records, _ = manager.store.get_pass(session.id, session.version)
        # Ranked by the engine: the edited column's candidates rerun, the
        # rest reuse their scores and their displayed charts.
        assert records[name]["origin"] == "mixed"
        specs = json.loads(bytes(records[name]["payload"]))["specs"]
        assert set(specs[0]["fields"]) == signal
        assert specs[0]["score"] > specs[1]["score"]
    finally:
        manager.shutdown()
