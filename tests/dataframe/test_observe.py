"""Mutation observers: registration, delta payloads, weakref lifecycle.

Every mutating op must emit a :class:`~repro.dataframe.observe.Delta`
naming exactly the columns it touched; intent-only changes must never
mark data dirty.  The incremental precompute engine and the delta-aware
computation cache both trust these payloads, so the assertions here pin
the exact ``columns_changed`` set per op.
"""

from __future__ import annotations

import gc

import pytest

from repro import LuxDataFrame
from repro.dataframe import DataFrame, observe
from repro.dataframe.observe import Delta


def record_events(frame):
    events: list[tuple[str, Delta]] = []
    observe.register(frame, lambda f, op, delta: events.append((op, delta)))
    return events


class TestObserve:
    def test_plain_frame_emits_on_mutation(self):
        frame = DataFrame({"a": [1, 2, 3]})
        events = record_events(frame)
        frame["b"] = [4, 5, 6]
        del frame["b"]
        assert [op for op, _ in events] == ["setitem", "delitem"]

    def test_unsubscribe_stops_events(self):
        frame = DataFrame({"a": [1, 2, 3]})
        events = []
        unsubscribe = observe.register(
            frame, lambda f, op, delta: events.append(op)
        )
        frame["b"] = [4, 5, 6]
        unsubscribe()
        frame["c"] = [7, 8, 9]
        assert events == ["setitem"]
        assert observe.observer_count(frame) == 0

    def test_lux_frame_emits_mutation_and_intent(self):
        frame = LuxDataFrame({"a": [1.0, 2.0, 3.0], "b": ["x", "y", "z"]})
        events = record_events(frame)
        frame["c"] = frame["a"]
        frame.intent = ["a"]
        frame.clear_intent()
        assert [op for op, _ in events] == ["setitem", "intent", "intent"]

    def test_intent_epoch_tracks_recommendation_state(self):
        frame = LuxDataFrame({"a": [1.0, 2.0, 3.0]})
        v0 = (frame._data_version, frame._intent_epoch)
        frame.intent = ["a"]
        v1 = (frame._data_version, frame._intent_epoch)
        assert v1 != v0 and v1[0] == v0[0]  # intent bumps epoch, not data
        frame["b"] = frame["a"]
        v2 = (frame._data_version, frame._intent_epoch)
        assert v2[0] == v1[0] + 1

    def test_broken_observer_contained(self):
        frame = DataFrame({"a": [1, 2, 3]})

        def broken(f, op, delta):
            raise RuntimeError("observer bug")

        observe.register(frame, broken)
        with pytest.warns(RuntimeWarning, match="observer failed"):
            frame["b"] = [4, 5, 6]  # must not raise

    def test_dead_frame_drops_entry(self):
        frame = DataFrame({"a": [1, 2, 3]})
        observe.register(frame, lambda f, op, delta: None)
        assert observe.observer_count(frame) == 1
        del frame
        gc.collect()
        # No lingering keys: the registry is keyed by id + weakref and the
        # callback fired on collection.
        assert all(ref() is not None for ref, _ in observe._OBSERVERS.values())


class TestDeltaPayloads:
    """Exact ``columns_changed`` per mutating op, on both frame classes."""

    @pytest.fixture(params=[DataFrame, LuxDataFrame])
    def frame(self, request):
        return request.param(
            {
                "a": [1.0, 2.0, None],
                "b": [4.0, None, 6.0],
                "c": ["x", "y", "z"],
            }
        )

    def test_setitem_update_existing_column(self, frame):
        events = record_events(frame)
        frame["a"] = [9.0, 8.0, 7.0]
        (op, delta), = events
        assert op == "setitem"
        assert delta.columns_changed == {"a"}
        assert not delta.schema_changed and not delta.rows_changed
        assert not delta.intent_changed

    def test_setitem_new_column_is_schema_change(self, frame):
        events = record_events(frame)
        frame["d"] = [0.0, 0.0, 0.0]
        (_, delta), = events
        assert delta.columns_changed == {"d"}
        assert delta.schema_changed and not delta.rows_changed

    def test_setattr_assignment_routes_through_setitem(self, frame):
        events = record_events(frame)
        frame.a = [5.0, 5.0, 5.0]
        (op, delta), = events
        assert op == "setitem" and delta.columns_changed == {"a"}

    def test_append_column_to_empty_frame_changes_rows(self):
        frame = DataFrame({})
        events = record_events(frame)
        frame["a"] = [1, 2, 3]
        (_, delta), = events
        assert delta.columns_changed == {"a"}
        assert delta.rows_changed  # the index was (re)built

    def test_delitem(self, frame):
        events = record_events(frame)
        del frame["b"]
        (op, delta), = events
        assert op == "delitem"
        assert delta.columns_changed == {"b"} and delta.schema_changed

    def test_drop_inplace(self, frame):
        events = record_events(frame)
        frame.drop(["a", "c"], inplace=True)
        (op, delta), = events
        assert op == "drop"
        assert delta.columns_changed == {"a", "c"} and delta.schema_changed

    def test_rename_inplace_names_both_old_and_new(self, frame):
        events = record_events(frame)
        frame.rename({"a": "alpha"}, inplace=True)
        (op, delta), = events
        assert op == "rename"
        assert delta.columns_changed == {"a", "alpha"}
        assert delta.schema_changed and not delta.rows_changed

    def test_dropna_inplace_is_row_level(self, frame):
        events = record_events(frame)
        frame.dropna(inplace=True)
        (op, delta), = events
        assert op == "dropna"
        assert delta.rows_changed
        assert delta.columns_changed == {"a", "b", "c"}
        assert delta.full  # row changes invalidate column-level reasoning

    def test_fillna_inplace_names_only_filled_columns(self, frame):
        events = record_events(frame)
        frame.fillna(0.0, inplace=True)
        (op, delta), = events
        assert op == "fillna"
        # Only the columns that actually held nulls (and accepted the
        # fill value) changed: the string column rejects the float fill.
        assert delta.columns_changed == {"a", "b"}
        assert not delta.rows_changed

    def test_intent_only_never_marks_data_dirty(self):
        frame = LuxDataFrame({"a": [1.0, 2.0, 3.0], "c": ["x", "y", "z"]})
        v0 = frame._data_version
        events = record_events(frame)
        frame.intent = ["a"]
        frame.clear_intent()
        assert [op for op, _ in events] == ["intent", "intent"]
        for _, delta in events:
            assert delta.intent_only and delta.intent_changed
            assert delta.columns_changed == frozenset()
            assert not delta.rows_changed and not delta.schema_changed
        assert frame._data_version == v0  # data never went dirty

    def test_set_data_type_names_overridden_columns(self):
        frame = LuxDataFrame({"a": [1.0, 2.0, 3.0], "c": ["x", "y", "z"]})
        v0 = frame._data_version
        events = record_events(frame)
        frame.set_data_type({"a": "nominal"})
        (op, delta), = events
        assert op == "intent"
        assert delta.columns_changed == {"a"}
        assert delta.schema_changed and delta.intent_changed
        assert not delta.rows_changed and not delta.intent_only
        assert frame._data_version == v0


class TestDelta:
    def test_union_coalesces(self):
        a = Delta.data(["x"])
        b = Delta.data(["y"], schema_changed=True)
        u = a.union(b)
        assert u.columns_changed == {"x", "y"} and u.schema_changed

    def test_union_with_unknown_stays_unknown(self):
        assert Delta.data(["x"]).union(Delta.unknown()).columns_changed is None

    def test_default_emit_delta_is_unknown(self):
        frame = DataFrame({"a": [1]})
        seen = []
        observe.register(frame, lambda f, op, delta: seen.append(delta))
        observe.emit(frame, "custom")
        assert seen[0].columns_changed is None and seen[0].full
