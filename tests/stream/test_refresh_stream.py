"""Tests for log-driven refresh and its serving/telemetry integration.

Covers :func:`repro.stream.refresh_from_log` (dirty sets derived from log
deltas, including edge-only appends), the :class:`RuntimeServer` delta
path (``refresh(..., dirty="auto")``, mmap-layout preservation,
``stats()["refresh"]`` telemetry) and the ``repro_refresh_*`` Prometheus
gauges.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.net.metrics import _Exposition, _refresh_section
from repro.runtime import RuntimeServer
from repro.serve import MMAP_LAYOUT
from repro.stream import DirtySet, ObjectLog, refresh_from_log

_GAUGES = (
    "repro_refresh_last_seconds",
    "repro_refresh_last_iterations",
    "repro_refresh_types_touched",
    "repro_refresh_agreement_proxy",
    "repro_refresh_new_objects",
    "repro_refresh_delta_scheduled",
)


@pytest.fixture()
def log(stream_base, tmp_path):
    return ObjectLog.create(tmp_path / "log", stream_base)


class TestRefreshFromLog:
    def test_grown_log_refreshes_with_derived_dirty_set(self, stream_model,
                                                        star_factory, log):
        fitted_at = log.version
        grown = star_factory({"docs": 72})
        log.append_objects("docs", grown.get_type("docs").features[60:])
        outcome = refresh_from_log(stream_model, log, since=fitted_at,
                                   max_iter=6)
        assert outcome.delta_scheduled
        assert outcome.types_touched == ["docs"]
        assert outcome.grown["docs"] == 12
        assert outcome.model.membership["docs"].shape == (72, 3)

    def test_edge_only_append_dirties_both_endpoints(self, stream_model,
                                                     log):
        fitted_at = log.version
        log.append_edges("docs", "words", [3], [7], [2.0])
        outcome = refresh_from_log(stream_model, log, since=fitted_at,
                                   max_iter=6)
        # no type grew, but the touched relation dirties both endpoints
        assert outcome.grown == {name: 0 for name in stream_model.type_names}
        assert outcome.types_touched == ["docs", "words"]

    def test_without_since_auto_tracks_growth_only(self, stream_model,
                                                   star_factory, log):
        grown = star_factory({"venues": 24})
        log.append_objects("venues", count=4)
        log.append_edges("docs", "words", [0], [0], [1.0])
        outcome = refresh_from_log(stream_model, log, max_iter=6)
        # growth-derived auto schedule cannot see the edge-only append
        assert outcome.types_touched == ["venues"]
        assert grown.get_type("venues").n_objects == 24

    def test_explicit_dirty_set_passes_through(self, stream_model, log):
        log.append_edges("docs", "authors", [0], [0], [1.0])
        outcome = refresh_from_log(
            stream_model, log,
            dirty=DirtySet(types=frozenset({"docs", "authors"})),
            max_iter=6)
        assert outcome.types_touched == ["authors", "docs"]

    def test_rejects_non_log(self, stream_model, stream_base):
        with pytest.raises(ValidationError, match="ObjectLog"):
            refresh_from_log(stream_model, stream_base)

    def test_rejects_bad_dirty(self, stream_model, log):
        with pytest.raises(ValidationError, match="DirtySet"):
            refresh_from_log(stream_model, log, dirty=5)


class TestServerDeltaRefresh:
    @pytest.fixture()
    def model_path(self, stream_model, tmp_path):
        return stream_model.save(tmp_path / "model.npz", shards=MMAP_LAYOUT)

    def test_auto_dirty_refresh_records_telemetry(self, model_path,
                                                  stream_grown):
        server = RuntimeServer(workers="serial")
        try:
            outcome = server.refresh(model_path, stream_grown, dirty="auto",
                                     max_iter=5)
            assert outcome.delta_scheduled
            assert outcome.types_touched == ["docs", "venues"]
            refresh = server.stats.as_dict()["refresh"]
        finally:
            server.close()
        assert refresh["last"]["delta"] is True
        assert refresh["last"]["types_touched"] == ["docs", "venues"]
        assert refresh["last"]["n_new_objects"] == 16
        (telemetry,) = refresh["models"].values()
        assert telemetry == refresh["last"]

    def test_mmap_layout_survives_refresh(self, model_path, stream_grown):
        import json

        from repro.serve.artifact import RHCHMEModel

        server = RuntimeServer(workers="serial")
        try:
            server.refresh(model_path, stream_grown, dirty="auto", max_iter=5)
        finally:
            server.close()
        sidecar = json.loads(model_path.with_suffix(".json").read_text())
        assert sidecar["shards"]["layout"] == MMAP_LAYOUT
        refreshed = RHCHMEModel.load(model_path)
        assert refreshed.membership["docs"].shape == (72, 3)

    def test_refresh_without_delta_flag_stays_full(self, model_path,
                                                   stream_grown):
        server = RuntimeServer(workers="serial")
        try:
            outcome = server.refresh(model_path, stream_grown, max_iter=5)
            refresh = server.stats.as_dict()["refresh"]
        finally:
            server.close()
        assert not outcome.delta_scheduled
        assert refresh["last"]["delta"] is False


class TestRefreshMetrics:
    def test_gauges_rendered_with_model_label(self):
        refresh = {"models": {"/tmp/model.npz": {
            "delta": True, "types_touched": ["docs"], "n_types_touched": 1,
            "iterations": 5, "converged": True, "seconds": 0.25,
            "agreement_proxy": 0.97, "n_new_objects": 12,
            "grown": {"docs": 12}}}}
        out = _Exposition()
        _refresh_section(out, refresh,
                         {"/tmp/model.npz": "papers-v2"})
        text = out.render()
        for gauge in _GAUGES:
            assert gauge in text, gauge
        assert 'repro_refresh_delta_scheduled{model="papers-v2"} 1' in text
        assert 'repro_refresh_new_objects{model="papers-v2"} 12' in text
        assert 'repro_refresh_agreement_proxy{model="papers-v2"} 0.97' \
            in text

    def test_none_agreement_is_omitted_not_zero(self):
        refresh = {"models": {"m": {
            "delta": False, "n_types_touched": 2, "iterations": 3,
            "seconds": 0.1, "agreement_proxy": None, "n_new_objects": 0}}}
        out = _Exposition()
        _refresh_section(out, refresh, {})
        text = out.render()
        assert "repro_refresh_agreement_proxy" not in text
        assert 'repro_refresh_delta_scheduled{model="m"} 0' in text

    def test_empty_section_renders_nothing(self):
        out = _Exposition()
        _refresh_section(out, {"models": {}, "last": None}, {})
        _refresh_section(out, None, {})
        assert out.render() == "\n"

    def test_server_telemetry_round_trips_into_gauges(self, stream_model,
                                                      stream_grown,
                                                      tmp_path):
        path = stream_model.save(tmp_path / "model.npz", shards=MMAP_LAYOUT)
        server = RuntimeServer(workers="serial")
        try:
            server.refresh(path, stream_grown, dirty="auto", max_iter=5)
            refresh = server.stats.as_dict()["refresh"]
        finally:
            server.close()
        out = _Exposition()
        _refresh_section(out, refresh, {})
        text = out.render()
        for gauge in _GAUGES:
            assert gauge in text, gauge
