"""Hierarchical fit traces: solver spans and their artifact persistence."""

from __future__ import annotations

from repro.core import RHCHME
from repro.obs import Span
from repro.serve import RHCHMEModel


def _fit(dataset, *, diagnostics: bool, max_iter: int = 4):
    model = RHCHME(max_iter=max_iter, random_state=0,
                   use_subspace_member=False, track_metrics_every=0,
                   diagnostics=diagnostics)
    result = model.fit(dataset)
    return model, result


class TestFitSpanTree:
    def test_plain_fit_builds_no_span_tree(self, obs_dataset):
        _, result = _fit(obs_dataset, diagnostics=False)
        assert result.trace.span_tree is None
        assert "diagnostics" not in result.extras

    def test_diagnostics_fit_builds_one_finished_tree(self, obs_dataset):
        _, result = _fit(obs_dataset, diagnostics=True)
        root = result.trace.span_tree
        assert isinstance(root, Span)
        assert root.name == "fit"
        assert root.end is not None and root.status == "ok"
        assert root.attributes["n_iterations"] == result.n_iterations
        assert root.attributes["converged"] == result.converged

    def test_tree_nests_setup_then_iterations(self, obs_dataset):
        _, result = _fit(obs_dataset, diagnostics=True)
        names = [child.name for child in result.trace.span_tree.children]
        assert names[0] == "setup"
        assert set(names[1:]) == {"iteration"}
        assert len(names) - 1 == result.n_iterations

    def test_iterations_nest_the_update_families(self, obs_dataset):
        _, result = _fit(obs_dataset, diagnostics=True)
        iterations = [child for child in result.trace.span_tree.children
                      if child.name == "iteration"]
        first, later = iterations[0], iterations[1:]
        first_families = {child.name for child in first.children}
        # Iteration 1 consumes the S computed during setup; s_update
        # appears from iteration 2 on.
        assert {"g_update", "e_update", "objective"} <= first_families
        assert "s_update" not in first_families
        for iteration in later:
            assert {"s_update", "g_update", "e_update", "objective"} <= {
                child.name for child in iteration.children}

    def test_fit_records_kernel_spans(self, obs_dataset):
        _, result = _fit(obs_dataset, diagnostics=True)
        kernels = [span for span in result.trace.span_tree.iter_spans()
                   if span.name in ("one_type", "one_pair")]
        assert kernels, "diagnostics fit recorded no kernel spans"
        assert all(span.end is not None for span in kernels)
        assert all("item" in span.attributes for span in kernels)
        # Kernel spans hang under an update-family span, never the root.
        family_ids = {span.span_id
                      for span in result.trace.span_tree.iter_spans()
                      if span.name in ("s_update", "g_update", "e_update",
                                       "objective")}
        assert all(span.parent_id in family_ids for span in kernels)

    def test_span_timings_agree_with_flat_buckets(self, obs_dataset):
        _, result = _fit(obs_dataset, diagnostics=True)
        buckets = result.trace.timings
        for family in ("g_update", "e_update", "objective"):
            spans = [span
                     for span in result.trace.span_tree.iter_spans()
                     if span.name == family]
            span_total = sum(span.duration for span in spans)
            # Same measurements, taken one stack frame apart.
            assert abs(span_total - buckets[family]) <= \
                0.10 * max(buckets[family], 1e-3)


class TestSidecarPersistence:
    def test_trace_rides_the_diagnostics_sidecar(self, obs_dataset,
                                                 tmp_path):
        model, result = _fit(obs_dataset, diagnostics=True)
        artifact = model.export_model(obs_dataset)
        document = artifact.diagnostics["fit"]["trace"]
        assert document == result.trace.span_tree.to_dict()
        assert document["name"] == "fit"
        assert document["start_offset_seconds"] == 0.0
        path = artifact.save(tmp_path / "model.npz")
        loaded = RHCHMEModel.load(path)
        assert loaded.diagnostics["fit"]["trace"] == document

    def test_plain_fit_sidecar_has_no_trace(self, obs_artifact):
        document = obs_artifact.diagnostics or {}
        assert "fit" not in document
