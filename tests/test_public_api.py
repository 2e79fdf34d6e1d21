"""Tests for the top-level package exports."""

from __future__ import annotations


import repro


class TestPublicAPI:
    def test_version_defined(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_main_classes_exported(self):
        for name in ["RHCHME", "RHCHMEConfig", "SRC", "SNMTF", "RMC", "DRCC",
                     "MultiTypeRelationalData", "ObjectType", "Relation"]:
            assert name in repro.__all__

    def test_main_functions_exported(self):
        for name in ["make_dataset", "list_datasets", "clustering_fscore",
                     "normalized_mutual_information"]:
            assert name in repro.__all__

    def test_list_datasets_nonempty(self):
        assert len(repro.list_datasets()) >= 8

    def test_subpackage_exports_resolvable(self):
        import importlib
        for name in ("baselines", "cluster", "core", "data", "experiments",
                     "graph", "linalg", "manifold", "metrics", "relational",
                     "serve", "subspace"):
            module = importlib.import_module(f"repro.{name}")
            for export in getattr(module, "__all__", ()):
                assert hasattr(module, export), f"repro.{name}.{export}"

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.cluster
        import repro.core
        import repro.data
        import repro.experiments
        import repro.graph
        import repro.linalg
        import repro.manifold
        import repro.metrics
        import repro.relational
        import repro.serve
        import repro.subspace
