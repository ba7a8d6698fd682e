"""Tests of the package surface: exports, errors, versioning, docstrings."""

import importlib
import importlib.util
import inspect
import types

import pytest

import repro
from repro import errors
from tests.integration.test_dependencies import run_fresh

SUBPACKAGES = [
    "repro.dfg",
    "repro.schedule",
    "repro.core",
    "repro.core.flat",
    "repro.baselines",
    "repro.bounds",
    "repro.suite",
    "repro.sim",
    "repro.report",
    "repro.binding",
    "repro.obs",
    "repro.qa",
    "repro.serve",
    "repro.explore",
]


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert not isinstance(getattr(repro, name), types.ModuleType), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            value = getattr(mod, name)
            assert not isinstance(value, types.ModuleType), f"{module}.{name}"
        assert set(mod.__all__) <= set(dir(mod))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.core.nope

    def test_an_export_wins_over_its_submodule_in_any_import_order(self):
        """Importing a submodule binds it on its package; where the package
        exports a name equal to the submodule's, a fresh interpreter that
        imports every such submodule first still gets the export."""
        colliding = sorted(
            (package, name)
            for package in ["repro"] + SUBPACKAGES
            for name in importlib.import_module(package).__all__
            if importlib.util.find_spec(f"{package}.{name}") is not None
        )
        assert colliding == [
            ("repro.baselines", "retime_then_schedule"),
            ("repro.dfg", "iteration_bound"),
            ("repro.dfg", "unfold"),
            ("repro.dfg", "validate"),
            ("repro.report", "gantt"),
            ("repro.suite", "allpole"),
            ("repro.suite", "biquad"),
            ("repro.suite", "diffeq"),
            ("repro.suite", "elliptic"),
            ("repro.suite", "lattice"),
        ]
        script = "\n".join(
            [f"import {package}.{name}" for package, name in colliding]
            + [f"from {package} import {name}; assert {name}.__module__ == "
               f"'{package}.{name}', {name}" for package, name in colliding]
        )
        run_fresh(script)

    def test_a_submodule_name_reads_as_the_submodule_unless_exported(self):
        """``from package import submodule`` still imports the submodule:
        nothing else a package binds may take a submodule's name."""
        run_fresh(
            "import importlib, pkgutil, sys\n"
            f"for package in {['repro'] + SUBPACKAGES!r}:\n"
            "    pkg = importlib.import_module(package)\n"
            "    for info in pkgutil.iter_modules(pkg.__path__):\n"
            "        value = getattr(__import__(package, fromlist=[info.name]), info.name)\n"
            "        wanted = sys.modules[package + '.' + info.name]\n"
            "        assert value is wanted or info.name in pkg.__all__, (package, info.name)\n"
        )

    def test_tutorial_quickstart_names_exist(self):
        # the names README/tutorial lean on
        for name in (
            "DFG", "DFGBuilder", "ResourceModel", "rotation_schedule",
            "verify_pipeline", "select_schedule", "unfold", "diffeq",
            "elliptic", "iteration_bound", "critical_path_length",
        ):
            assert hasattr(repro, name), name


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name, obj in vars(errors).items():
            if inspect.isclass(obj) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_zero_delay_cycle_carries_witness(self):
        exc = errors.ZeroDelayCycleError(["a", "b"])
        assert exc.cycle == ["a", "b"]
        assert "a -> b" in str(exc)

    def test_catching_the_base_class_works(self):
        from repro import DFG

        g = DFG()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 0)
        from repro.dfg import topological_order

        with pytest.raises(errors.ReproError):
            topological_order(g)


class TestDocstrings:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.dfg.graph", "repro.dfg.retiming", "repro.dfg.analysis",
            "repro.dfg.iteration_bound", "repro.dfg.unfold",
            "repro.schedule.resources", "repro.schedule.list_scheduler",
            "repro.schedule.verify", "repro.schedule.chaining",
            "repro.schedule.conditional", "repro.core.rotation",
            "repro.core.phases", "repro.core.wrapping", "repro.core.depth",
            "repro.core.nested", "repro.core.scheduler",
            "repro.baselines.modulo", "repro.baselines.exact",
            "repro.binding.lifetimes", "repro.binding.datapath",
            "repro.sim.executor", "repro.report.svg",
        ],
    )
    def test_every_module_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 60, module

    def test_public_classes_documented(self):
        from repro import (
            DFG, DFGBuilder, Retiming, ResourceModel, Schedule,
            RotationScheduler, WrappedSchedule,
        )

        for cls in (DFG, DFGBuilder, Retiming, ResourceModel, Schedule,
                    RotationScheduler, WrappedSchedule):
            assert cls.__doc__, cls.__name__
            public = [
                m for name, m in inspect.getmembers(cls, inspect.isfunction)
                if not name.startswith("_")
            ]
            undocumented = [m.__name__ for m in public if not m.__doc__]
            # tolerate tiny helpers but not a wholesale lack of docs
            assert len(undocumented) <= max(1, len(public) // 4), (
                cls.__name__, undocumented,
            )
