"""Tests of the top-level public API surface."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_all_symbols_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_core_types_exported():
    for name in (
        "ConditionalProcessGraph",
        "CPGBuilder",
        "Condition",
        "Conjunction",
        "Architecture",
        "Mapping",
        "PathListScheduler",
        "ScheduleMerger",
        "ScheduleTable",
        "RuntimeSimulator",
        "load_fig1_example",
    ):
        assert name in repro.__all__


def test_subpackages_importable():
    import repro.analysis
    import repro.atm
    import repro.baselines
    import repro.generator

    assert hasattr(repro.generator, "generate_system")
    assert hasattr(repro.atm, "evaluate_table2")
    assert hasattr(repro.baselines, "ideal_per_path_delay")
    assert hasattr(repro.analysis, "format_schedule_table")


def test_docstring_mentions_the_paper():
    assert "Conditional Process Graphs" in (repro.__doc__ or "")


def test_quickstart_snippet_from_module_docstring_runs():
    example = repro.load_fig1_example()
    result = repro.ScheduleMerger(example.graph, example.expanded_mapping).merge()
    assert result.delta_m > 0 and result.delta_max >= result.delta_m - 1e-9


def test_package_imports_only_the_standard_library():
    """Importing every module of the package loads no third-party module."""
    script = textwrap.dedent(
        """
        import json, pkgutil, sys
        before = set(sys.modules)
        import repro
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            __import__(module.name)
        loaded = {name.split(".")[0] for name in set(sys.modules) - before}
        print(json.dumps(sorted(loaded)))
        """
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "repro" in loaded
    foreign = [
        name
        for name in loaded
        if name != "repro"
        and name not in sys.stdlib_module_names
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert foreign == []


def test_package_keys_no_memo_by_object_identity():
    """No ``id()`` call in the package: every memo is keyed by its value.

    An ``id()`` key is valid only while the object it names is alive and
    the same (a memo keyed on ``id()`` once served one expansion's bus
    slices to another), so no memo may use one.
    """
    root = Path(repro.__file__).resolve().parent
    calls = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    ]
    assert calls == []


def test_each_setting_has_one_owner():
    """Settings no program sets are module constants, not parameters."""
    import dataclasses
    import inspect

    import repro.exploration as exploration
    from repro.graph import expand_communications
    from repro.graph.communication import expansion_structure

    fields = dataclasses.fields(exploration.ExplorationConfig)
    assert [field.name for field in fields] == [
        "seed", "max_cycles", "neighbors_per_cycle", "stall_cycles", "weights",
        "track_front", "checkpoint_every", "population_size",
    ]
    removed = {
        "mode", "priority_choices", "bias_steps", "attempts_per_neighbor",
        "name_format", "startup_timeout", "retry", "fault_injector",
    }
    for owner in (
        exploration.EvaluationPool,
        exploration.NeighborhoodSampler,
        exploration.NeighborhoodSampler.sample,
        expand_communications,
        expansion_structure,
    ):
        assert not removed & set(inspect.signature(owner).parameters), owner
    assert not hasattr(exploration, "default_worker_count")
    # The pool's retry, quarantine and fault-injection layer is gone.
    for name in (
        "FaultInjector", "InjectedFault", "RetryPolicy", "ResilienceStats",
        "quarantined_evaluation",
    ):
        assert not hasattr(exploration, name), name
