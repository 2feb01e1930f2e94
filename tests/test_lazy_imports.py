"""``repro`` and ``repro.core`` load their re-exports on first access.

A fresh interpreter that imports what ``repro fleet`` imports before it
runs (the list perfbench's fleet workload times as set-up) must not load
numpy, networkx or the simulator; a fresh ``repro ingest`` or ``repro
classify --crossval`` must not load the study or fleet stacks, networkx
or the simulator, and a fresh ``repro monitor`` neither networkx nor the
simulator; every re-exported name must still resolve to the object its
module defines.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core

ROOT = Path(repro.__file__).resolve().parents[2]
HEAVY = ("numpy", "networkx", "repro.simnet")


def _fleet_setup_imports():
    """``perfbench/workloads.py``'s set-up import list for ``fleet``."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "IMPORTS"
                        for target in node.targets)):
            return ast.literal_eval(node.value)["fleet"]
    raise AssertionError("perfbench/workloads.py defines no IMPORTS")


def _modules_after(script: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def _cli_modules(argv, directory):
    """The modules a fresh interpreter holds after ``repro <argv>`` exits 0."""
    return _modules_after(
        "import contextlib, io, json, os, sys\n"
        "from repro.cli import main\n"
        f"os.chdir({str(directory)!r})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n")


def test_fleet_setup_skips_numpy_networkx_and_the_simulator():
    imports = _fleet_setup_imports()
    assert "repro.cli" in imports and "repro.fleet" in imports
    loaded = _modules_after(
        "import importlib, json, sys\n"
        f"for name in {imports!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert set(imports) <= loaded
    assert [name for name in HEAVY if name in loaded] == []


#: Packages a fresh ``repro ingest`` or ``repro classify`` never loads.
STUDY_AND_FLEET = ("repro.fleet", "repro.core.pipeline", "repro.apps",
                   "repro.honeypot", "repro.faults", "repro.inspector")
#: Packages no fresh capture command loads: networkx and the simulator.
NETWORKX_AND_SIMULATOR = ("networkx", "repro.simnet", "repro.devices", "repro.scan")


def _loaded_under(loaded, packages):
    return [name for name in sorted(loaded)
            if name in packages or name.startswith(tuple(f"{package}." for package in packages))]


@pytest.fixture(scope="module")
def capture_files(tmp_path_factory, lab_records):
    """A lab pcap with its device map, and a header-only pcap."""
    from repro.devices.behaviors import build_testbed
    from repro.net.pcap import PcapWriter, write_pcap

    root = tmp_path_factory.mktemp("captures")
    write_pcap(root / "lab.pcap", lab_records)
    PcapWriter(root / "empty.pcap").close()
    (root / "devices.json").write_text(json.dumps(
        {str(node.mac): node.name for node in build_testbed(seed=7).devices}))
    return root


@pytest.mark.parametrize("argv", [
    ["ingest", "lab.pcap", "--device-map", "devices.json"],
    ["ingest", "empty.pcap"],
    ["classify", "lab.pcap", "--crossval"],
], ids=["ingest-lab", "ingest-empty", "classify-crossval"])
def test_capture_commands_skip_the_study_and_fleet_stacks(argv, capture_files):
    loaded = _cli_modules(argv, capture_files)
    assert "repro.core.analyses" in loaded
    assert _loaded_under(loaded, STUDY_AND_FLEET + NETWORKX_AND_SIMULATOR) == []


def test_monitor_skips_networkx_and_the_simulator(capture_files):
    loaded = _cli_modules(["monitor", "lab.pcap"], capture_files)
    assert "repro.monitor.state" in loaded
    assert _loaded_under(loaded, NETWORKX_AND_SIMULATOR) == []


def test_a_study_import_still_loads_the_analyses():
    loaded = _modules_after("import json, sys\nfrom repro import StudyPipeline\n"
                            "print(json.dumps(sorted(sys.modules)))\n")
    assert {"repro.core.pipeline", "repro.simnet"} <= loaded


@pytest.mark.parametrize("package", [repro, repro.core])
def test_every_reexport_resolves_to_its_definition(package):
    assert len(package.__all__) == len(set(package.__all__))
    for name in package.__all__:
        value = getattr(package, name)
        if name == "__version__":
            continue
        target = package._EXPORTS[name]
        module, _, attribute = target.partition(":")
        if package is repro.core:
            module = f"repro.core.{module}"
        assert value is getattr(importlib.import_module(module), attribute or name)
        assert name in dir(package)


def test_from_import_and_unknown_names():
    from repro import StudyPipeline, generate_inspector_dataset, run_fleet
    from repro.core import fingerprint_households, StudyReport
    from repro.core.pipeline import StudyPipeline as defined
    from repro.inspector.generate import generate_dataset

    assert StudyPipeline is defined and StudyReport.__module__ == "repro.core.pipeline"
    assert generate_inspector_dataset is generate_dataset
    assert callable(run_fleet) and callable(fingerprint_households)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        repro.nope
    with pytest.raises(ImportError):
        exec("from repro.core import nope", {})
