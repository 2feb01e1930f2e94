"""Seeded inputs for the capture-driven workloads.

``ingest`` reads a clean lab capture plus the lab's device map;
``monitor_chaos`` reads a capture recorded under ``chaos_plan.json``,
which multiplies every link-fault probability of
``examples/fault_plans/chaos.json`` by six so that about a tenth of the
frames are quarantined.  Both come from the simulated lab built from
the workload seed, and are generated before any timed run, in a
process of their own with a fixed hash seed: ``run.py`` runs
``python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR``, which writes the
inputs and, last, ``OUT_DIR/inputs.json`` naming them, so a complete
set can be reused by later runs of the same seed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CHAOS_PLAN = os.path.join(HERE, "chaos_plan.json")


def lab_capture(seed: int, duration: float, out_dir: str,
                fault_plan: Optional[str] = None) -> Dict[str, object]:
    """Simulate the lab for ``duration`` s; write ``lab.pcap`` and the map."""
    from repro.core.responses import category_of_profile
    from repro.devices.behaviors import build_testbed
    from repro.faults import FaultInjector, FaultPlan

    started = time.perf_counter()
    testbed = build_testbed(seed=seed)
    if fault_plan is not None:
        FaultInjector(FaultPlan.load(fault_plan), seed=seed).install(testbed.lan)
    testbed.run(duration)
    os.makedirs(out_dir, exist_ok=True)
    pcap = os.path.join(out_dir, "lab.pcap")
    packets = testbed.lan.capture.write_pcap(pcap)
    device_map = os.path.join(out_dir, "devices.json")
    with open(device_map, "w", encoding="utf-8") as handle:
        json.dump({str(node.mac): {"name": node.name, "vendor": node.vendor,
                                   "category": category_of_profile(node.profile)}
                   for node in testbed.devices}, handle, indent=1, sort_keys=True)
    return {"pcap": pcap, "device_map": device_map, "packets": packets,
            "gen_s": time.perf_counter() - started}


def generate(workload: str, seed: int, out_dir: str) -> Dict[str, object]:
    """The inputs ``workload`` reads; study and fleet take only the seed."""
    from workloads import INGEST_DURATION, MONITOR_DURATION

    if workload == "ingest":
        return lab_capture(seed, INGEST_DURATION, out_dir)
    if workload == "monitor_chaos":
        return lab_capture(seed, MONITOR_DURATION, out_dir, fault_plan=CHAOS_PLAN)
    return {"gen_s": 0.0}


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    out = sys.argv[3]
    generated = generate(sys.argv[1], int(sys.argv[2]), out)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "inputs.json"), "w", encoding="utf-8") as handle:
        json.dump(generated, handle)
