"""Trace validity: the traced study against a sampling profile.

    python3 perfbench/run.py --crosscheck [--seed N]

Runs the ``study`` workload once traced and once under
``repro study --profile-out``, summarises the profile's
``flame.txt`` with ``tools/profile_top.py``'s loader, and bills each
sample to the innermost frame that is a wrapped layer entry point (the
same functions ``spans.py`` wraps).  The run passes when both rank the
same three layers highest by self time.  Exit code 0 on agreement.
"""

from __future__ import annotations

import importlib.util
import os
from collections import Counter
from pathlib import Path

import spans
from workloads import commands

UNATTRIBUTED = "(none)"


def frame_layers():
    """``path/under/repro.py:function`` profile label -> layer name."""
    mapping = {}
    for module, attribute, name, _ in spans.LAYER_SPANS:
        if module.startswith("repro"):
            leaf = attribute.rpartition(".")[2]
            mapping[f"{module.replace('.', '/')}.py:{leaf}"] = name
    mapping["repro/net/index.py:label_at"] = "classify.labels"
    mapping["repro/net/index.py:ensure_labels"] = "classify.labels"
    mapping["repro/net/ingest.py:iter_pcap_chunks"] = "net.pcap_read"
    return mapping


def profile_layers(profile):
    """Samples per layer, each billed to its innermost wrapped frame."""
    mapping = frame_layers()
    render = tuple(f"{module.replace('.', '/')}.py:render_"
                   for module in spans.RENDER_MODULES)
    totals = Counter()
    for stacks in profile.samples.values():
        for stack, count in stacks.items():
            layer = UNATTRIBUTED
            for frame in reversed(stack.split(";")):
                name = mapping.get(frame)
                if name is None and frame.startswith(render):
                    name = "report.render"
                if name is not None:
                    layer = name.split(".")[0]
                    break
            totals[layer] += count
    return totals


def load_profile_top(root):
    path = os.path.join(root, "tools", "profile_top.py")
    spec = importlib.util.spec_from_file_location("profile_top", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(seed, spawn, out):
    root = os.getcwd()
    work = os.path.join(out, "crosscheck")
    os.makedirs(work, exist_ok=True)
    traced = spawn("study", os.path.join(work, "traced"), "child",
                   argv=commands("study", seed, {}, work), traced=True)
    profile_dir = os.path.join(work, "profile")
    argv = commands("study", seed, {}, work)
    argv["cold"] = argv["cold"] + ["--profile-out", profile_dir]
    profiled = spawn("study", os.path.join(work, "profiled"), "child", argv=argv)
    if traced is None or profiled is None:
        print("crosscheck: a study run failed")
        return 1
    by_trace = Counter()
    for name, seconds in traced["self_s"].items():
        by_trace[name.split(".")[0]] += seconds
    profile_top = load_profile_top(root)
    profile = profile_top.load_collapsed(Path(profile_dir))
    print(profile_top.render_top(profile, top=5))
    by_profile = profile_layers(profile)
    total_s = sum(by_trace.values())
    total_samples = sum(by_profile.values())
    print(f"{'layer':10s} {'trace self s':>12s} {'share':>7s} "
          f"{'profile samples':>16s} {'share':>7s}")
    for layer in sorted(set(by_trace) | set(by_profile),
                        key=lambda layer: -by_trace.get(layer, 0.0)):
        print(f"{layer:10s} {by_trace.get(layer, 0.0):12.3f} "
              f"{by_trace.get(layer, 0.0) / total_s:7.1%} "
              f"{by_profile.get(layer, 0):16d} "
              f"{by_profile.get(layer, 0) / total_samples:7.1%}")
    top_trace = [layer for layer, _ in by_trace.most_common(3)]
    top_profile = [layer for layer, _ in by_profile.most_common()
                   if layer != UNATTRIBUTED][:3]
    agree = set(top_trace) == set(top_profile)
    print(f"crosscheck: trace top 3 {top_trace}, profile top 3 {top_profile} "
          f"-> {'agree' if agree else 'DISAGREE'}")
    return 0 if agree else 1
