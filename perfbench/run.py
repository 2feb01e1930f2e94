"""End-to-end benchmark of the four commands users run.

    python3 perfbench/run.py --workload {study,ingest,monitor_chaos,fleet}
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --crosscheck [--seed N]

Run from the repository root.  Inputs are generated from ``--seed``
before anything is timed.  Each iteration is a fresh interpreter
(``child.py``) that imports the subcommand's modules (set-up time) and
calls ``repro.cli.main(argv)`` once cold and then warm, one or more
times.  Iterations repeat until ``--seconds`` have passed; metrics are
medians over the calls.  Every time is taken on the host clock of
``hostclock.py``: reference-host seconds, steal time left out, so that
runs on a shared machine agree.  Every output is checked
against ``reference.json`` (at the reference seed) or against the other
iterations (any other seed); a failed check fails all the operations
of that call.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced iteration and prints the per-layer metrics
(see ``spans.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostclock
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
#: TMPDIR of every process started: the fleet runner keeps worker claim
#: files in the temp directory, and a killed run must not leave them
#: outside the checkout.
TMP = os.path.join(OUT, "tmp")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("study", "ingest", "monitor_chaos", "fleet")
#: Set-up samples per run; the median is reported.
SETUP_SAMPLES = 5
#: monitor_chaos keeps iterating until this many chunks were timed, so
#: its per-call percentiles come from at least five calls.
MIN_CHUNKS = 1000
#: Seconds after start past which no new iteration begins.
HARD_LIMIT_S = 150.0
STARTED = time.monotonic()


def child_env():
    """The environment of every process the benchmark starts."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = TMP
    return env


def run_process(argv, stderr=None):
    """Run ``argv`` in a session of its own; returns its exit code.

    On a timeout, or when this process is being stopped (SIGTERM arrives
    as SystemExit, see main), the whole session is killed, so fleet
    workers stop too.  A timeout returns None.
    """
    remaining = max(5.0, HARD_LIMIT_S + 20.0 - (time.monotonic() - STARTED))
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def generate(workload, seed):
    """The seeded inputs, built once per seed in a process of their own."""
    out_dir = os.path.join(OUT, "inputs", f"{workload}-seed{seed}")
    meta = os.path.join(out_dir, "inputs.json")
    if not os.path.exists(meta):
        code = run_process([sys.executable, os.path.join(HERE, "inputs.py"),
                            workload, str(seed), os.path.relpath(out_dir, ROOT)])
        if code != 0:
            raise RuntimeError(f"generating {workload} inputs for seed {seed} "
                               f"failed (exit {code})")
    with open(meta, "r", encoding="utf-8") as handle:
        return json.load(handle)


def spawn(workload, run_dir, tag, argv=None, traced=False, setup_only=False):
    """Run one ``child.py`` iteration; returns its result dict or None."""
    os.makedirs(run_dir, exist_ok=True)
    spec = {
        "workload": workload,
        "src": SRC,
        "imports": workloads.IMPORTS[workload],
        "argv": argv,
        "traced": traced,
        "setup_only": setup_only,
        "result": os.path.join(run_dir, f"{tag}.result.json"),
        "trace_out": os.path.join(run_dir, f"{tag}.trace.json"),
    }
    spec_path = os.path.join(run_dir, f"{tag}.spec.json")
    spec["probe_s"] = hostclock.settled_probe()
    spec["stolen"] = hostclock.stolen()
    spec["spawned"] = time.monotonic()
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    with open(os.path.join(run_dir, f"{tag}.stderr"), "w") as stderr:
        code = run_process([sys.executable, os.path.join(HERE, "child.py"),
                            spec_path], stderr=stderr)
    if code != 0 or not os.path.exists(spec["result"]):
        return None
    with open(spec["result"], "r", encoding="utf-8") as handle:
        result = json.load(handle)
    result["trace_file"] = spec["trace_out"]
    return result


def percentile(values, percent):
    """The ``percent``-th percentile, interpolated between the two
    nearest samples (numpy's default), of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def scored_calls(result):
    """``(call, scored)`` for the cold call and every warm call."""
    return [(call, scored) for call in ("cold", "warm")
            for scored in result["calls"][call]]


def evaluate(workload, seed, results, reference):
    """Check every call's digests; returns (problems, attempted, failed, digests).

    At the reference seed each digest must equal the stored one; at any
    other seed the iterations must agree with each other.  A warm call
    must reproduce its cold call's artifacts (fleet: its merged report).
    """
    problems, attempted, failed = [], 0, 0
    pinned = reference.get(workload, {})
    expected = dict(pinned) if pinned.get("seed") == seed else {}
    for index, result in enumerate(results):
        if result is None:
            problems.append(f"iteration {index}: the process failed")
            attempted += 1
            failed += 1
            continue
        cold = result["calls"]["cold"][0]
        for call, scored in scored_calls(result):
            attempted += scored["ops"]
            wrong = list(scored["problems"])
            digests = {call: scored["digest"]}
            digests.update({f"{call}.{key}": value
                            for key, value in scored["extra"].items()})
            for key, digest in digests.items():
                want = expected.setdefault(key, digest)
                if digest != want:
                    wrong.append(f"{key} digest {digest[:12]} != {want[:12]}")
            if call == "warm" and workload == "fleet":
                if scored["extra"]["report"] != cold["extra"]["report"]:
                    wrong.append("resumed report differs from cold report")
            elif call == "warm" and scored["digest"] != cold["digest"]:
                wrong.append("warm output differs from cold output")
            if wrong:
                problems.extend(f"iteration {index} {line}" for line in wrong)
                failed += max(scored["ops"], 1) - scored["failed"]
            failed += scored["failed"]
    return problems, attempted, failed, expected


def timed_calls(workload, results):
    """The calls the run-time metrics are medians over: every call, as
    warm calls repeat the cold one, except for fleet, whose warm calls
    resume from the cache and are timed only in the traced run."""
    kinds = ("cold",) if workload == "fleet" else ("cold", "warm")
    return [scored for result in results if result is not None
            for kind in kinds for scored in result["calls"][kind]]


def end_to_end(workload, results, setups):
    ok = [result for result in results if result is not None]
    timed = timed_calls(workload, ok)
    # Percentiles are taken per call and their median reported: a call's
    # slowest operations are the same ones every time (a collection, the
    # first chunk), and pooling calls would make the p99 whichever of
    # those few samples the host slowed most.
    per_call = [scored["latencies_ms"] for result in ok
                for _, scored in scored_calls(result) if scored["latencies_ms"]]
    latencies = [sample for samples in per_call for sample in samples]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(c["wall_s"] for c in timed), "s"),
        "cpu_s": (statistics.median(c["cpu_s"] for c in timed), "s"),
        "rss_peak_mb": (statistics.median(r["rss_peak_mb"] for r in ok), "MB"),
        "packets_per_s": (statistics.median(c["packets"] / c["wall_s"]
                                            for c in timed), "1/s"),
        "households_per_s": (statistics.median(c["households"] / c["wall_s"]
                                               for c in timed), "1/s"),
        "chunk_p50_ms": (statistics.median(percentile(samples, 50)
                                           for samples in per_call), "ms"),
        "chunk_p99_ms": (statistics.median(percentile(samples, 99)
                                           for samples in per_call), "ms"),
    }, len(latencies), len(timed)


def measure(workload, seed, seconds, run_dir, argv):
    """Iterate for ``seconds``; returns (results, set-up samples)."""
    results, setups = [], []
    deadline = time.monotonic() + seconds
    while True:
        result = spawn(workload, os.path.join(run_dir, f"i{len(results)}"),
                       "child", argv=argv(len(results)))
        results.append(result)
        if result is not None:
            setups.append(result["setup_s"])
        chunks = sum(len(scored["latencies_ms"]) for r in results if r
                     for _, scored in scored_calls(r))
        enough = workload != "monitor_chaos" or chunks >= MIN_CHUNKS
        if time.monotonic() - STARTED > HARD_LIMIT_S or result is None:
            break
        if time.monotonic() >= deadline and enough:
            break
    while len(setups) < SETUP_SAMPLES \
            and time.monotonic() - STARTED < HARD_LIMIT_S:
        setup = spawn(workload, os.path.join(run_dir, "setup"), f"s{len(setups)}",
                      setup_only=True)
        if setup is None:
            break
        setups.append(setup["setup_s"])
    return results, setups


def traced_layers(workload, run_dir, argv, gen_s):
    """One untraced and one traced iteration; returns (results, layers)."""
    plain = spawn(workload, os.path.join(run_dir, "plain"), "child", argv=argv(0))
    traced = spawn(workload, os.path.join(run_dir, "traced"), "child",
                   argv=argv(1), traced=True)
    if traced is None or plain is None:
        return [plain, traced], None

    def wall(result):
        return sum(scored["wall_s"] for _, scored in scored_calls(result))

    layers = {name: tuple(value) for name, value in traced["layers"].items()}
    # study has no warm call: a re-run repeats the cold work (README).
    warm = plain["calls"]["warm"] or plain["calls"]["cold"]
    layers["warm_wall_s"] = (statistics.median(w["wall_s"] for w in warm), "s")
    layers["trace.overhead"] = (wall(traced) / wall(plain) - 1.0, "ratio")
    layers["inputs.gen_s"] = (gen_s, "s")
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    shutil.copyfile(traced["trace_file"], os.path.join(
        OUT, "traces", f"{workload}.json"))
    top = sorted(traced["self_s"].items(), key=lambda item: -item[1])
    print(f"{workload}: top self time (traced): " + ", ".join(
        f"{name} {seconds:.3f}s" for name, seconds in top[:8]))
    return [plain, traced], layers


def load_reference():
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run(workload, seed, seconds, trace, reference):
    """Generate inputs, measure, check; returns the final JSON object."""
    seed = workloads.input_seed(workload, seed)
    run_dir = os.path.join(OUT, "work", workload)
    for path in (run_dir, TMP):
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(TMP)
    try:
        generated = generate(workload, seed)
        print(f"{workload}: inputs for seed {seed} took {generated['gen_s']:.2f} s "
              "to generate (untimed)")

        def argv(index):
            out = os.path.relpath(os.path.join(run_dir, f"out{index}"), ROOT)
            os.makedirs(out, exist_ok=True)
            return workloads.commands(workload, seed, generated, out)

        if trace:
            results, layers = traced_layers(workload, run_dir, argv,
                                            generated["gen_s"])
        else:
            results, setups = measure(workload, seed, seconds, run_dir, argv)
        problems, attempted, failed, digests = evaluate(
            workload, seed, results, reference)
    finally:
        for path in (run_dir, TMP):
            shutil.rmtree(path, ignore_errors=True)
    record(workload, seed, digests, results)
    for problem in problems:
        print(f"{workload}: CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    metrics = {}
    if trace and layers is not None:
        layers["error_rate"] = (failed / attempted if attempted else 1.0, "ratio")
        metrics = layers
    elif not trace and any(results) and setups:
        metrics, samples, calls = end_to_end(workload, results, setups)
        print(f"{workload}: {sum(r is not None for r in results)} iteration(s), "
              f"{calls} timed calls, {samples} latency samples, {len(setups)} "
              f"set-up samples; error_rate "
              f"{failed / attempted if attempted else 1.0:.4f}")
        timed = timed_calls(workload, results)
        print(f"{workload}: before host-speed scaling: median wall "
              f"{statistics.median(c['raw_wall_s'] for c in timed):.4f} s (steal "
              f"{statistics.median(c['stolen_s'] for c in timed):.4f} s), cpu "
              f"{statistics.median(c['raw_cpu_s'] for c in timed):.4f} s")
    else:
        correct = False
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:14.6f} {unit}")
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def record(workload, seed, digests, results):
    """Keep this seed's digests, so two commits can be compared, and the
    raw per-iteration results."""
    for kind, payload in (("digests", {"workload": workload, "seed": seed,
                                       **digests}),
                          ("runs", results)):
        os.makedirs(os.path.join(OUT, kind), exist_ok=True)
        path = os.path.join(OUT, kind, f"{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"{workload}: digests and raw results for seed {seed} recorded in "
          f"{os.path.relpath(OUT, ROOT)}/{{digests,runs}}/")


def self_test(reference):
    """A perturbed reference digest must fail the run's check."""
    workload = "monitor_chaos"
    seed = reference[workload]["seed"]
    honest = run(workload, seed, 0, 0, reference)
    perturbed = json.loads(json.dumps(reference))
    digest = perturbed[workload]["cold"]
    perturbed[workload]["cold"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    broken = run(workload, seed, 0, 0, perturbed)
    passed = (honest["correct"] and honest["failed"] == 0
              and not broken["correct"] and broken["failed"] > 0)
    print(f"self-test: honest correct={honest['correct']} failed={honest['failed']}; "
          f"perturbed correct={broken['correct']} failed={broken['failed']}/"
          f"{broken['attempted']} -> {'ok' if passed else 'FAILED'}")
    return 0 if passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a perturbed reference fails the run")
    parser.add_argument("--crosscheck", action="store_true",
                        help="compare the traced study's top layers with a "
                             "sampling profile")
    options = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"run.py: no repro sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    reference = load_reference()
    os.makedirs(TMP, exist_ok=True)
    if options.self_test:
        return self_test(reference)
    if options.crosscheck:
        import crosscheck

        return crosscheck.main(workloads.input_seed("study", options.seed),
                               spawn, OUT)
    if options.workload is None:
        parser.error("--workload is required")
    result = run(options.workload, options.seed, options.seconds,
                 options.trace, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
