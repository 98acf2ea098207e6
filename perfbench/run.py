#!/usr/bin/env python3
"""Round benchmark for cppflare: one command, four workloads, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload bert_noop_tcp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # every workload for 2 rounds + checks
    python3 perfbench/run.py --self-test    # the benchmark's own unit checks

It builds the repository's libraries and perfbench/round_bench.cpp from
source into .bench_build/ (the root CMake project with perfbench/inject.cmake
appended), runs the workload in a child process of its own, prints a
readable report with provenance, writes the full result to
.bench_build/results/, and prints the result object as the last line.
README.md in this directory documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORKLOADS = ["bert_noop_tcp", "lstm_train", "bertmini_masked_journal", "sites64_control"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark targets; returns the
    directory holding the binaries."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("run from the repository root: CMakeLists.txt and src/ are missing here")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append([
                "cmake", "-S", ROOT, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release",
                "-DCMAKE_PROJECT_cppflare_INCLUDE=" + os.path.join(HERE, "inject.cmake"),
            ])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", "round_bench",
                      "perfbench_selftest", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: " + log_path + ")")
    return CMAKE_DIR


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the files the benchmark builds from, so results from a
    checkout that is not a git repository still name their source."""
    h = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", os.path.relpath(HERE, ROOT)]
    files = []
    for r in roots:
        p = os.path.join(ROOT, r)
        if os.path.isfile(p):
            files.append(r)
        for dirpath, _, names in os.walk(p):
            files += [os.path.relpath(os.path.join(dirpath, n), ROOT) for n in names]
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def cpu_info():
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = set(value.split())
                if model != "unknown" and flags:
                    break
    except OSError:
        pass
    return model, {f: f in flags for f in ("sha_ni", "avx2", "avx512f")}


def provenance(seed, load_at_start):
    # Only a repository rooted here names this checkout's commit.
    top = git("rev-parse", "--show-toplevel")
    commit = git("rev-parse", "HEAD") if top and os.path.samefile(top, ROOT) else None
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    model, flags = cpu_info()
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": (status != "") if status is not None else None,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": model,
        "cpu_flags": flags,
        "loadavg_at_start": list(load_at_start),
        "seed": seed,
    }


def run_workload(bindir, workload, seed, seconds, trace, smoke=False):
    workdir = os.path.join(BUILD, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(bindir, "round_bench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", "--workdir", workdir]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload}: round_bench exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{workload}: round_bench printed nothing")
    return json.loads(lines[-1])


def contract_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def report(res, prov):
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  "
          f"rounds/job={res['rounds_per_job']}  payload={res['payload_floats']} floats")
    for key, title in (("end_to_end", "end-to-end (untraced jobs)"),
                       ("per_layer", "per-layer (traced jobs)"),
                       ("extra", "also reported")):
        if not res[key]:
            continue
        print(f"-- {title}")
        for name, m in res[key].items():
            how = f"  [{m['how']}]" if m.get("how") else ""
            print(f"   {name:28s} {m['value']:>14.6g} {m['unit']:<12s} n={m['n']}{how}")
    print("-- runs (wall vs process CPU)")
    for j in res["jobs"]:
        print(f"   {j['kind']:9s} setup={j['setup_s']:.4f}s wall={j['wall_s']:.4f}s "
              f"cpu={j['process_cpu_s']:.4f}s rounds={j['rounds']} sha256={j['model_sha256'][:16]}")
    print("-- provenance")
    for k, v in {**prov, **res["build"]}.items():
        print(f"   {k}: {v}")
    for e in res["errors"]:
        print(f"   CHECK FAILED: {e}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload for 2 rounds, traced and untraced, with checks")
    p.add_argument("--self-test", action="store_true", help="run the benchmark's unit checks")
    a = p.parse_args()
    if not (a.workload or a.smoke or a.self_test):
        p.error("one of --workload, --smoke, --self-test is required")
    load_at_start = os.getloadavg()
    bindir = build()

    if a.self_test:
        sys.exit(subprocess.run([os.path.join(bindir, "perfbench_selftest")]).returncode)
    if a.smoke:
        ok = True
        for w in WORKLOADS:
            res = run_workload(bindir, w, a.seed, 0, True, smoke=True)
            print(f"{w:26s} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} total_s={res['total_s']:.2f} {res['errors']}")
            ok = ok and res["correct"] and res["failed"] == 0
        sys.exit(0 if ok else 1)

    res = run_workload(bindir, a.workload, a.seed, a.seconds, a.trace == 1)
    prov = provenance(a.seed, load_at_start)
    report(res, prov)
    kind = "per_layer" if a.trace else "end_to_end"
    metrics = {}
    for name in contract_names(kind):
        if name not in res[kind]:
            fail(f"{a.workload}: metric {name} missing from the run's output")
        metrics[name] = {"value": res[kind][name]["value"], "unit": res[kind][name]["unit"]}
    correct = bool(res["correct"]) and all(
        isinstance(m["value"], (int, float)) for m in metrics.values())
    if kind == "end_to_end":
        correct = correct and all(m["value"] > 0 for m in metrics.values())
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{a.workload}-seed{a.seed}-trace{a.trace}-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump({"result": res, "provenance": prov}, f, indent=1)
    print(f"-- full result: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
