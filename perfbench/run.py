#!/usr/bin/env python3
"""Campaign benchmark of the QDI DPA reproduction.

Builds perfbench/campaign_bench from the sources of this checkout (Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload and checks the
result line:

    python3 perfbench/run.py --workload des_exact --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans to <build dir>/spans/). The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
The exit code is 0 only when the run finished and every correctness check
passed. Workloads, metrics and the metric-to-workload map are described in
perfbench/metrics.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def run_logged(cmd, log):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    log.write(r.stdout)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        fail(f"command failed ({r.returncode}): {' '.join(cmd)}")


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no qdi sources next to {HERE.name}/ (expected {ROOT}/src); "
             "nothing to build")
    cfg = bdir / "perfbench"
    cfg.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(bdir / "build.lock", "w") as lock, \
            open(bdir / "build.log", "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (cfg / "CMakeCache.txt").is_file():
            run_logged(["cmake", "-S", str(HERE), "-B", str(cfg),
                        "-DCMAKE_BUILD_TYPE=Release"], log)
        run_logged(["cmake", "--build", str(cfg), "-j", jobs,
                    "--target", "campaign_bench"], log)
    exe = cfg / "campaign_bench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def git_head():
    """Commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """Digest of the sources the benchmark builds (the checkout is not
    always a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in (ROOT / "src", HERE):
        files += [p for p in d.rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    documented = json.loads((HERE / "metrics.json").read_text())[key]
    missing = sorted(set(want) - set(documented))
    if missing:
        raise ValueError(f"metrics missing from metrics.json: {missing}")
    return want


def check_result(line, trace):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics {got} != BENCHMARK.json {want}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    head = git_head()
    commit = (f"git:{head[:12]}+" if head else "") + f"src:{source_digest()}"

    work = Path(tempfile.mkdtemp(prefix="run-", dir=bdir))
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work), "--commit", commit]
    if args.trace:
        spans = bdir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = r.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail(f"campaign_bench exited {r.returncode} without a result")
    try:
        res = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"malformed result line: {e}")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0 or not res["correct"] or res["failed"] != 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
