#!/usr/bin/env python3
"""Repository benchmark for the firefly D2D simulator.

Builds perfbench/ (and the simulator sources it links) from source, runs one
workload with the measuring program, checks every unit's RunMetrics digest,
writes the run's artifacts and prints the result as the last stdout line:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-scaled, stadium, churn-soak, fig3-sweep (see README.md).

A seed listed in golden.json for the workload is checked against the
committed digests; any other seed is a held-out seed whose digests are
printed (and still checked for determinism: every rerun of one input, traced
or not, must reproduce the same digest).

    python3 perfbench/run.py --record-golden --workload NAME --seed N

runs one pass of the workload and stores its digests in golden.json.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
WORKLOADS = ("paper-scaled", "stadium", "churn-soak", "fig3-sweep")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    res = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def source_digest():
    """sha256 over every file of src/ (path and bytes), so a run without git
    history still names the exact sources it measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "core" / "engine.hpp").is_file():
        fail("simulator sources (src/) not found next to perfbench/", 2)
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release", f"-DPERFBENCH_GIT_SHA={git_sha()}"]
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (configure, ["cmake", "--build", str(out), "-j", jobs]):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def run_program(binary, workload, seed, seconds, trace, out_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_dir)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measuring program exceeded {RUN_TIMEOUT_S} s")
    if res.returncode != 0:
        fail(f"measuring program exited with {res.returncode}")
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail("measuring program printed no report")
    return json.loads(lines[-1])


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def evaluate(report, golden):
    """Count the units whose digest is wrong.

    `golden` maps unit key -> digest for a default seed ({} or None for a
    held-out seed).  A unit fails when it differs from its golden digest, or
    from the first run of the same input in this report (determinism;
    traced and untraced runs of one input must agree).  Returns
    (failed, problems)."""
    golden = golden or {}
    failed = 0
    problems = []
    first = {}
    for unit in report["units"]:
        key, digest = unit["key"], unit["digest"]
        first.setdefault(key, digest)
        if key in golden and golden[key] != digest:
            failed += 1
            problems.append(f"{key}: digest {digest} != golden {golden[key]}")
        elif digest != first[key]:
            failed += 1
            problems.append(f"{key}: digest {digest} != first run {first[key]}")
    for name, ok in sorted(report["checks"].items()):
        if not ok:
            problems.append(f"check {name} failed")
    return failed, problems


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="run one pass and store its digests in golden.json")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative", 2)

    binary = build()
    if args.record_golden:
        out_dir = build_dir() / "out" / f"{args.workload}-seed{args.seed}-golden"
        out_dir.mkdir(parents=True, exist_ok=True)
        report = run_program(binary, args.workload, args.seed, 0, 0, out_dir)
        golden = load_golden()
        digests = {u["key"]: u["digest"] for u in report["units"]}
        golden.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(digests.items()))
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(digests)} digests for {args.workload} seed {args.seed}")
        return

    out_dir = build_dir() / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_program(binary, args.workload, args.seed, args.seconds, args.trace, out_dir)
    golden = load_golden().get(args.workload, {}).get(str(args.seed))
    failed, problems = evaluate(report, golden)

    metrics = {}
    for spec in declared_metrics(args.trace):
        m = report["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"] or not math.isfinite(m["value"]):
            problems.append(f"metric {spec['name']} missing or malformed")
            continue
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
        if not args.trace and m["value"] <= 0:
            problems.append(f"metric {spec['name']} is not positive")

    report["provenance"] = {**report["build"], "source_digest": source_digest(),
                            "nproc": report["nproc"], "pool_workers": report["pool_workers"]}
    report["golden"] = "checked" if golden is not None else "held-out seed"
    report["failed"] = failed
    report["problems"] = problems
    name = "layers.json" if args.trace else "report.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n")

    p = report["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"git={p['git_sha']} src={p['source_digest']} {p['compiler']} {p['build_type']} "
          f"nproc={p['nproc']} workers={p['pool_workers']} digests={report['golden']}")
    for key, m in sorted(report["metrics"].items()):
        print(f"  {key:24s} {m['value']:14.6g} {m['unit']:6s} (n={m['samples']})")
    if golden is None:
        for key, digest in sorted({u["key"]: u["digest"] for u in report["units"]}.items()):
            print(f"  digest {key} {digest}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(f"  artifacts in {out_dir.relative_to(ROOT) if out_dir.is_relative_to(ROOT) else out_dir}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": len(report["units"]),
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
