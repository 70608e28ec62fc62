#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Builds the measuring program (as run.py does) and checks, on the churn-soak
workload at its first golden seed:
  * every per-layer count repeats exactly across two traced runs;
  * proto.sink_s <= radio-flush total <= run() time;
  * churn-soak really takes the fault path (crashes and fault drops > 0);
  * the committed digests match, and a perturbed digest is reported as a
    mismatch.
Exits 0 when every check passes, 1 otherwise.
"""
import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOAD = "churn-soak"


def main():
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))

    binary = run.build()
    golden_all = run.load_golden().get(WORKLOAD, {})
    seed = min(golden_all, key=int) if golden_all else "1"
    out_dir = run.build_dir() / "out" / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [run.run_program(binary, WORKLOAD, seed, 1, 1, out_dir) for _ in range(2)]

    a, b = (r["metrics"] for r in reports)
    counts = sorted(k for k, m in a.items() if m["unit"] == "count")
    differing = [k for k in counts if a[k]["value"] != b[k]["value"]]
    check("counts repeat exactly across two runs", bool(counts) and not differing,
          ", ".join(differing))
    check("counts repeat within a run (traced vs untraced)",
          all(r["checks"]["counts_repeat"] for r in reports))

    sink = a["proto.sink_s"]["value"]
    flush = sink + a["mac.self_s"]["value"]
    total = a["sim.run_s"]["value"]
    check("proto.sink_s <= flush total <= run()", 0 < sink <= flush <= total,
          f"{sink} / {flush} / {total}")
    check("in-run sink/flush/run check", all(r["checks"]["sink_le_flush_le_run"] for r in reports))

    check("churn-soak takes the fault path",
          a["fault.crashes"]["value"] > 0 and a["mac.fault_drops"]["value"] > 0,
          f"crashes={a['fault.crashes']['value']} drops={a['mac.fault_drops']['value']}")

    golden = golden_all.get(seed)
    failed, problems = run.evaluate(reports[0], golden)
    check("committed digests match", golden is not None and failed == 0 and not problems,
          "; ".join(problems) or "no golden digests for this seed")
    if golden:
        perturbed = copy.deepcopy(golden)
        key = sorted(perturbed)[0]
        perturbed[key] = format(int(perturbed[key], 16) ^ 1, "016x")
        failed, problems = run.evaluate(reports[0], perturbed)
        check("perturbed digest is reported as a mismatch", failed >= 1 and bool(problems))
    doctored = copy.deepcopy(reports[0])
    doctored["units"][1]["digest"] = "0" * 16
    failed, _ = run.evaluate(doctored, None)
    check("a rerun with a different digest is reported on a held-out seed", failed == 1)

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
