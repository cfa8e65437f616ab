"""Seed self-test for the benchmark.

Runs every workload twice on one seed and once on a held-out seed, then
checks that:

* every run is correct (`failed` is 0);
* the simulated results (`sim_*` lines, the `sim` and `rows` fingerprints)
  are identical on the held-out seed, because the cost model does not depend
  on frame content (on serve-mix the arrival trace does come from the seed,
  so its latencies are compared between the two same-seed runs only);
* the output and trace fingerprints repeat exactly for the same seed.

Run from the repository root:

    python3 perfbench/selftest.py [--seed 1] [--held-out 7919] [--seconds 2]
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["hd-stream", "serve-mix", "plan-search"]
COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def run(workload, seed, seconds):
    cmd = COMMAND + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fields = {}
    for line in lines[:-1]:
        name, sep, value = line.partition(" = ")
        if sep and (name.startswith("sim_") or name.startswith("fingerprint.")
                    or name in ("sim_max_load", "shed_ratio")):
            fields[name] = value
    return result, fields


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, default=7919)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    problems = []
    for w in WORKLOADS:
        a, fa = run(w, args.seed, args.seconds)
        b, fb = run(w, args.seed, args.seconds)
        h, fh = run(w, args.held_out, args.seconds)
        for name, r in (("seed", a), ("repeat", b), ("held-out", h)):
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{w}: {name} run failed {r['failed']}/{r['attempted']}")
        if fa != fb:
            problems.append(f"{w}: same seed, different simulated results: {fa} vs {fb}")
        seed_free = {k for k in fa if k in ("fingerprint.sim", "fingerprint.rows")
                     or (w != "serve-mix" and k.startswith("sim_"))}
        for k in sorted(seed_free):
            if fa.get(k) != fh.get(k):
                problems.append(f"{w}: {k} changed on the held-out seed: {fa.get(k)} vs {fh.get(k)}")
        print(f"{w}: {len(fa)} simulated fields, {len(seed_free)} seed-independent, "
              f"attempted {a['attempted']}/{b['attempted']}/{h['attempted']}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
