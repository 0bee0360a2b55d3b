#!/usr/bin/env python3
"""Paired benchmark runs of two commits on one workload.

Usage, from anywhere inside the repository:

    python3 scripts/paired_bench.py --parent HEAD~1 --change HEAD \\
        --workload sift-apd --seeds 611-620 --out pairs.json

Each commit is exported with `git archive` into `<workdir>/parent` and
`<workdir>/change`. The two paths have equal length, because older
commits store each index file's full path in the index metadata (meta.bin),
so `index_mb` would otherwise differ by the path length alone. An export is reused while
it holds the same commit, so its compiled benchmark is reused too.

For every seed the script runs `python3 perfbench/run.py --workload <w>
--seed <n> --seconds <s> --trace <t>` once in each export, alternating which
side goes first (even pairs run the parent first). It writes, after every
pair, a JSON file with each run's metrics and, per metric, the median and
quartiles of each side and how many pairs the change won, lost or tied
(the direction of "better" comes from BENCHMARK.json; metrics not listed
there get no win counts).

For every end-to-end metric of BENCHMARK.json the report also holds a
verdict: how much worse the change's median is than the parent's, as a
signed fraction of the parent's median (positive is worse), read against
the metric's bound. It is "worse" when that exceeds the bound; otherwise
"unresolved" when the parent's own spread (interquartile range over median)
exceeds the bound and not every change run beats every parent run; otherwise
"ok". Each run's progress line shows every end-to-end metric, and one
verdict line per metric is printed at the end. The exit code is non-zero if
any run failed or reported "correct": false.

Standard library only.
"""
import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARKER = ".paired_bench_commit"
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit, dest):
    """Extract `commit` into `dest`, unless it already holds that commit."""
    marker = dest / MARKER
    if marker.exists() and marker.read_text() == commit:
        return
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest)
    if archive.wait() != 0:
        sys.exit(f"[paired_bench] git archive {commit} failed")
    marker.write_text(commit)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout, args, seed, log):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    t0 = time.time()
    with open(log, "w") as err:
        proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=err, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = {"exit_code": proc.returncode, "wall_s": round(time.time() - t0, 1), "log": str(log)}
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result.update(correct=False, error="no JSON result on stdout")
        return result
    result.update(correct=bool(out.get("correct")) and proc.returncode == 0,
                  attempted=out.get("attempted"), failed=out.get("failed"),
                  metrics={k: v["value"] for k, v in out.get("metrics", {}).items()},
                  units={k: v["unit"] for k, v in out.get("metrics", {}).items()})
    return result


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs, better):
    """Per-metric medians, quartiles and win counts over complete pairs."""
    pairs = [r for r in runs if all("metrics" in r[s] for s in SIDES)]
    names = sorted(set().union(*(r["parent"]["metrics"].keys() for r in pairs))) if pairs else []
    out = {}
    for name in names:
        both = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in pairs
                if name in r["parent"]["metrics"] and name in r["change"]["metrics"]]
        entry = {"unit": pairs[0]["parent"]["units"].get(name), "better": better.get(name),
                 "pairs": len(both)}
        for i, side in enumerate(SIDES):
            xs = [b[i] for b in both]
            q1, med, q3 = quartiles(xs)
            entry[side] = {"q1": q1, "median": med, "q3": q3, "runs": xs}
        if entry["better"] in ("lower", "higher"):
            sign = 1 if entry["better"] == "higher" else -1
            entry["change_wins"] = sum(1 for p, c in both if sign * (c - p) > 0)
            entry["change_losses"] = sum(1 for p, c in both if sign * (c - p) < 0)
            entry["ties"] = sum(1 for p, c in both if c == p)
        out[name] = entry
    return out


def verdicts(metrics, end_to_end):
    """No-regression verdict of each end-to-end metric (see the module doc)."""
    out = {}
    for spec in end_to_end:
        entry = metrics.get(spec["name"])
        if entry is None:
            continue
        lower = spec["better"] == "lower"
        p, c = entry["parent"], entry["change"]
        base = abs(p["median"])
        diff = c["median"] - p["median"] if lower else p["median"] - c["median"]
        worse_by = diff / base if base else (0.0 if diff == 0 else math.copysign(math.inf, diff))
        spread = (p["q3"] - p["q1"]) / base if base else 0.0
        if lower:
            all_beat = max(c["runs"]) < min(p["runs"])
        else:
            all_beat = min(c["runs"]) > max(p["runs"])
        if worse_by > spec["bound"]:
            verdict = "worse"
        elif spread > spec["bound"] and not all_beat:
            verdict = "unresolved"
        else:
            verdict = "ok"
        out[spec["name"]] = {"verdict": verdict, "worse_by": worse_by, "bound": spec["bound"],
                             "parent_spread": spread, "every_change_run_better": all_beat}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit-ish of the baseline")
    ap.add_argument("--change", required=True, help="commit-ish of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 611-620 or 601,605,610-612")
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workdir", default=str(ROOT / ".paired_bench"),
                    help="where the two exports live (default: .paired_bench in the repository)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    commits = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
               "change": git("rev-parse", "--verify", args.change + "^{commit}")}
    workdir = Path(args.workdir).resolve()
    checkouts = {side: workdir / side for side in SIDES}  # equal-length paths
    for side in SIDES:
        export(commits[side], checkouts[side])
    logs = workdir / "logs"
    logs.mkdir(parents=True, exist_ok=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}
    end_to_end = spec.get("end_to_end", [])

    seeds = parse_seeds(args.seeds)
    runs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            log = logs / f"{args.workload}-seed{seed}-trace{args.trace}-{side}.log"
            pair[side] = run_once(checkouts[side], args, seed, log)
            m = pair[side].get("metrics", {})
            print(f"[paired_bench] seed {seed} {side}: correct={pair[side]['correct']} "
                  + " ".join(f"{k}={m[k]:.4g}" for k in (e["name"] for e in end_to_end) if k in m),
                  file=sys.stderr, flush=True)
        runs.append(pair)
        report = {
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed <n> "
                       f"--seconds {args.seconds} --trace {args.trace}",
            "workload": args.workload,
            "commits": commits,
            "pairing": "alternating: even pair index runs parent first, odd runs change first",
            "seeds": [r["seed"] for r in runs],
            "correct": {side: all(r[side]["correct"] for r in runs) for side in SIDES},
            "failed": {side: [r[side].get("failed") for r in runs] for side in SIDES},
            "metrics": summarize(runs, better),
            "runs": runs,
        }
        report["verdicts"] = verdicts(report["metrics"], end_to_end)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    for name, v in report["verdicts"].items():
        p, c = report["metrics"][name]["parent"], report["metrics"][name]["change"]
        print(f"[paired_bench] {name}: {v['verdict']} (median {p['median']:.4g} -> {c['median']:.4g}, "
              f"worse by {v['worse_by']:+.1%}, parent spread {v['parent_spread']:.1%}, "
              f"bound {v['bound']:.0%})", file=sys.stderr, flush=True)

    if not all(r[side]["correct"] for r in runs for side in SIDES):
        sys.exit("[paired_bench] a run failed or reported \"correct\": false")


if __name__ == "__main__":
    main()
