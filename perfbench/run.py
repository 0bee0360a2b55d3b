#!/usr/bin/env python3
"""LANNS benchmark: build, query and ground-truth jobs on one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sift-apd --seed 1 --seconds 18 --trace 0

Workloads: sift-apd and cosine-hnsw (BENCHMARK.json), and fanout-rs (see
perfbench/src/main/scala/perfbench/Workloads.scala). With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run. Every run also writes a run
record (configuration, environment, spans, self times) under
perfbench/work/runs/.

The first run in a checkout compiles the program's main sources together with
the benchmark's own sources with sbt (perfbench/build.sbt) into
perfbench/target; later runs start a plain JVM on the recorded classpath and
rebuild only when a source file changed. The exit code is non-zero when the
build fails, the run times out, or an output check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
TARGET = HERE / "target"
WORK = HERE / "work"
CLASSPATH = TARGET / "classpath.txt"
STAMP = TARGET / "source-hash.txt"
EMBEDDINGS = HERE / "data" / "embeddings.parquet"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Pinned JVM: a fixed heap and collector, so runs differ by program, not by
# heap sizing.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:MetaspaceSize=256m", "-XX:+UseParallelGC"]


def source_hash():
    """SHA-256 over every file the build compiles or reads."""
    h = hashlib.sha256()
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for base in (PROGRAM_SOURCES, HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build(digest):
    if CLASSPATH.exists() and STAMP.exists() and STAMP.read_text() == digest:
        return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"]
    print("[perfbench] building: " + " ".join(cmd), file=sys.stderr, flush=True)
    proc = subprocess.Popen(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("[perfbench] build timed out")
    if code != 0 or not CLASSPATH.exists():
        sys.exit(f"[perfbench] build failed with exit code {code}")
    STAMP.write_text(digest)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not PROGRAM_SOURCES.is_dir():
        sys.exit(f"[perfbench] no program sources at {PROGRAM_SOURCES}; "
                 "run from the root of a full checkout")
    digest = source_hash()
    build(digest)

    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={tmp}",
           "-cp", CLASSPATH.read_text().strip(), "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work", str(WORK), "--embeddings", str(EMBEDDINGS),
           "--git-sha", git_sha(), "--source-hash", digest]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("[perfbench] run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
