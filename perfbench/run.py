#!/usr/bin/env python3
"""Run one workload of the GraphMineSuite-on-Spark benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bk-social --seed 1 --seconds 20 --trace 0

The first run builds the program and the benchmark from source with sbt
(the benchmark's build in this directory depends on the repository's root
build) and keeps the classpath under `.bench_build/perfbench`. Later runs
rebuild only when a source or build file has changed. The run itself is one
JVM with a local Spark session on every core; its last line of standard
output is the JSON result.
"""

import argparse
import hashlib
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ["bk-social", "kclique-planted", "si-labeled"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# The JVM options Spark's own launcher passes on Java 17.
JVM_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar"]),
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
    "--enable-native-access=ALL-UNNAMED",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_inputs():
    """Every file whose change calls for a rebuild."""
    files = [ROOT / "build.sbt", BENCH / "build.sbt"]
    for base in (ROOT, BENCH):
        files += sorted((base / "project").glob("*.sbt"))
        files += sorted((base / "project").glob("*.scala"))
        files += sorted((base / "project").glob("build.properties"))
    for src in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src" / "main"):
        files += sorted(p for p in src.rglob("*") if p.is_file())
    return files


def classpath():
    """Builds when the sources changed; returns the run classpath."""
    stamp_file, cp_file = OUT / "stamp", OUT / "classpath"
    digest = hashlib.sha256()
    for f in build_inputs():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text()
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"]
    try:
        res = subprocess.run(cmd, cwd=BENCH, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail("build failed")
    cp_file.write_text(lines[-1])
    stamp_file.write_text(stamp)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program to benchmark: {ROOT} lacks build.sbt or src/main/scala")
    cp = classpath()

    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    # A heap fixed in size from the start: one that grows during the run
    # makes each job a little faster than the one before.
    cmd = ["java", "-Xms3g", "-Xmx3g", *JVM_MODULE_OPTIONS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    # A benchmark stopped from outside stops its JVM too.
    signal.signal(signal.SIGTERM, lambda *_: (proc.kill(), proc.wait(), sys.exit(143)))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
