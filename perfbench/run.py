#!/usr/bin/env python3
"""Repository benchmark: build from source, run one workload, print the result.

Run from the repository root:

    python3 perfbench/run.py --workload lr-retailer --seed 1 --seconds 10 --trace 0

Workloads: lr-retailer, cart-retailer, rkmeans-favorita (see perfbench/README.md).
The first run builds the repository's main sources together with the
benchmark (sbt, in perfbench/) into .bench_build/, then records a class-data
sharing archive of the classes a short run loads, which halves JVM and Spark
start-up in later runs. Later runs reuse both while the sources are unchanged.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; everything else goes to standard error.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(OUT, "classpath.txt")
STAMP = os.path.join(OUT, "sources.sha256")
ARCHIVE = os.path.join(OUT, "classes.jsa")
BUILD_TIMEOUT_S = 500  # with the archive run and the run itself, under 900 s
RUN_TIMEOUT_S = 175

# Module access Spark needs on Java 17 (as spark-submit passes it).
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in (os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src", "main")):
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def sources_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)  # leftovers of the group, if any
        except ProcessLookupError:
            pass
    return p.returncode, out


def java_cmd(cp, *jvm_opts):
    return (["java", "-Xmx2g", f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}",
             f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
             "-Xlog:disable", "-Xlog:all=warning:stderr"]
            + [f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS]
            + list(jvm_opts) + ["-cp", cp, "repro.perfbench.Bench"])


def build():
    digest = sources_digest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    for f in (STAMP, CLASSPATH, ARCHIVE):
        if os.path.exists(f):
            os.remove(f)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    print("[perfbench] building", file=sys.stderr)
    code, _ = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=sys.stderr,
                        stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (sbt exit code {code})")
    print("[perfbench] recording the class-data sharing archive", file=sys.stderr)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    code, _ = run_group(java_cmd(cp, f"-XX:ArchiveClassesAtExit={ARCHIVE}", "-Xlog:cds=off")
                        + ["--workload", "rkmeans-favorita", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                        RUN_TIMEOUT_S, cwd=ROOT, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0:
        fail(f"archive run failed (exit code {code})")
    with open(STAMP, "w") as fh:
        fh.write(digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("run from the repository root: src/main/scala/repro is missing")
    build()
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    share = [f"-XX:SharedArchiveFile={ARCHIVE}"] if os.path.exists(ARCHIVE) else []
    cmd = java_cmd(cp, *share) + ["--workload", args.workload, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", args.trace]
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if code != 0 or not lines:
        fail(f"benchmark exited with code {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
