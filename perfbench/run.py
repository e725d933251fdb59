#!/usr/bin/env python3
"""Run the TopL-ICDE benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run compiles the program and the
harness with sbt (perfbench/build.sbt); later runs start the harness JVM
directly from the recorded classpath, and recompile only when a source or
build file has changed. The harness prints a report line and then the result
line on standard output; build and Spark logs go to standard error.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "target", "launcher.txt")
FINGERPRINT = os.path.join(HERE, "target", "launcher.sha256")
WORK = os.path.join(HERE, ".work")
MAIN = "repro.perfbench.Main"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Everything the harness JVM is compiled from.
SOURCES = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
           "perfbench/project/build.properties", "perfbench/src/main"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def fingerprint():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else []
        for d, subdirs, fs in os.walk(path):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            files += sorted(os.path.join(d, f) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx4g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; on timeout kill the whole group
    and wait for it, so nothing outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def ensure_built():
    want = fingerprint()
    if os.path.isfile(LAUNCHER) and os.path.isfile(FINGERPRINT):
        with open(FINGERPRINT) as fh:
            if fh.read().strip() == want:
                return
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "writeLauncher"]
    try:
        code = run_group(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=build_env(), stdout=sys.stderr)
    except FileNotFoundError:
        fail("sbt not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if code != 0 or not os.path.isfile(LAUNCHER):
        fail(f"build failed (sbt exit {code})")
    with open(FINGERPRINT, "w") as fh:
        fh.write(want)


def driver_mem():
    """The tier-1 formula: half of MemTotal in GiB, clamped to [2, 8]."""
    if os.environ.get("SPARK_DRIVER_MEM"):
        return os.environ["SPARK_DRIVER_MEM"]
    try:
        with open("/proc/meminfo") as fh:
            kb = next(int(l.split()[1]) for l in fh if l.startswith("MemTotal:"))
        return f"{min(8, max(2, kb // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30)
        return out.stdout if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    for rel in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"no {rel} in {ROOT}: the benchmark builds the program from its sources")
    ensure_built()

    with open(LAUNCHER) as fh:
        lines = fh.read().splitlines()
    cp = next(l[3:] for l in lines if l.startswith("cp="))
    opts = [l[4:] for l in lines if l.startswith("opt=")]

    sha = (git("rev-parse", "HEAD") or "").strip() or "unknown (not a git checkout)"
    status = git("status", "--porcelain")
    dirty = "unknown" if status is None else str(bool(status.strip())).lower()
    mem = driver_mem()

    work = os.path.join(WORK, f"run-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xmx{mem}", "-XX:-UsePerfData", *opts,
           f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={os.path.join(work, 'spark')}",
           f"-Dperfbench.gitSha={sha}", f"-Dperfbench.gitDirty={dirty}", f"-Dperfbench.xmx={mem}",
           "-cp", cp, MAIN,
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    try:
        code = run_group(cmd, RUN_TIMEOUT_S, cwd=work)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
