#!/usr/bin/env python3
"""Builds and runs the SupMR benchmark for one workload.

    python3 perfbench/run.py --workload wc-zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
re-check the build. Inputs are generated from --seed into .bench_work/ and
removed afterwards; traced runs leave a Chrome-trace JSON in .bench_out/.
The last line of stdout is the result JSON; any failure exits non-zero
without printing one.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wc-zipf", "wc-wide", "terasort", "serve-mix")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, stdout=sys.stderr, env=None):
    """Runs cmd in its own process group; on timeout kills the whole group
    (make and compiler children too) and waits for it before raising."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure that failed leaves a cache but no Makefile; redo it.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append((["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300))
    steps.append((["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs], 840))
    for cmd, timeout in steps:
        rc, _ = run(cmd, timeout, env=env)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    tag = f"{args.workload}-{args.seed}"
    work = os.path.join(ROOT, ".bench_work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    run_cmd = [binary, "run", *common, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        run_cmd += ["--trace-out", os.path.join(out_dir, f"trace-{tag}.json")]
    try:
        rc, _ = run([binary, "prepare", *common], 60)
        if rc != 0:
            log(f"prepare exited {rc}")
            return 1
        rc, out = run(run_cmd, 110, stdout=subprocess.PIPE)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"benchmark failed: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if rc != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        log(f"perfbench exited {rc}")
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
