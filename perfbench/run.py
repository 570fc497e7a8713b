#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload stream-long --seed 1 --seconds 30 --trace 0

Run it from the root of the source tree.  It builds
perfbench/main.exe with dune, runs it in its own process group, relays
its output (the last line is the JSON result) and makes sure every
process it started has ended before it exits.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

BENCH_EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def source_revision():
    """Git revision when there is one, and a digest of the sources."""
    rev = "none"
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "git:%s,src:%s" % (rev, h.hexdigest()[:12])


def stop_group(pgid):
    """SIGTERM, then SIGKILL, whatever is left of the benchmark's process group."""
    for sig, wait_s in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        os.killpg(pgid, sig)
        deadline = time.time() + wait_s
        while time.time() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("BENCHMARK.json")):
        print("run.py: run me from the root of the icost source tree",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    cmd = [BENCH_EXE, "run", "--rev", source_revision()] + sys.argv[1:]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    finally:
        stop_group(proc.pid)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
