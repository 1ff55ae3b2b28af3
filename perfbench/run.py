#!/usr/bin/env python3
"""Build and run the simulator's benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is bulk, rpc, c10k, lossy or all. The script builds perfbench.exe from
source with dune into .bench_build/ at the repository root, then runs it
with the same arguments; see perfbench/README.md for what it measures.
Everything it writes stays under .bench_build/.
"""

import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")


def commit():
    """The checkout's git commit, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def ring_log2_words():
    """log2 of the traced run's Runtime_events ring, in words per domain.

    The runtime sizes its ring file up front for all 128 domains it could
    run, 128 * 8 * 2^e bytes, and aborts when it cannot (a file-size limit
    smaller than that, say). The ring shrinks until the file fits in half
    of the limit; None when not even the smallest ring fits.
    """
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    for e in range(16, 9, -1):
        size = 128 * 8 * 2 ** e + (1 << 20)
        if limit == resource.RLIM_INFINITY or 2 * size <= limit:
            return e
    return None


def main():
    env = dict(os.environ)
    # keep dune's shared cache (under the home directory) out of it
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(BUILD, "cache")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "--display", "quiet", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env["PERFBENCH_OUT"] = OUT
    env["PERFBENCH_NPROC"] = str(os.cpu_count() or 0)
    env["PERFBENCH_COMMIT"] = commit()
    # the traced run's Runtime_events ring file goes here, not into cwd
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    e = ring_log2_words()
    if e is None:
        env["PERFBENCH_GC_EVENTS"] = "0"
    else:
        env["OCAMLRUNPARAM"] = ",".join(
            p for p in [env.get("OCAMLRUNPARAM", ""), "e=%d" % e] if p)
    args = [EXE, "--golden", os.path.join(HERE, "golden.txt")] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(EXE, args, env)


if __name__ == "__main__":
    sys.exit(main())
