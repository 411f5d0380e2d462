"""Benchmark of berncert: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload bpci --seed 1 --seconds 30 --trace 0

Workloads: bpci, validity, coverage_event (see perfbench/README.md).  The
workload runs in a fresh interpreter with ``PYTHONPATH=src`` and
``BERN_CERT_THREADS`` pinned to at most 2 usable CPUs.  With ``--trace 0``
the last line of output is the end-to-end metrics; ``setup_s`` is the median
over several launches of the time from starting the interpreter to the end
of ``import berncert`` and input generation.  With ``--trace 1`` it is the
per-layer metrics, from spans recorded around each module's functions.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("bpci", "validity", "coverage_event")
SETUP_LAUNCHES = 7
MAX_THREADS = 2
DEADLINE_S = 170


class LaunchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # os.cpu_count() in the package counts the host's CPUs, not the ones this process may use
    env["BERN_CERT_THREADS"] = str(min(MAX_THREADS, len(os.sched_getaffinity(0))))
    return env


def launch(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run workload.py; return (seconds until it printed READY, the rest of its stdout)."""
    start = time.perf_counter()
    # own process group, so that a kill also reaches the CLI commands it runs
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workload.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise LaunchError(f"workload did not start: {line!r}")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except (subprocess.TimeoutExpired, LaunchError):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise LaunchError(f"workload exited with code {proc.returncode}")
    return setup_s, rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "berncert", "__init__.py")):
        print(f"error: no berncert sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_LAUNCHES - 1):
                setups.append(launch([*common, "--setup-only"], deadline)[0])
        setup_s, out = launch([*common, "--trace", str(args.trace)], deadline)
    except (LaunchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
