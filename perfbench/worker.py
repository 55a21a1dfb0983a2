"""One timed process of an end-to-end run: warm up, then time checked repetitions.

    python3 perfbench/worker.py WORKLOAD SEED REPS [DEADLINE]

run.py starts the workload's ``processes`` of these one after another.
Each imports ehrelay afresh, warms the workload up, runs REPS repetitions
and prints one JSON line per checked repetition.  No repetition but the
first starts after DEADLINE, a time.monotonic() reading.  Fresh processes matter:
how many page faults a Monte Carlo block takes depends on the allocator
state the shard threads happen to build up, which stays fixed for the life
of a process and differs between processes by up to 5x.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS, load_ehrelay


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat", encoding="utf-8") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def main(argv: list) -> int:
    name, seed, reps = argv[1], int(argv[2]), int(argv[3])
    deadline = float(argv[4]) if len(argv) > 4 else float("inf")
    workload = WORKLOADS[name]
    load_ehrelay()
    state = workload.prepare(seed)
    workload.warm_up(state)
    for done in range(reps):
        if done and time.monotonic() >= deadline:
            break
        cpu, steal = os.times(), steal_s()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rep = workload.rep(state)
        rep.extra["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        rep.extra["cpu_user_s"] = os.times().user - cpu.user
        rep.extra["cpu_sys_s"] = os.times().system - cpu.system
        rep.extra["steal_s"] = steal_s() - steal
        # The process's high-water mark so far, import and warm-up included.
        rep.extra["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.check(state, rep)
        rep.output = None
        print(json.dumps(dataclasses.asdict(rep)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
