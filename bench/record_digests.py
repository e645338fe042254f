"""Record the sha256 of every artifact the benchmark's jobs write at DEFAULT_SEED.

    python3 bench/record_digests.py

Run it on a commit whose artifacts are known to be right; it writes
bench/digests.json, which run.py compares artifacts against.
"""

import json
import sys

from run import WORKLOAD_NAMES, Tally, load_program, run_job


def main():
    workloads, _ = load_program()
    tally = Tally(digests=None)
    digests = {}
    for workload in WORKLOAD_NAMES:
        for job in workloads.build(workload, workloads.DEFAULT_SEED):
            if job.artifact is None:
                continue
            run_job(job, tally)
            if tally.failed:
                print(f"error: {tally.messages[-1]}", file=sys.stderr)
                return 1
            digests[job.id] = workloads.sha256(job.artifact)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
