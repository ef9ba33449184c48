"""One launch of one benchmark workload (started by run.py).

Prints the launch's measurements as one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched-at", type=float, required=True,
                        help="monotonic time at which run.py started "
                             "this process")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the first trial or figure run "
                             "would start")
    parser.add_argument("--paced", action="store_true",
                        help="sample the host's speed and report times "
                             "in reference seconds")
    args = parser.parse_args(argv)

    from benchlib.workloads import run_child

    out = run_child(args.workload, args.seed, args.launched_at,
                    args.run_dir, bool(args.trace), args.smoke, args.run_id,
                    args.trace_out, args.setup_only, args.paced)
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
