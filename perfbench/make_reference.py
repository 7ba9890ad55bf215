"""Write reference.json: the run_row hashes of every workload at seed 0.

    python3 perfbench/make_reference.py [--seconds 60]

Run it only at a commit whose outputs are known good; a change that alters
any run_row line fails the benchmark until the reference is rewritten. Each
workload plays for ``--seconds``, so that runs on a machine a few times
faster than the one that wrote the file still find every chunk they reach.
"""

from __future__ import annotations

import argparse
import json
import time

from run import HERE, WORKLOADS, digest, row_hash, run_child

SEED = 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, default=60.0)
    args = ap.parse_args()
    out = {"seed": SEED, "workloads": {}}
    for w in WORKLOADS.values():
        res = run_child(w, SEED, args.seconds, time.monotonic() + args.seconds + 600)
        if any(c["error"] is not None or any(r["violations"] for r in c["reps"])
               for c in res["chunks"]):
            raise SystemExit(f"{w.name}: a chunk failed; not writing a reference")
        out["workloads"][w.name] = {
            "digest": digest(res, w),
            "rows": [[row_hash(rep["row"]) for rep in c["reps"]] for c in res["chunks"]],
        }
        print(w.name, len(res["chunks"]), "chunks", out["workloads"][w.name]["digest"])
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
