"""gradcast benchmark: one workload, one seed, measured from outside.

    python3 perfbench/run.py --workload desk-flood --seed 0 --seconds 50 --trace 0

``--trace 0`` plays the workload in a child process for ``--seconds``, then
times its set-up builds on their own, and reports the end-to-end metrics of
``BENCHMARK.json`` with times scaled to the reference machine speed
(``calibrate.py``); the ``host`` line gives the raw host-time readings and
the run's median speed. ``--trace 1`` plays the
workload's digest set twice, untraced and then traced, each in a child
process of its own, and reports the per-layer metrics. Every replication's
``run_row`` line is checked against ``reference.json`` at its seed, and
against output invariants at any seed; the traced rows must equal the
untraced ones. Human-readable lines come first; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the whole invocation, children included, ends within this many seconds
BUDGET_S = 170.0
OUT_DIR = ROOT / ".perfbench"


class BenchError(Exception):
    """The benchmark cannot produce a result; it exits non-zero."""


def run_child(w, seed: int, seconds: float, deadline: float, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", w.name,
           "--seed", str(seed), "--seconds", str(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{w.name} child ran past the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{w.name} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def row_hash(row: str) -> str:
    return hashlib.sha256(row.encode()).hexdigest()[:16]


def digest(res: dict, w) -> str:
    """sha256 over the digest set's run_row lines in sweep order."""
    h = hashlib.sha256()
    for chunk in res["chunks"][:w.digest_chunks]:
        if chunk["error"] is not None:
            h.update(b"error\n")
        for rep in chunk["reps"]:
            h.update(rep["row"].encode() + b"\n")
    return h.hexdigest()


def failures(res: dict, w, reference: dict | None) -> list[list[bool]]:
    """Per chunk, per replication: did it raise, break an invariant, or
    differ from the reference at this seed?"""
    per_chunk = w.reps_per_cell * len(w.protocols)
    ref_rows = reference["rows"] if reference else []
    out = []
    for j, chunk in enumerate(res["chunks"]):
        if chunk["error"] is not None or len(chunk["reps"]) != per_chunk:
            out.append([True] * per_chunk)
            continue
        flags = [bool(rep["violations"]) for rep in chunk["reps"]]
        if j < len(ref_rows):
            flags = [f or row_hash(rep["row"]) != ref
                     for f, rep, ref in zip(flags, chunk["reps"], ref_rows[j])]
        out.append(flags)
    if reference is not None and digest(res, w) != reference["digest"]:
        for flags in out[:w.digest_chunks]:
            flags[:] = [True] * len(flags)
    return out


def load_reference(w, seed: int) -> dict | None:
    ref = json.loads((HERE / "reference.json").read_text())
    return ref["workloads"].get(w.name) if seed == ref["seed"] else None


def provenance(w, seed: int, res: dict) -> dict:
    src = sorted((ROOT / "src" / "gradcast").glob("*.py")) + [ROOT / "configs" / "desk.cfg"]
    h = hashlib.sha256()
    for path in src:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": w.name,
        "seed": seed,
        "config_sha256": res["config_sha256"],
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def end_to_end(res: dict) -> tuple[dict, dict]:
    """Calibrated end-to-end metrics, and the host-time readings behind them."""
    done = sum(len(c["reps"]) for c in res["chunks"])
    host = {
        "reps_per_s": done / res["work_s"],
        "setup_s": statistics.median(res["setup_host_s"]),
        "speed": res["speed"],
    }
    return {
        "reps_per_s": done / res["work_ref_s"],
        "setup_s": statistics.median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }, host


def per_layer(plain: dict, traced: dict, failed: int, attempted: int) -> dict:
    spans, tallies = traced["spans"], traced["tallies"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name, s in spans.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    for name, key in (("phys.decode", "ok_ratio"), ("policies.decide", "forward_ratio"),
                      ("policies.eligible", "pass_ratio"), ("mac.sense", "busy_ratio")):
        out[f"{name}.{key}"] = ratio(tallies[name][0], spans[name]["calls"])
    out["phys.decode.interferers_per_call"] = ratio(tallies["phys.decode"][1],
                                                    spans["phys.decode"]["calls"])
    events = sum(s["calls"] for n, s in spans.items() if n.startswith("scenario.handle."))
    out["engine.events"] = events
    out["engine.us_per_event"] = ratio(spans["engine.loop"]["incl_s"] * 1e6, events)
    out["scenario.build_network.s"] = spans["scenario.build_network"]["incl_s"]
    out["config.load_s"] = (spans["config.load_config"]["incl_s"]
                            + spans["config.apply_overrides"]["incl_s"])
    out["trace.overhead_ratio"] = traced["work_s"] / plain["work_s"]
    out["trace.unattributed_s"] = traced["wall_s"] - sum(s["self_s"] for s in spans.values())
    for i, counter in enumerate(COUNTERS):
        out[f"run.{counter}"] = sum(rep["counters"][i]
                                    for c in plain["chunks"] for rep in c["reps"])
    out["failed_ratio"] = failed / attempted
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + BUDGET_S

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "gradcast" / "__init__.py").is_file():
        raise BenchError(f"no simulator source under {ROOT / 'src'}")
    w = WORKLOADS[args.workload]
    reference = load_reference(w, args.seed)

    if args.trace == 0:
        plain = run_child(w, args.seed, args.seconds, deadline)
        flags = [f for chunk in failures(plain, w, reference) for f in chunk]
        values, host = end_to_end(plain)
        wanted = bench["end_to_end"]
        print("host " + json.dumps(host, sort_keys=True))
    else:
        OUT_DIR.mkdir(exist_ok=True)
        plain = run_child(w, args.seed, 0, deadline)
        traced = run_child(w, args.seed, 0, deadline,
                           spans=OUT_DIR / f"spans-{w.name}.npz")
        flags = []
        for fa, fb, ca, cb in zip(failures(plain, w, reference), failures(traced, w, reference),
                                  plain["chunks"], traced["chunks"]):
            same = [(ra["row"], ra["counters"]) == (rb["row"], rb["counters"])
                    for ra, rb in zip(ca["reps"], cb["reps"])]
            same += [False] * (len(fa) - len(same))
            flags += [a or b or not s for a, b, s in zip(fa, fb, same)]
        values = per_layer(plain, traced, sum(flags), len(flags))
        wanted = bench["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {', '.join(missing)}")
    result_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    run_digest = digest(plain, w)
    ref_state = ("none" if reference is None
                 else "match" if run_digest == reference["digest"] else "mismatch")
    print("provenance " + json.dumps(provenance(w, args.seed, plain), sort_keys=True))
    print(f"digest {w.name} seed={args.seed} {run_digest} reference={ref_state}")
    for name, m in result_metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not any(flags), "attempted": len(flags),
                      "failed": sum(flags), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
