"""One workload in one process: play its chunks and report rows and timings.

Run by ``run.py``; prints one JSON object as the last line of standard
output. It plays the digest set, then further chunks while the next one is
expected to end within ``--seconds`` of the first chunk's start. With
``--seconds 0`` it plays the digest set only. Untraced, calibration samples
(``calibrate.py``) interrupt the run; every reported time leaves them out,
and each chunk's time is also scaled by the speed sampled during it. An
untraced run with ``--seconds`` above 0 then measures set-up on its own (see
``measure_setup``). With ``--spans PATH`` it installs the span wrappers first
and writes the spans to PATH at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS, chunk_overrides  # noqa: E402

COUNTERS = ("forwarded_total", "adv_total", "ncnt_total", "suppressed_tx",
            "relay_failures", "adv_decode_failures", "messages_sent",
            "messages_delivered")

# set-up is timed over the builds of this many chunks, each built this often
SETUP_CHUNKS = 8
SETUP_REPEATS = 2


def import_simulator():
    """Import the simulator from this checkout's ``src/``, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "gradcast" / "__init__.py").is_file():
        raise SystemExit(f"no simulator source under {src}")
    sys.path.insert(0, str(src))
    import gradcast
    from gradcast import config, costfield, engine, mac, metrics, phys, policies, scenario
    if Path(gradcast.__file__).resolve().parent != (src / "gradcast").resolve():
        raise SystemExit(f"imported gradcast from {gradcast.__file__}, not {src}")
    return {"config": config, "costfield": costfield, "engine": engine, "mac": mac,
            "metrics": metrics, "phys": phys, "policies": policies, "scenario": scenario}


def violations(m, cfg) -> list[str]:
    """Properties every replication's output has, whatever its seed."""
    sc = cfg.scenario
    out = []
    if not 0 <= m.messages_delivered <= m.messages_sent <= sc.event_count + sc.event_spread:
        out.append("message counts out of range")
    if len(m.min_delay_ms) != m.messages_delivered or any(d < 0 for d in m.min_delay_ms.values()):
        out.append("delivery delays inconsistent")
    if not (m.adv_total <= sc.node_count + 1 and m.ncnt_total <= sc.node_count + 1):
        out.append("a node advertised more than once")
    if m.forwarded_total < m.messages_sent - m.suppressed_tx:
        out.append("an injected message was never broadcast")
    if not (0.0 <= m.energy_consumed_pct <= 100.0 and 0 <= m.dead_nodes <= sc.node_count):
        out.append("energy accounting out of range")
    return out


def measure_setup(config, scenario, sampler, w, base, seed: int):
    """Time ``scenario.build_network`` alone over a fixed set of builds: every
    replication of the first SETUP_CHUNKS chunks at this seed, each built
    SETUP_REPEATS times. Each build starts from a collected heap and is scaled
    by the calibration loops timed right before and after it. Returns the
    scaled and the host seconds of every build."""
    scaled, host = [], []
    for _ in range(SETUP_REPEATS):
        for j in range(SETUP_CHUNKS):
            cfg = config.apply_overrides(base, chunk_overrides(w, seed, j))
            for protocol in w.protocols:
                cell = config.apply_overrides(cfg, [f"scenario.protocol={protocol}"])
                for i in range(w.reps_per_cell):
                    gc.collect()
                    before = sampler.measure()
                    t0 = time.perf_counter()
                    scenario.build_network(cell, i)
                    dt = time.perf_counter() - t0
                    after = sampler.measure()
                    host.append(dt)
                    scaled.append(dt * calibrate.REFERENCE_S * 2.0 / (before + after))
    return scaled, host


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", help="trace every layer and write the spans here")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    mods = import_simulator()
    config, metrics, scenario = mods["config"], mods["metrics"], mods["scenario"]
    rec = None
    if args.spans:
        import tracing
        rec = tracing.SpanRecorder()
        tracing.install(rec, mods)

    # the calibration samples interrupt the untraced run; every timing below
    # leaves out the time they took. The traced run reports host time per
    # layer and is not interrupted.
    sampler = calibrate.Sampler()

    t_start = time.perf_counter()
    base = config.apply_overrides(config.load_config(str(ROOT / "configs" / "desk.cfg")),
                                  list(w.overrides))
    first = config.apply_overrides(base, chunk_overrides(w, args.seed, 0))
    resolved = "".join(config.config_text(config.apply_overrides(first, [f"scenario.protocol={p}"]))
                       for p in w.protocols)
    chunks = []
    chunk_times = []   # (host seconds, first sample, end sample) per chunk
    with sampler if rec is None else contextlib.nullcontext():
        loop_start = time.perf_counter()
        j = 0
        # start another chunk only while it is expected to end within --seconds
        while j < w.digest_chunks or (time.perf_counter() - loop_start) * (j + 1) / j <= args.seconds:
            cfg = config.apply_overrides(base, chunk_overrides(w, args.seed, j))
            chunk = {"error": None, "reps": []}
            t0, c0, n0 = time.perf_counter(), sampler.spent, len(sampler.samples)
            try:
                runs, _ = scenario.sweep(cfg, w.axes, jobs=1)
            except Exception:  # noqa: BLE001 - a failing chunk is counted, not fatal
                runs = []
                chunk["error"] = traceback.format_exc()
                print(chunk["error"], file=sys.stderr)
            chunk_times.append((time.perf_counter() - t0 - (sampler.spent - c0),
                                n0, len(sampler.samples)))
            for m in runs:
                chunk["reps"].append({
                    "row": ",".join(metrics.run_row(m)),
                    "counters": [getattr(m, c) for c in COUNTERS],
                    "violations": violations(m, cfg),
                })
            chunks.append(chunk)
            j += 1
            if j == w.digest_chunks:
                # memory grows with the number of replications played; the
                # digest set is the same work on every machine
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    wall_s = time.perf_counter() - t_start - sampler.spent
    setup_s, setup_host_s = [], []
    if rec is None and args.seconds > 0:
        setup_s, setup_host_s = measure_setup(config, scenario, sampler, w, base, args.seed)

    result = {
        "chunks": chunks,
        "work_s": sum(dt for dt, _, _ in chunk_times),
        # each chunk's host time scaled by the speed sampled while it ran
        "work_ref_s": (sum(dt * sampler.speed(lo, hi) for dt, lo, hi in chunk_times)
                       if rec is None else None),
        "speed": sampler.speed() if sampler.samples else None,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "setup_host_s": setup_host_s,
        "config_sha256": hashlib.sha256(resolved.encode()).hexdigest(),
        "numpy": sys.modules["numpy"].__version__,
        "peak_rss_kb": peak_rss_kb,
    }
    if rec is not None:
        result["spans"] = rec.summary()
        result["tallies"] = rec.tallies
        rec.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
