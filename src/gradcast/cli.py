"""Batch front end: single runs, parameter sweeps, reports and debug dumps.

Exit codes: 0 success, 2 configuration error, 3 runtime fault.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import metrics as metrics_mod
from . import scenario
from .config import ConfigError, apply_overrides, default_config, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (defaults apply when omitted)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--out", default="out", help="output directory")


def _add_replications(p: argparse.ArgumentParser) -> None:
    # run and sweep alone: a dump plays one replication in this process
    p.add_argument("--seeds", type=int, help="override scenario.replications")
    p.add_argument("--jobs", type=int, default=1, help="parallel replications")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gradcast",
                                 description="gradient-broadcast routing simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one configuration cell")
    _add_common(run)
    _add_replications(run)
    run.set_defaults(axis=[])   # a sweep with no axes

    sw = sub.add_parser("sweep", help="run the cross product of override axes")
    _add_common(sw)
    _add_replications(sw)
    sw.add_argument("--axis", action="append", default=[], metavar="KEY=V1,V2,...",
                    help="sweep axis (repeatable)", required=True)

    rep = sub.add_parser("report", help="tabulate an aggregate CSV")
    rep.add_argument("aggregate_csv")
    rep.add_argument("--out", help="directory for the long-format CSV "
                                   "(default: alongside the input)")

    topo = sub.add_parser("dump-topology", help="run the setup phase and dump the cost field")
    _add_common(topo)
    topo.add_argument("--run-index", type=int, default=0)

    tr = sub.add_parser("dump-trace", help="run one replication with full traces")
    _add_common(tr)
    tr.add_argument("--run-index", type=int, default=0)

    return ap


def _load(args) -> "SimConfig":
    if getattr(args, "run_index", 0) < 0:
        raise ConfigError("--run-index must be >= 0")
    cfg = load_config(args.config) if args.config else default_config()
    return apply_overrides(cfg, args.set)


def _trace_row(ev) -> list[str]:
    detail = ""
    payload = ev.payload
    if hasattr(payload, "packet"):   # a transmission leaving the air
        detail = type(payload.packet).__name__
    elif isinstance(payload, tuple) and payload:
        head = payload[0]
        if hasattr(head, "msg_id"):
            detail = f"msg {head.msg_id}"
        elif hasattr(head, "q_p"):
            detail = f"adv q_p={head.q_p:.6g}"
        elif isinstance(head, str):
            detail = head
    return [format(ev.fire_at, ".6f"), str(ev.seq), ev.kind.value, str(ev.node), detail]


def _fmt_row(row) -> list[str]:
    return ["" if v is None else (format(v, ".6g") if isinstance(v, float) else str(v))
            for v in row]


def _cmd_sweep(args) -> int:
    """Play the cross product of the ``--axis`` values (one cell for
    ``run``, which has none), write runs.csv and aggregate.csv under
    ``--out`` and print the cells."""
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    cfg = _load(args)
    if args.seeds is not None:
        if args.seeds < 1:
            raise ConfigError("--seeds must be >= 1")
        cfg.scenario.replications = args.seeds
    axes = []
    for spec in args.axis:
        if "=" not in spec:
            raise ConfigError(f"axis must look like key=v1,v2,...: {spec!r}")
        key, raw = spec.split("=", 1)
        axes.append((key.strip(), [v for v in raw.split(",") if v != ""]))
    runs, cells = scenario.sweep(cfg, axes, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    metrics_mod.write_runs_csv(os.path.join(args.out, "runs.csv"), runs)
    metrics_mod.write_aggregate_csv(os.path.join(args.out, "aggregate.csv"), cells)
    _print_cells(cells)
    return EXIT_OK


def _print_cells(cells) -> None:
    header = f"{'protocol':<9} {'p_f':>5} {'param':<16} " \
             f"{'success':>15} {'delay_ms':>19} {'forwarded':>17} {'energy%':>15}"
    print(header)
    for cell in sorted(cells, key=lambda c: (c.protocol, c.p_f, c.param)):
        def ms(name):
            mean, std, _ = cell.stats[name]
            if mean is None:
                return "-"
            return f"{mean:.3f} ± {std:.3f}"
        print(f"{cell.protocol:<9} {cell.p_f:>5.2g} {cell.param:<16} "
              f"{ms('success_ratio'):>15} {ms('avg_delay_ms'):>19} "
              f"{ms('forwarded'):>17} {ms('energy_pct'):>15}")


def _cmd_report(args) -> int:
    rows = metrics_mod.read_aggregate_csv(args.aggregate_csv)
    required = set(metrics_mod.aggregate_columns())
    for row in rows:
        if not required.issubset(row) or any(row[k] is None for k in required):
            raise ValueError(f"malformed aggregate CSV: {args.aggregate_csv}")
    rows.sort(key=lambda r: (r["protocol"], float(r["p_f"]) if r["p_f"] else 0.0,
                             r.get("param", "")))
    print(f"{'protocol':<9} {'p_f':>5} {'param':<16} metric                mean ± std (n)")
    long_rows = []
    for r in rows:
        cell = f"{r.get('protocol', '')}/p_f={r.get('p_f', '')}" + \
               (f"/{r['param']}" if r.get("param") else "")
        for name in metrics_mod.AGG_METRICS:
            mean, std, n = r.get(f"{name}_mean", ""), r.get(f"{name}_std", ""), r.get(f"{name}_n", "")
            long_rows.append([cell, name, mean, std, n])
            if mean:
                print(f"{r['protocol']:<9} {float(r['p_f']):>5.2g} {r.get('param', ''):<16} "
                      f"{name:<20} {float(mean):.4g} ± {float(std):.4g} ({n})")
    out_dir = args.out or os.path.dirname(os.path.abspath(args.aggregate_csv))
    os.makedirs(out_dir, exist_ok=True)
    long_path = os.path.join(out_dir, "long.csv")
    with open(long_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["cell", "metric", "mean", "std", "n"])
        w.writerows(long_rows)
    return EXIT_OK


def _cmd_dump_topology(args) -> int:
    cfg = _load(args)
    cfg.scenario.event_count = 0
    cfg.scenario.event_spread = 0
    sim, net = scenario.build_network(cfg, args.run_index)
    sim.run_until_idle(cfg.scenario.max_sim_time_ms)
    if net.proto.counts:
        for node in net.nodes[:net.sink_id]:
            net.ensure_delta(node)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "topology.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "x", "y", "Q", "N_i", "delta"])
        w.writerows(scenario.costfield_rows(net))
    print(path)
    return EXIT_OK


def _cmd_dump_trace(args) -> int:
    cfg = _load(args)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "trace.csv"), "w", newline="", encoding="utf-8") as tfh, \
         open(os.path.join(args.out, "decisions.csv"), "w", newline="", encoding="utf-8") as dfh:
        tw = csv.writer(tfh)
        tw.writerow(["time", "seq", "kind", "node", "detail"])
        dw = csv.writer(dfh)
        dw.writerow(["time", "node", "policy", "eligible", "action",
                     "p_fw", "c_n", "alpha_n", "r_n"])
        scenario.run_replication(cfg, args.run_index,
                                 event_trace=lambda ev: tw.writerow(_trace_row(ev)),
                                 decision_trace=lambda row: dw.writerow(_fmt_row(row)))
    print(os.path.join(args.out, "trace.csv"))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_sweep,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "dump-topology": _cmd_dump_topology,
    "dump-trace": _cmd_dump_trace,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - runtime faults map to exit 3
        print(f"runtime fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
