#!/usr/bin/env python3
"""Reach audit: every function in src/gradcast must run in the CLI runs below.

The runs are `gradcast` commands played in this process at `--jobs 1` (so
one `sys.settrace` sees every call) on a 30-node arena, plus the
`config.config_text` call that `perfbench/child.py` makes. Between them they
cover `run` plain, with the energy audit, with tx-side failures and with
UP-GRAB at p_f 0.4; `report`, `dump-topology` and `dump-trace`; and two
sweeps over the five protocols, p_f 0, 0.4 and 0.8, two credit factors, a
centre sink, both bounds modes, `require_connected` and `include_sink`. The
tracer is installed before `gradcast` is imported, so code that runs at
import counts too.

A function is any named `def` in the package, methods and nested functions
included. The audit fails when one is never called and `ALLOWED` does not
name it, when an `ALLOWED` name is called or no longer exists, or when a
command exits non-zero. It prints how many lines of each module ran.

  python scripts/reach.py

Exits 1 on any failure; prints the wall time.
"""

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradcast"

# functions no run calls, each with the reason it stays
ALLOWED = {
    "phys.decode": "scalar reference of LinkTable.decodes and decode_batch",
    "phys.is_neighbor": "scalar reference of link_table's neighbour lists",
    "policies.eligible": "scalar reference of the downhill check _receive_data inlines",
    "policies.strategy_payoff": "reference of the forwarding game's payoff table",
    "policies.Battery.remaining_j": "reference that Battery.dead and the tests read against",
    "scenario.neighbor_lists": "wrapper over link_table that tests and criteria 1-2 call",
    "scenario.connectivity": "wrapper over link_table that tests call",
}

ARENA = ["--config", str(ROOT / "configs" / "desk.cfg"),
         "--set", "scenario.node_count=30", "--set", "scenario.area_width_m=120",
         "--set", "scenario.area_height_m=120"]
# the flags of the commands that play every replication of a cell
RUNS = ["--seeds", "2", "--jobs", "1"]
PROTOCOLS = "BGB,GRAB,P-GRAB,U-GRAB,UP-GRAB"


def commands(out: str) -> list[list[str]]:
    """The CLI runs the audit plays, writing under ``out``."""
    def s(*pairs):
        return [a for p in pairs for a in ("--set", p)]
    return [
        ["run", *ARENA, *RUNS, "--out", f"{out}/run"],
        ["run", *ARENA, *RUNS, *s("metrics.energy_audit=True"), "--out", f"{out}/audit"],
        ["run", *ARENA, *RUNS, *s("scenario.failure_side=tx", "scenario.p_f=0.4"),
         "--out", f"{out}/tx"],
        ["run", *ARENA, *RUNS, *s("scenario.protocol=UP-GRAB", "scenario.p_f=0.4"),
         "--out", f"{out}/up"],
        ["report", f"{out}/run/aggregate.csv", "--out", f"{out}/report"],
        ["dump-topology", *ARENA, *s("scenario.protocol=P-GRAB"), "--out", f"{out}/topo"],
        ["dump-trace", *ARENA, *s("scenario.protocol=U-GRAB", "policies.stall_check_factor=2"),
         "--out", f"{out}/trace"],
        ["sweep", *ARENA, *RUNS, "--axis", f"scenario.protocol={PROTOCOLS}",
         "--axis", "scenario.p_f=0,0.4,0.8", "--out", f"{out}/sweep-protocols"],
        ["sweep", *ARENA, *RUNS, *s("scenario.protocol=GRAB", "scenario.p_f=0.4",
                                    "scenario.require_connected=True", "metrics.include_sink=True"),
         "--axis", "policies.credit_factor=1,10", "--axis", "scenario.sink_placement=center",
         "--axis", "costfield.bounds_mode=computed,fixed", "--out", f"{out}/sweep-grab"],
    ]


def functions() -> dict[tuple, str]:
    """(file, first line, name) of every named function's code -> its
    dotted name, ``module.Class.method`` or ``module.outer.<locals>.inner``."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not hasattr(const, "co_code") or const.co_name.startswith("<"):
                continue
            name = prefix + const.co_name
            # a class body is code without CO_OPTIMIZED; a function's is not
            if const.co_flags & 1:
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                walk(const, name + ".<locals>.")
            else:
                walk(const, name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return found


def executable_lines(path: Path) -> set[int]:
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def main() -> int:
    began = time.perf_counter()
    files = {str(p) for p in PACKAGE.glob("*.py")}
    called, ran = set(), {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
        ran[code.co_filename].add(frame.f_lineno)
        return local

    failed = []
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="reach-") as out:
        sys.settrace(tracer)
        try:
            from gradcast import cli, config
            # perfbench/child.py hashes each protocol's resolved config text
            config.config_text(config.load_config(str(ROOT / "configs" / "desk.cfg")))
            for argv in commands(out):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    failed.append(f"gradcast {' '.join(argv[:1])} exited {code}")
        finally:
            sys.settrace(None)

    names = functions()
    defined = set(names.values())
    unreached = {name for key, name in names.items() if key not in called}
    failed += [f"never called: {n}" for n in sorted(unreached - ALLOWED.keys())]
    failed += [f"allowed but called: {n}" for n in sorted((ALLOWED.keys() & defined) - unreached)]
    failed += [f"allowed but not defined: {n}" for n in sorted(ALLOWED.keys() - defined)]

    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        print(f"{path.name:<16} {len(lines & ran[str(path)]):>4} of {len(lines):>4} lines ran")
    print(f"{len(names) - len(unreached)} of {len(names)} functions called; "
          f"unreached and allowed: {', '.join(sorted(unreached & ALLOWED.keys()))}")
    for line in failed:
        print(f"FAIL {line}")
    print(f"{'fail' if failed else 'pass'} in {time.perf_counter() - began:.1f} s wall")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
