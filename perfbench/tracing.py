"""Outside-in spans: wrappers installed on the simulator's module attributes.

The simulator calls its layers through module attributes (``phys.decode``,
``mac.sense``, ``policies.grab_decide``, ...) and through class attributes
(``Simulator.schedule``, ``Network.handle``), so replacing those attributes
before a replication is built puts a span around every call without touching
the program. Spans live in flat arrays in memory; self times are computed
once at the end from the recorded parent links.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

NO_SPAN = -1


class SpanRecorder:
    """Span store: name id, start, end, parent span and replication id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [NO_SPAN]
        self.rep_id = NO_SPAN
        self._next_rep = 0
        # name -> [outcome sum, detail sum], counted where the call returns
        self.tallies: dict[str, list[float]] = {}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, *, name_of=None, tally=None, new_rep=False):
        """Return ``fn`` wrapped in a span. ``name_of(args)`` picks a per-call
        name; ``tally(args, result)`` returns (outcome, detail) increments;
        ``new_rep`` gives the span and everything under it a fresh
        replication id."""
        names, parents, reps = self.name, self.parent, self.rep
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        fixed_id = self.intern(name) if name_of is None else NO_SPAN
        counts = self.tallies.setdefault(name, [0.0, 0.0]) if tally else None
        rec = self

        def traced(*args, **kwargs):
            if new_rep:
                rec.rep_id = rec._next_rep
                rec._next_rep += 1
            i = len(starts)
            names.append(fixed_id if name_of is None else rec.intern(name_of(args)))
            parents.append(stack[-1])
            reps.append(rec.rep_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if new_rep:
                    rec.rep_id = NO_SPAN
            if counts is not None:
                outcome, detail = tally(args, result)
                counts[0] += outcome
                counts[1] += detail
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "rep": np.frombuffer(self.rep, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (duration
        minus the time the span's direct children cover)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_s = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_s, minlength=k)
        return {n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _decode_tally(args, ok):
    return (1 if ok else 0), len(args[2])


def _forward_tally(args, dec):
    return (1 if dec.forward else 0), 0


def _pass_tally(args, ok):
    return (1 if ok else 0), 0


def _busy_tally(args, c_n):
    net = args[0]
    return (1 if c_n >= net.mac.congestion_limit else 0), 0


def _event_name(args):
    return "scenario.handle." + args[2].kind.value


DECIDE_FUNCTIONS = ("bgb_decide", "grab_decide", "pgrab_decide", "ugrab_decide",
                    "upgrab_decide")


def install(rec: SpanRecorder, gradcast_modules) -> None:
    """Replace the traced attributes of the imported simulator modules.

    ``gradcast_modules`` maps module names (config, costfield, engine, mac,
    metrics, phys, policies, scenario) to the imported modules. Patching is
    process-wide and is not undone: the traced run is a process of its own.
    """
    m = gradcast_modules
    points = [
        (m["phys"], "decode", "phys.decode", {"tally": _decode_tally}),
        (m["scenario"], "neighbor_lists", "scenario.neighbor_lists", {}),
        (m["scenario"], "connectivity", "scenario.connectivity", {}),
        (m["scenario"], "generate_topology", "scenario.generate_topology", {}),
        (m["scenario"], "build_network", "scenario.build_network", {}),
        (m["scenario"], "run_replication", "scenario.run_replication", {"new_rep": True}),
        (m["scenario"], "sweep", "scenario.sweep", {}),
        (m["scenario"].Network, "handle", "scenario.handle", {"name_of": _event_name}),
        (m["policies"], "eligible", "policies.eligible", {"tally": _pass_tally}),
        (m["policies"], "consume_energy", "policies.consume_energy", {}),
        (m["policies"], "note_overheard", "policies.note_overheard", {}),
        (m["policies"], "reach_power", "policies.reach_power", {}),
        (m["mac"], "transmit", "mac.transmit", {}),
        (m["mac"], "sense", "mac.sense", {"tally": _busy_tally}),
        (m["costfield"], "handle_adv", "costfield.handle_adv", {}),
        (m["costfield"], "handle_ncnt", "costfield.handle_ncnt", {}),
        (m["costfield"], "neighborhood_discrepancy", "costfield.neighborhood_discrepancy", {}),
        (m["engine"].Simulator, "run_until_idle", "engine.loop", {}),
        (m["engine"].Simulator, "schedule", "engine.schedule", {}),
        (m["engine"], "make_stream", "engine.make_stream", {}),
        (m["metrics"].RunRecorder, "finalize", "metrics.finalize", {}),
        # sweep calls aggregate through the name scenario imported
        (m["scenario"], "aggregate", "metrics.aggregate", {}),
        (m["config"], "load_config", "config.load_config", {}),
        (m["config"], "apply_overrides", "config.apply_overrides", {}),
    ]
    points += [(m["policies"], fn, "policies.decide", {"tally": _forward_tally})
               for fn in DECIDE_FUNCTIONS]
    for owner, attr, name, opts in points:
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, **opts))
