#!/usr/bin/env python3
"""Mutation gate: every mutant below must fail the tests named for it.

A mutant is (name, file, exact old text, new text, tests). Each one is
applied to a fresh temporary copy of the tree, and its tests run there with
pytest. The gate fails when a mutant's tests still pass, when they end in
anything other than test failures (an error proves nothing), or when its
old text does not occur exactly once in the file. Before the mutants, every
named test runs once on an unmutated copy and must pass. The working tree is
only read.

  python scripts/mutants.py

Prints one line per mutant with its verdict and seconds, then the total wall
time; exits 1 if any mutant survived or could not be applied.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = "src/gradcast/scenario.py"
PHYS = "src/gradcast/phys.py"
ENGINE = "src/gradcast/engine.py"
SETUP_LOOP = "tests/test_scenario.py::test_flat_setup_loop_equals_its_helpers"
SHARED_TAPES = "tests/test_engine.py::test_cells_sharing_tapes_replay_one_seeding"
TAPE_BLOCKS = "tests/test_engine.py::test_tape_blocks_are_make_streams_draws"

MUTANTS = [
    ("setup loop without its liveness check", SCENARIO,
     "            if battery.consumed_j >= battery.capacity_j:\n"
     "                continue\n"
     "            if not ok:\n",
     "            if not ok:\n",
     [SETUP_LOOP]),
    ("setup loop counting a dead hearer as a failed decode", SCENARIO,
     "            if battery.consumed_j >= battery.capacity_j:\n"
     "                continue\n"
     "            if not ok:\n"
     "                failed += 1\n"
     "                continue\n",
     "            if not ok:\n"
     "                failed += 1\n"
     "                continue\n"
     "            if battery.consumed_j >= battery.capacity_j:\n"
     "                continue\n",
     [SETUP_LOOP]),
    ("setup loop counting a count's failed decodes", SCENARIO,
     "        if adv:\n"
     "            self.counters[\"adv_decode_failures\"] += failed\n",
     "        self.counters[\"adv_decode_failures\"] += failed\n",
     [SETUP_LOOP]),
    ("setup loop dropping the ledger append", SCENARIO,
     "            if log is not None:\n"
     "                log.append((rx_id, drawn))\n"
     "            rx.neighbor_pathloss[sender] = link\n",
     "            rx.neighbor_pathloss[sender] = link\n",
     [SETUP_LOOP]),
    ("handle_ncnt keying the counts by the receiver", "src/gradcast/costfield.py",
     "    node.neighbor_counts[sender] = pkt.count\n",
     "    node.neighbor_counts[node.id] = pkt.count\n",
     ["tests/test_golden.py::test_dump_topology_matches_golden_bytes[P-GRAB]"]),
    ("data receptions debited at an advertisement's joules", SCENARIO,
     "        joules = self._rx_joules[\"data\"]\n",
     "        joules = self._rx_joules[\"adv\"]\n",
     ["tests/test_golden.py::test_energy_ledger_order_matches_golden_bytes"]),
    ("a position list shared between replications", SCENARIO,
     "        stream = self.streams[purpose] = (key, tape[1], [0] * n)\n",
     "        stream = self.streams[purpose] = (\n"
     "            key, tape[1], self.tapes.setdefault(key + (\"reads\",), [0] * n))\n",
     [SHARED_TAPES]),
    ("grow restarting each block at the stream's first draw", ENGINE,
     "        blocks = _doubles(_outputs(rows[a:a + BLOCK], held // BLOCK))\n",
     "        blocks = _doubles(_outputs(rows[a:a + BLOCK], 0))\n",
     # the fast replay first: under -x it stops there, before hypothesis
     # shrinks the slower test's failing example
     [SHARED_TAPES, TAPE_BLOCKS]),
    ("a level pass that also fills nodes holding fewer blocks", ENGINE,
     "        nodes = [i for i, d in enumerate(draws) if len(d) == held]\n",
     "        nodes = [i for i, d in enumerate(draws) if len(d) <= held]\n",
     ["tests/test_engine.py::test_a_level_pass_fills_exactly_the_nodes_at_its_level"]),
    ("the 128-bit add dropping its carry", ENGINE,
     "    hi += lo < tail   # the carry out of the low word\n",
     "",
     [SHARED_TAPES, TAPE_BLOCKS]),
    ("the rotation read from hi >> 59", ENGINE,
     "    rot = hi >> 58\n",
     "    rot = hi >> 59\n",
     [SHARED_TAPES, TAPE_BLOCKS]),
    ("Lemire's threshold taken % rng in place of % (rng + 1)", ENGINE,
     "            threshold = (_LOW - span) % (span + 1)",
     "            threshold = (_LOW - span) % span",
     ["tests/test_engine.py::test_integers_are_numpys_bounded_draws"]),
    ("_topology_key dropping area_height_m", SCENARIO,
     "sc.area_width_m, sc.area_height_m,\n",
     "sc.area_width_m,\n",
     ["tests/test_scenario.py::test_every_field_outside_the_topology_key_leaves_the_topology"]),
    ("the inlined lottery not advancing its position", SCENARIO,
     "                reads[rx_id] = pos + 1\n"
     "                if draws[pos] < p_f:\n",
     "                if draws[pos] < p_f:\n",
     ["tests/test_scenario.py::test_flat_receive_loop_equals_its_helpers"]),
    ("the data start back among the data-only fields", "src/gradcast/shared_setup.py",
     "\"scenario.event_spread\", \"scenario.data_window_ms\",",
     "\"scenario.event_spread\", \"scenario.data_start_ms\", \"scenario.data_window_ms\",",
     ["tests/test_scenario.py::test_cells_apart_in_the_data_start_play_their_own_setups"]),
    ("resume aliasing the snapshot's link costs", SCENARIO,
     "            node.neighbor_pathloss = dict(pathloss)\n",
     "            node.neighbor_pathloss = pathloss\n",
     ["tests/test_scenario.py::test_resumed_cell_plays_the_events_of_its_own_setup_run"]),
    ("the snapshot leaving out the advertised count", SCENARIO,
     "n.neighbor_counts, n.advertised_count) for n in self.nodes]",
     "n.neighbor_counts, None) for n in self.nodes]",
     ["tests/test_scenario.py::"
      "test_cells_apart_only_in_a_data_only_field_share_the_setup[scenario.protocol]"]),
    ("the utility game ignoring the policy's ladder scale", "src/gradcast/policies.py",
     "ladder_reward(node.ugrab.steps, params.ladder_scale, params.ladder_ratio)",
     "ladder_reward(node.ugrab.steps, 0.75, params.ladder_ratio)",
     ["tests/test_policies.py::test_the_ladder_reads_the_policy"]),
    ("the limit pass skipping the last pair's block", PHYS,
     "        for a in range(0, len(flat), _LIMIT_PAIRS):\n",
     "        for a in range(0, len(flat) - 1, _LIMIT_PAIRS):\n",
     ["tests/test_phys.py::"
      "test_the_limit_pass_block_size_leaves_every_default_reception_as_it_is"]),
    # at 0 dBm p - (p - pathloss) is the pathloss itself: only a test at
    # another default power tells the two apart
    ("the link table keeping the bare pathloss as the cost", PHYS,
     "        costs = link_cost(p, p - self.pathloss_db[senders, flat])\n",
     "        costs = self.pathloss_db[senders, flat]\n",
     ["tests/test_phys.py::test_reception_costs_are_link_cost_bit_for_bit"]),
    ("the link table skipping the near-pair clamp", PHYS,
     "        if (np.maximum(abs(dx), abs(dy)) < 2.0 * d_min).any():\n"
     "            d = np.maximum(np.fromiter(d, float, len(dx)), d_min).data\n",
     "",
     # the fixed coincident and close pairs first, as for grow above
     ["tests/test_phys.py::test_link_table_entries_equal_scalar_formulas",
      "tests/test_phys.py::test_link_table_is_the_scalar_formulas_bit_for_bit"]),
    ("the link table's audibility over the whole matrix", PHYS,
     "        np.greater(p0 - pl[a:b], params.sensitivity_dbm, out=audible[a:b])\n"
     "    np.fill_diagonal(audible, False)\n",
     "    audible = p0 - pl > params.sensitivity_dbm\n"
     "    np.fill_diagonal(audible, False)\n",
     ["tests/test_phys.py::test_link_table_makes_no_n_by_n_temporary"]),
    ("traffic with its x and y columns swapped", SCENARIO,
     "for x, y, t in block.tolist()]",
     "for y, x, t in block.tolist()]",
     ["tests/test_scenario.py::test_traffic_is_the_scalar_draws_bit_for_bit"]),
    ("multiprocessing back among the module imports", SCENARIO,
     "import math\nfrom array import array\n",
     "import math\nimport multiprocessing\nfrom array import array\n",
     ["tests/test_scenario.py::test_only_a_pooled_play_imports_multiprocessing"]),
]

# left out of each copy: version control, caches and run outputs
SKIP = shutil.ignore_patterns(".git", ".perfbench", ".hypothesis", ".pytest_cache",
                              ".benchmarks", "__pycache__", "*.egg-info", "out")


def _pytest(tree: Path, tests: list) -> int:
    """Run ``tests`` in ``tree`` against its own ``src``; pytest's exit code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy(scratch: str, name: str) -> Path:
    tree = Path(scratch) / name
    shutil.copytree(ROOT, tree, ignore=SKIP)
    return tree


def main() -> int:
    began = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tests = sorted({t for m in MUTANTS for t in m[4]})
        code = _pytest(_copy(scratch, "unmutated"), tests)
        print(f"unmutated copy: {'pass' if code == 0 else f'pytest exit {code}'}")
        if code != 0:
            return 1
        for k, (name, path, old, new, tests) in enumerate(MUTANTS):
            start = time.perf_counter()
            tree = _copy(scratch, f"m{k}")
            text = (tree / path).read_text()
            if text.count(old) != 1:
                verdict = f"old text found {text.count(old)} times in {path}"
            else:
                (tree / path).write_text(text.replace(old, new))
                code = _pytest(tree, tests)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            bad += verdict != "killed"
            print(f"{verdict:>9}  {time.perf_counter() - start:5.1f} s  {name}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - began:.1f} s wall")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
