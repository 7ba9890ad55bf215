import csv

import pytest

from gradcast import cli, scenario

FAST = [
    "--set", "scenario.node_count=30",
    "--set", "scenario.area_width_m=120",
    "--set", "scenario.area_height_m=120",
    "--set", "scenario.event_count=5",
    "--set", "scenario.event_spread=2",
    "--set", "scenario.data_window_ms=4000",
    "--set", "scenario.max_sim_time_ms=12000",
    # the dump commands take no --seeds: they play one replication
    "--set", "scenario.replications=1",
]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_writes_csvs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run", "--out", str(out), "--set", "protocol=BGB"] + FAST)
    assert rc == 0
    runs = read_csv(out / "runs.csv")
    assert runs[0][:4] == ["run", "protocol", "p_f", "param"]
    assert len(runs) == 2 and runs[1][1] == "BGB"
    agg = read_csv(out / "aggregate.csv")
    assert len(agg) == 2
    assert "BGB" in capsys.readouterr().out


def test_missing_config_exits_2_without_partial_output(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "nope.cfg" in capsys.readouterr().err


def test_bad_override_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "--out", str(tmp_path / "o"), "--set", "scenario.bogus=1"])
    assert rc == 2
    assert "scenario.bogus" in capsys.readouterr().err


def test_config_file_and_override_flow(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("[scenario]\nprotocol = GRAB\np_f = 0.4\n")
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                   "--set", "scenario.p_f=0.8"] + FAST)
    assert rc == 0
    rows = read_csv(out / "runs.csv")
    assert rows[1][1] == "GRAB" and rows[1][2] == "0.8"


def test_determinism_byte_identical_outputs(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", "--out", str(out), "--set", "protocol=U-GRAB"] + FAST) == 0
        outs.append((out / "runs.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_cross_product_cells(tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--out", str(out),
                   "--axis", "scenario.protocol=BGB,GRAB,P-GRAB,U-GRAB,UP-GRAB",
                   "--axis", "scenario.p_f=0,0.4,0.8"] + FAST)
    assert rc == 0
    agg = read_csv(out / "aggregate.csv")
    assert len(agg) == 16   # header + 15 cells
    protocols = {row[0] for row in agg[1:]}
    assert protocols == {"BGB", "GRAB", "P-GRAB", "U-GRAB", "UP-GRAB"}


def test_single_value_sweep_matches_run(tmp_path):
    a = tmp_path / "run"
    b = tmp_path / "sweep"
    assert cli.main(["run", "--out", str(a), "--set", "protocol=BGB"] + FAST) == 0
    assert cli.main(["sweep", "--out", str(b), "--axis", "scenario.protocol=BGB"] + FAST) == 0
    assert (a / "runs.csv").read_bytes() == (b / "runs.csv").read_bytes()


def test_sweep_empty_axis_is_an_error(tmp_path, capsys):
    rc = cli.main(["sweep", "--out", str(tmp_path / "s"), "--axis", "scenario.p_f="])
    assert rc == 2


def test_report_prints_table_and_long_csv(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out),
                     "--axis", "scenario.protocol=BGB,GRAB"] + FAST) == 0
    capsys.readouterr()
    rc = cli.main(["report", str(out / "aggregate.csv"), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "success_ratio" in text and "BGB" in text
    long_rows = read_csv(out / "long.csv")
    assert long_rows[0] == ["cell", "metric", "mean", "std", "n"]
    first = (out / "long.csv").read_bytes()
    assert cli.main(["report", str(out / "aggregate.csv"), "--out", str(out)]) == 0
    assert (out / "long.csv").read_bytes() == first   # idempotent


def test_report_on_header_only_aggregate(tmp_path, capsys):
    agg = tmp_path / "aggregate.csv"
    from gradcast.metrics import aggregate_columns
    agg.write_text(",".join(aggregate_columns()) + "\n")
    rc = cli.main(["report", str(agg), "--out", str(tmp_path)])
    assert rc == 0
    assert read_csv(tmp_path / "long.csv") == [["cell", "metric", "mean", "std", "n"]]


def test_report_malformed_csv_is_runtime_fault(tmp_path, capsys):
    bad = tmp_path / "agg.csv"
    bad.write_text("protocol,p_f\nBGB\n")
    rc = cli.main(["report", str(bad), "--out", str(tmp_path)])
    assert rc == 3


def test_dump_topology(tmp_path, capsys):
    for protocol in ("P-GRAB", "UP-GRAB"):
        out = tmp_path / protocol
        rc = cli.main(["dump-topology", "--out", str(out),
                       "--set", f"protocol={protocol}"] + FAST)
        assert rc == 0
        rows = read_csv(out / "topology.csv")
        assert rows[0] == ["node", "x", "y", "Q", "N_i", "delta"]
        assert len(rows) == 32   # header + 30 sensors + sink
        # the sink is the last row; every sensor has a discrepancy
        assert all(row[5] != "" for row in rows[1:-1])


@pytest.mark.parametrize("mode", ["computed", "fixed"])
def test_dump_topology_gives_unreached_sensors_a_delta(tmp_path, capsys, mode):
    """In a sparse arena most sensors never hear the flood, so they hold
    no bounds and never decide; every sensor still gets its discrepancy,
    which reads no bounds."""
    out = tmp_path / mode
    sparse = [arg.replace("=120", "=300") for arg in FAST]
    rc = cli.main(["dump-topology", "--out", str(out), "--set", "protocol=P-GRAB",
                   "--set", f"costfield.bounds_mode={mode}"] + sparse)
    assert rc == 0
    sensors = read_csv(out / "topology.csv")[1:-1]
    assert len(sensors) == 30
    reached = [row[3] != "inf" for row in sensors]
    assert any(reached) and not all(reached)
    assert all(row[5] != "" for row in sensors)


def test_dump_trace(tmp_path, capsys):
    out = tmp_path / "trace"
    rc = cli.main(["dump-trace", "--out", str(out), "--set", "protocol=U-GRAB"] + FAST)
    assert rc == 0
    trace = read_csv(out / "trace.csv")
    assert trace[0] == ["time", "seq", "kind", "node", "detail"]
    assert len(trace) > 10
    decisions = read_csv(out / "decisions.csv")
    assert decisions[0] == ["time", "node", "policy", "eligible", "action",
                            "p_fw", "c_n", "alpha_n", "r_n"]


def test_cell_without_traffic_prints_dashes(tmp_path, capsys):
    """A cell that sends no message has no success ratio and no delay: its
    table row shows a dash for each."""
    rc = cli.main(["run", "--out", str(tmp_path / "out")] + FAST
                  + ["--set", "scenario.event_count=0", "--set", "scenario.event_spread=0"])
    assert rc == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[3:5] == ["success", "delay_ms"]
    assert row.split()[2:4] == ["-", "-"]   # the param column is empty


def test_seeds_must_be_positive(tmp_path):
    rc = cli.main(["run", "--out", str(tmp_path / "o"), "--seeds", "0"])
    assert rc == 2


@pytest.mark.parametrize("command", ["dump-topology", "dump-trace"])
@pytest.mark.parametrize("flag", ["--seeds", "--jobs"])
def test_dump_commands_reject_the_replication_flags(tmp_path, capsys, command, flag):
    """A dump plays one replication in this process: it has no --seeds or
    --jobs to ignore, and naming one is a usage error, exit code 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, flag", [
    (["dump-trace", "--run-index", "-1"], "--run-index"),
    (["dump-topology", "--run-index", "-3"], "--run-index"),
    (["run", "--jobs", "0"], "--jobs"),
    (["sweep", "--jobs", "-2", "--axis", "scenario.protocol=BGB"], "--jobs"),
    # each played one value of two and exited 0
    (["sweep", "--axis", "scenario.p_f=0", "--axis", "scenario.p_f=0.4"], "scenario.p_f"),
    (["sweep", "--axis", "p_f=0,0.8", "--axis", "scenario.p_f=0.4"], "scenario.p_f"),
    (["sweep", "--axis", "scenario.p_f="], "scenario.p_f"),
    (["run", "--set", "foo"], "'foo'"),
    (["sweep", "--axis", "foo"], "'foo'"),
    (["run", "--set", "nosuch.key=1"], "nosuch"),
    (["run", "--set", "metrics.energy_audit=maybe"], "metrics.energy_audit: 'maybe'"),
    (["run", "--config", "bad.cfg"], "bad.cfg:2: expected key = value, got 'protocol GRAB'"),
])
def test_bad_flag_value_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("[scenario]\nprotocol GRAB\n")
    out = tmp_path / "out"
    rc = cli.main(argv + ["--out", str(out)] + FAST)
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [
    "phys.tx_power_dbm=nan",        # ran to a silent 0% success
    "phys.alpha_exp=nan",           # ran to a silent 0% success
    "policies.initial_energy_j=0",  # crashed mid-run on a division by zero
    "scenario.area_width_m=-5",     # crashed in the topology sampler
    "scenario.data_start_ms=30000",  # ran to no message and a blank success ratio
    "scenario.data_window_ms=30000",  # most injections fell after the end of the run
    # nodes fixed their discrepancy from a count stage still under way
    "scenario.protocol=P-GRAB costfield.ncnt_start_ms=5400",
    # each crashed mid-run on an OverflowError in a mW conversion
    "phys.sinr_threshold_db=4000",
    "phys.tx_power_dbm=4000",
    "phys.d_min_m=1e-300",
    "phys.alpha_exp=1000",
    # each passed validation, then exited 3 on an OverflowError in an airtime
    f"phys.data_bytes={'9' * 400}",
    f"phys.adv_bytes={'9' * 400}",
    # ran with every airtime inf: nothing left the air and nothing arrived
    "phys.bitrate_bps=1e-310",
    # ran with packets that ended as they started, late in the run
    "phys.bitrate_bps=1e20",
    # exited 3 on a MemoryError allocating 224 GiB of traffic doubles
    "scenario.node_count=10 scenario.event_count=10000000000",
])
def test_bad_value_exits_2_naming_the_key(tmp_path, capsys, override):
    """``override`` is one or more overrides; the last one's key is named."""
    out = tmp_path / "out"
    sets = [arg for pair in override.split() for arg in ("--set", pair)]
    rc = cli.main(["run", "--out", str(out)] + FAST + sets)
    assert rc == 2
    assert not out.exists()
    assert override.split()[-1].split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    # about 8e12 stall checks in 4e10 sweeps: the run would never end
    (["scenario.protocol=U-GRAB", "policies.stall_check_factor=1e-9"],
     "policies.stall_check_factor"),
    # exited 3 after 1,000 samples: no two nodes can link
    (["scenario.node_count=2", "phys.sensitivity_dbm=50", "scenario.require_connected=true"],
     "scenario.require_connected"),
])
def test_config_that_cannot_end_exits_2_before_the_run(tmp_path, capsys, monkeypatch,
                                                         overrides, key):
    def started(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(scenario, "sweep", started)
    out = tmp_path / "out"
    sets = [arg for pair in overrides for arg in ("--set", pair)]
    rc = cli.main(["run", "--config", "configs/desk.cfg", "--out", str(out)] + sets)
    assert rc == 2
    assert not out.exists()
    assert key in capsys.readouterr().err


def test_exhausted_topology_search_exits_2(tmp_path, capsys):
    # two sensors in a 1,000 km square: the radio links pairs, but no
    # sample puts both within its 66 m range of the sink
    rc = cli.main(["run", "--out", str(tmp_path / "out"), "--set", "scenario.node_count=2",
                   "--set", "scenario.area_width_m=1e6", "--set", "scenario.area_height_m=1e6",
                   "--set", "scenario.require_connected=true"] + FAST[-2:])
    assert rc == 2
    assert "scenario.require_connected" in capsys.readouterr().err
