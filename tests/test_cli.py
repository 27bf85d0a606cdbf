import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import neurovirt
from neurovirt import bench
from neurovirt.cli import _parse_int_list, main
from neurovirt.metrics import SAMPLE_CSV_HEADER
from neurovirt.scenario import MAX_SAMPLES

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
DEMO = SCENARIOS / "demo.json"


def test_parse_int_list_forms():
    assert _parse_int_list("1,2,4") == [1, 2, 4]
    assert _parse_int_list("1-4") == [1, 2, 3, 4]
    assert _parse_int_list("1-2,8") == [1, 2, 8]


def test_parse_int_list_rejects_a_descending_range():
    # it used to be dropped without a word, leaving only the 2
    with pytest.raises(ValueError, match="descending range '3-1'"):
        _parse_int_list("3-1,2")


@pytest.mark.parametrize("text, part", [("-1", "-1"), ("1,x", "x"), ("2-", "2-"),
                                        ("1-y,4", "1-y")])
def test_parse_int_list_names_the_part_it_cannot_read(text, part):
    with pytest.raises(ValueError, match=f"cannot read '{part}'"):
        _parse_int_list(text)


def test_unreadable_vm_count_exits_2_naming_it(capsys):
    # it used to say only: invalid literal for int() with base 10: ''
    assert main(["bench-reconfig", "--vm-counts=-1"]) == 2
    assert capsys.readouterr().err == "error: cannot read '-1' in '-1'\n"


def test_bench_energy_cli(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    assert main(["bench-energy", "--accelerators", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "accelerators,energy_mj,synaptic_ops"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 25.0


def test_bench_throughput_cli(tmp_path):
    out = tmp_path / "tp.csv"
    rc = main([
        "bench-throughput", "--vm-counts", "1", "--sizes", "4096,65536",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vm_count,transfer_bytes,measured_gibs,model_gibs"
    assert len(lines) == 3


def test_bench_reconfig_cli(tmp_path):
    out = tmp_path / "rc.csv"
    assert main(["bench-reconfig", "--vm-counts", "1-2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vm_count,full_ns,partial_ns"
    for line in lines[1:]:
        _, full_ns, partial_ns = line.split(",")
        assert int(partial_ns) < int(full_ns)
    # no benchmark reads a scenario or draws a random number that reaches
    # its CSV, so none takes a scenario or a seed
    for command in ("bench-reconfig", "bench-throughput", "bench-energy"):
        for flags in (["--scenario", "demo.json"], ["--seed", "3"]):
            with pytest.raises(SystemExit) as exited:
                main([command, *flags])
            assert exited.value.code == 2


def _scenario_file(tmp_path, seed=11, **overrides):
    scenario = {
        "schema_version": 1,
        "seed": seed,
        "duration_ns": 30_000_000,
        "sample_period_ns": 5_000_000,
        "vms": [
            {"id": "vmA", "share": 0.25, "cores": 2},
            {"id": "vmB", "share": 0.25, "cores": 2},
        ],
        "tasks": [
            {"id": "spike0", "steps": 20, "input_rate": 4, "fan_in": 32,
             "mode": "spiking"},
            {"id": "crunch", "steps": 50, "input_rate": 2, "fan_in": 16,
             "mode": "analytic", "arrival_ns": 100_000},
        ],
        "transfers": [{"vm": "vmB", "size_bytes": 262_144, "count": 5}],
        "reconfigs": [
            {"vm": "vmA", "module": "router", "mode": "partial", "at_ns": 2_000_000}
        ],
    }
    scenario.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def test_run_scenario_cli(tmp_path):
    path = _scenario_file(tmp_path)
    out = tmp_path / "metrics.csv"
    trace = tmp_path / "trace.csv"
    rc = main(["run", "--scenario", str(path), "--out", str(out),
               "--trace-out", str(trace)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SAMPLE_CSV_HEADER
    assert len(lines) == 7  # six samples over 30 ms at 5 ms period
    trace_lines = trace.read_text().splitlines()
    assert any("TransferComplete" in line for line in trace_lines)
    assert any("SpikeStep" in line for line in trace_lines)
    assert any("ReconfigDone" in line for line in trace_lines)
    assert any("TaskDone" in line for line in trace_lines)


def test_run_is_byte_deterministic(tmp_path):
    path = _scenario_file(tmp_path)
    outs = []
    traces = []
    for i in range(2):
        out = tmp_path / f"m{i}.csv"
        trace = tmp_path / f"t{i}.csv"
        assert main(["run", "--scenario", str(path), "--out", str(out),
                     "--trace-out", str(trace)]) == 0
        outs.append(out.read_bytes())
        traces.append(trace.read_bytes())
    assert outs[0] == outs[1]
    assert traces[0] == traces[1]


def test_run_seed_flag_overrides_the_scenario_seed(tmp_path, monkeypatch):
    seeds = []

    def fake_run(scenario):
        seeds.append(scenario.seed)
        return SimpleNamespace(metrics_csv="")

    monkeypatch.setattr(bench, "run_scenario", fake_run)
    path = str(_scenario_file(tmp_path, seed=11))
    out = str(tmp_path / "metrics.csv")
    for flags in ([], ["--seed", "0"], ["--seed", "5"]):
        assert main(["run", "--scenario", path, "--out", out, *flags]) == 0
    assert seeds == [11, 0, 5]


def test_parse_error_exit_code_and_message(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    rc = main(["run", "--scenario", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err


def test_validation_error_exit_code_and_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    rc = main(["run", "--scenario", str(bad)])
    assert rc == 2
    assert "$.seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # the energy fabric holds 32 one-core accelerators, 5% slots hold 20 VMs
    (["bench-energy", "--accelerators", "33"],
     "error: accelerator count 33 does not fit: the fabric holds 32"),
    (["bench-reconfig", "--vm-counts", "21"],
     "error: vm count 21 does not fit: the fabric holds 20"),
    (["run", "--scenario", "{tmp}/missing.json"],
     "error: [Errno 2] No such file or directory: '{tmp}/missing.json'"),
    (["run", "--scenario", "{tmp}"], "error: [Errno 21] Is a directory: '{tmp}'"),
    (["bench-reconfig", "--vm-counts", "1", "--out", "{tmp}/missing/rc.csv"],
     "error: [Errno 2] No such file or directory: '{tmp}/missing/rc.csv'"),
    # a bad trace path fails before the run, not after the metrics are written
    (["run", "--scenario", str(DEMO), "--out", "{tmp}/m.csv",
      "--trace-out", "{tmp}/missing/t.csv"],
     "error: [Errno 2] No such file or directory: '{tmp}/missing/t.csv'"),
    # two handles on one file would interleave the metrics and the trace
    (["run", "--scenario", str(DEMO), "--out", "{tmp}/o.csv", "--trace-out", "{tmp}/o.csv"],
     "error: --out and --trace-out are the same file: {tmp}/o.csv"),
    # these used to run: a header-only CSV, and only the rows for 2 VMs
    (["bench-throughput", "--sizes", ",", "--out", "{tmp}/tp.csv"], "error: no sizes in ','"),
    (["bench-reconfig", "--vm-counts", "3-1,2", "--out", "{tmp}/rc.csv"],
     "error: descending range '3-1' in '3-1,2'"),
    # this one used to say only: invalid literal for int() with base 10: 'x'
    (["bench-throughput", "--sizes", "4096, x", "--out", "{tmp}/tp.csv"],
     "error: cannot read 'x' in '4096, x'"),
    # these used to name the stream on vm0, not the size
    (["bench-throughput", "--sizes", "4096,0", "--out", "{tmp}/tp.csv"],
     "error: transfer size 0 below 1 byte"),
    (["bench-throughput", "--sizes", "-5", "--out", "{tmp}/tp.csv"],
     "error: transfer size -5 below 1 byte"),
    # these used to word one check three ways, one naming the link model
    (["bench-throughput", "--vm-counts", "0", "--out", "{tmp}/tp.csv"],
     "error: vm count 0 below 1"),
    (["bench-reconfig", "--vm-counts", "0-2", "--out", "{tmp}/rc.csv"],
     "error: vm count 0 below 1"),
    (["bench-energy", "--accelerators", "0", "--out", "{tmp}/en.csv"],
     "error: accelerator count 0 below 1"),
    # these used to run and write over the scenario
    (["run", "--scenario", "{scn}", "--out", "{scn}"], "error: --out is the scenario file: {scn}"),
    (["run", "--scenario", "{scn}", "--out", "{tmp}/m.csv", "--trace-out", "{scn}"],
     "error: --trace-out is the scenario file: {scn}"),
    # these used to run: a hard link has its own path but is the same file
    (["run", "--scenario", "{scn}", "--out", "{hard}"], "error: --out is the scenario file: {hard}"),
    (["run", "--scenario", "{scn}", "--out", "{tmp}/lnk.csv",
      "--trace-out", "{tmp}/lnk-hard.csv"],
     "error: --out and --trace-out are the same file: {tmp}/lnk.csv"),
], ids=["energy-fabric-full", "reconfig-slots-full", "no-scenario", "scenario-is-dir",
        "no-out-dir", "no-trace-dir", "same-out-and-trace", "no-sizes", "descending-range",
        "unreadable-size", "zero-size", "negative-size",
        "zero-vm-count", "zero-reconfig-vm-count", "zero-accelerators",
        "out-is-scenario", "trace-out-is-scenario",
        "out-is-a-hard-link-to-scenario", "trace-out-is-a-hard-link-to-out"])
def test_unrunnable_request_exits_2_with_one_error_line(
    tmp_path, tmp_path_factory, capsys, argv, message
):
    tmp = str(tmp_path)
    # the input scenario lives outside tmp_path, which must hold no output afterwards
    scn = _scenario_file(tmp_path_factory.mktemp("in"))
    scn_bytes = scn.read_bytes()
    # hard links: a second name for the scenario, and two names for one
    # empty output, which only the hard-link cases name (same-out-and-trace
    # checks two names for an output that does not exist yet)
    hard = scn.with_name("hard.json")
    os.link(scn, hard)
    (tmp_path / "lnk.csv").touch()
    os.link(tmp_path / "lnk.csv", tmp_path / "lnk-hard.csv")
    assert main([arg.format(tmp=tmp, scn=scn, hard=hard) for arg in argv]) == 2
    assert capsys.readouterr().err == message.format(tmp=tmp, scn=scn, hard=hard) + "\n"
    # nothing that looks like output is left behind, and no input is written over
    assert [p for p in tmp_path.rglob("*") if p.is_file() and p.stat().st_size] == []
    assert scn.read_bytes() == scn_bytes


def _src_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(neurovirt.__file__).resolve().parents[1]))


# runs each argv through cli.main in one fresh interpreter and prints, after
# each call, its exit code and whether numpy has been loaded so far; then,
# given a scenario, runs it through the API and prints whether numpy was
# loaded before and after its output spikes were read, and how many there are
_COLD_START = """
import json, sys
from neurovirt.bench import run_scenario
from neurovirt.cli import main
from neurovirt.scenario import load_scenario
argvs, read = json.loads(sys.argv[1]), sys.argv[2:]
found = [(main(argv), "numpy" in sys.modules) for argv in argvs]
for path in read:
    executor = run_scenario(load_scenario(path)).executor
    found.append(("numpy" in sys.modules, executor.output_spikes, "numpy" in sys.modules))
print(json.dumps(found))
"""


@pytest.mark.parametrize("calls, read, loaded", [
    # no spiking task: numpy is never imported
    ([(["bench-throughput"], {"--out": "cde039feb154267a"}),
      (["bench-reconfig"], {"--out": "1de81251a68a1e4a"}),
      (["run", "--scenario", str(SCENARIOS / "churn.json")],
       {"--out": "df8204a4aafa6558", "--trace-out": "98585428bbd5a2bd"})],
     [], [[0, False], [0, False], [0, False]]),
    # spiking tasks run the LIF kernel only when their spikes are read,
    # and no CLI output reads them: the first read imports numpy
    ([(["bench-energy"], {"--out": "126cd6693b475716"}),
      (["run", "--scenario", str(DEMO)],
       {"--out": "b0129dec3e98bfcb", "--trace-out": "69614e605ac85bde"}),
      # migrations and stalls: the replay must follow moved tasks
      (["run", "--scenario", str(SCENARIOS / "stall.json")],
       {"--out": "242fd920a5a84457", "--trace-out": "33e8390e96f22665"})],
     [str(DEMO), str(SCENARIOS / "stall.json")],
     [[0, False], [0, False], [0, False], [False, 378, True], [True, 88431, True]]),
], ids=["non-spiking", "spiking"])
def test_cold_start_loads_numpy_only_for_spiking_runs(tmp_path, calls, read, loaded):
    # pytest's own process holds numpy already, so only a fresh interpreter
    # shows what a CLI call imports, and runs every lazy import from cold
    argvs, outputs = [], []
    for i, (argv, pins) in enumerate(calls):
        for flag, digest in pins.items():
            path = tmp_path / f"{i}{flag}.csv"
            argv = argv + [flag, str(path)]
            outputs.append((path, digest))
        argvs.append(argv)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(argvs), *read],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == loaded
    for path, digest in outputs:
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest, path.name


# notes the modules a bare interpreter holds, then loads the demo scenario
# and runs each argv through cli.main; prints the exit codes and which of
# the class generator and its inspect dependency were loaded since
_NO_CLASS_GENERATOR = """
import sys
held = set(sys.modules)
import neurovirt.cli
from neurovirt.scenario import load_scenario
import json
load_scenario(sys.argv[1])
codes = [neurovirt.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, sorted({"dataclasses", "inspect"} & set(sys.modules) - held)]))
"""


def test_cold_start_loads_no_class_generator(tmp_path):
    # importing dataclasses pulled in inspect, ast, dis and tokenize, and
    # making the package's classes with it cost more than most CLI runs
    argvs = [["bench-throughput"], ["bench-reconfig"],
             ["run", "--scenario", str(SCENARIOS / "churn.json")]]
    argvs = [argv + ["--out", str(tmp_path / f"{i}.csv")] for i, argv in enumerate(argvs)]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_CLASS_GENERATOR, str(DEMO), json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0], []]
    # site's start-up may load typing itself, so -S shows what the package
    # loads; typing cost ~5 ms of a ~64 ms import when it did
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, neurovirt.cli; print('typing' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


_BAD_ID = "must be non-empty, without whitespace, ',', ';' or '='"


@pytest.mark.parametrize("override, message", [
    ({"scheduler": {"tick_period_ns": 0}}, "$.scheduler.tick_period_ns: must be positive"),
    ({"scheduler": {"core_rate": 0}}, "$.scheduler.core_rate: must be positive"),
    ({"reconfig": {"config_port_bw": 0}}, "$.reconfig.config_port_bw: must be positive"),
    ({"scheduler": {"migration_penalty_ns": -5}},
     "$.scheduler.migration_penalty_ns: must be non-negative"),
    ({"sample_period_ns": 0}, "$.sample_period_ns: must be positive"),
    ({"link": {"ring_capacity": 0}}, "$.link.ring_capacity: must be positive"),
    ({"vms": [{"id": "vmA", "share": 0.25, "cores": 0}, {"id": "vmB", "share": 0.25}]},
     "$.vms[0].cores: must be positive"),
    ({"vms": [{"id": "vmA", "share": 1e-9}, {"id": "vmB", "share": 0.25}]},
     "$.vms[0]: allocation request must be positive in some class"),
    # the fabric's lut runs out at the third VM
    ({"vms": [{"id": "vmA", "share": 0.25}, {"id": "vmB", "share": 0.5},
              {"id": "vmC", "share": 0.5}]},
     "$.vms[2]: insufficient lut: requested 252000, available 126000"),
    ({"modules": [{"id": "big", "kind": "router", "share": 0.5}],
      "reconfigs": [{"vm": "vmA", "module": "big", "at_ns": 2_000_000}]},
     "$.reconfigs[0].module: big does not fit vmA's slot"),
    # misspelt keys at the top level, in a section and in a list item
    ({"duraton_ns": 30_000_000}, "$.duraton_ns: unknown field"),
    ({"scheduler": {"tick_perod_ns": 100_000}}, "$.scheduler.tick_perod_ns: unknown field"),
    ({"tasks": [{"id": "t", "stpes": 20, "input_rate": 4, "fan_in": 32}]},
     "$.tasks[0].stpes: unknown field"),
    ({"transfers": [{"vm": "vmB", "size_bytes": 4096, "start_ns": -5}]},
     "$.transfers[0].start_ns: must be non-negative"),
    ({"reconfigs": [{"vm": "vmA", "module": "router", "at_ns": -5}]},
     "$.reconfigs[0].at_ns: must be non-negative"),
    ({"reconfig": {"partial_setup_overhead_ns": -1_000_000_000}},
     "$.reconfig.partial_setup_overhead_ns: must be non-negative"),
    ({"energy": {"dyn_nj_per_synop": -1.0}}, "$.energy.dyn_nj_per_synop: must be non-negative"),
    ({"vms": [], "transfers": [], "reconfigs": []}, "$.tasks: no vm to run them on"),
    # numbers too large for a float, and one that is not finite
    ({"energy": {"dyn_nj_per_synop": 10**400}},
     "$.energy.dyn_nj_per_synop: must be below 2**63 in magnitude"),
    ({"fabric": {"total": {"lut": 10**400, "memory_bytes": 38_000_000, "io_pins": 464,
                           "dsp": 1728}}},
     "$.fabric.total.lut: must be below 2**63 in magnitude"),
    ({"energy": {"dyn_nj_per_synop": float("inf")}}, "$.energy.dyn_nj_per_synop: must be finite"),
    # keys that no model would read are not in the schema
    ({"vms": [{"id": "vmA", "share": 0.25, "priority": "realtime"},
              {"id": "vmB", "share": 0.25}]},
     "$.vms[0].priority: unknown field"),
    ({"fabric": {"core_footprint": {"lut": 1}}}, "$.fabric.core_footprint: unknown field"),
    ({"energy": {"base_mj": 25.0}}, "$.energy.base_mj: unknown field"),
    # an id is written into trace lines, so it must not forge one or break a detail
    ({"tasks": [{"id": "t,0\n9,9,Fake,", "steps": 20, "input_rate": 4, "fan_in": 32}]},
     f"$.tasks[0].id: {_BAD_ID}"),
    ({"vms": [{"id": "vm\nA;x=1", "share": 0.25}, {"id": "vmB", "share": 0.25}]},
     f"$.vms[0].id: {_BAD_ID}"),
    ({"vms": [{"id": "vmA", "share": 0.25}, {"id": "", "share": 0.25}]},
     f"$.vms[1].id: {_BAD_ID}"),
    ({"modules": [{"id": "lif 0", "kind": "lif_core", "share": 0.04}]},
     f"$.modules[0].id: {_BAD_ID}"),
    ({"fabric": {"total": {"lut": 504_000, "memory_bytes": 38_000_000, "io_pins": 464}}},
     "$.fabric: total must be positive in every class"),
    # the link's peak table is a model constant, not a key
    ({"link": {"peak_gibps": {"1": 1.5}}}, "$.link.peak_gibps: unknown field"),
    # a run schedules every sample before it starts: 2**62 ns used to hang
    ({"duration_ns": 2**62}, f"$.duration_ns: must be at most {MAX_SAMPLES} sample periods"),
    ({"sample_period_ns": 1}, f"$.duration_ns: must be at most {MAX_SAMPLES} sample periods"),
    ({"duration_ns": (MAX_SAMPLES + 1) * 5_000_000},
     f"$.duration_ns: must be at most {MAX_SAMPLES} sample periods"),
    # a module row is sized by its share and labelled by its kind
    ({"modules": [{"id": "m", "share": 0.04}]}, "$.modules[0].kind: missing required field"),
    ({"modules": [{"id": "m", "kind": "lif", "share": 0.04}]},
     "$.modules[0].kind: unknown value 'lif'; expected one of ['lif_core', 'router', 'pooling']"),
    ({"modules": [{"id": "m", "kind": "router"}]}, "$.modules[0].share: missing required field"),
    ({"vms": [{"id": "vmA", "cores": 2}, {"id": "vmB", "share": 0.25}]},
     "$.vms[0].share: missing required field"),
    # a share is the one way to size a VM or a module
    ({"vms": [{"id": "vmA", "resources": {"lut": 5}}, {"id": "vmB", "share": 0.25}]},
     "$.vms[0].resources: unknown field"),
    ({"modules": [{"id": "m", "kind": "router", "footprint": {"lut": 5}}]},
     "$.modules[0].footprint: unknown field"),
    # these used to load and then do nothing: the run ends at duration_ns
    ({"tasks": [{"id": "t", "steps": 20, "input_rate": 4, "fan_in": 32,
                 "arrival_ns": 30_000_001}]},
     "$.tasks[0].arrival_ns: must be at most duration_ns"),
    ({"transfers": [{"vm": "vmB", "size_bytes": 4096, "start_ns": 30_000_001}]},
     "$.transfers[0].start_ns: must be at most duration_ns"),
    ({"reconfigs": [{"vm": "vmA", "module": "router", "at_ns": 30_000_001}]},
     "$.reconfigs[0].at_ns: must be at most duration_ns"),
])
def test_degenerate_field_exits_2_naming_it(tmp_path, override, message):
    path = _scenario_file(tmp_path, **override)
    # a subprocess with a timeout, because a zero tick period used to hang
    proc = subprocess.run(
        [sys.executable, "-m", "neurovirt.cli", "run", "--scenario", str(path)],
        capture_output=True, text=True, timeout=60, env=_src_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr.strip() == message


def test_stalled_late_task_does_not_crash_the_run(tmp_path):
    # a full reconfiguration postpones a running task's TaskDone past the
    # finish the scheduler recorded, so a later rebalance sees a late task
    # whose recorded finish is already in the past
    path = _scenario_file(
        tmp_path, seed=3, duration_ns=60_000_000, sample_period_ns=3_000_000,
        fabric={"bitstream_total_bytes": 2_097_152},
        scheduler={"migration_penalty_ns": 50_000},
        vms=[
            {"id": "vm1", "share": 0.06, "cores": 1},
            {"id": "vm2", "share": 0.06, "cores": 4},
            {"id": "vm3", "share": 0.06, "cores": 2},
        ],
        tasks=[
            {"id": "t03", "mode": "spiking", "steps": 41, "input_rate": 6, "fan_in": 512,
             "data_size": 4096, "arrival_ns": 2_540_068, "deadline_ns": 3_012_020},
            {"id": "t17", "steps": 67, "input_rate": 6, "fan_in": 512, "data_size": 4096,
             "arrival_ns": 2_075_691, "deadline_ns": 2_980_377},
            {"id": "t20", "steps": 108, "input_rate": 6, "fan_in": 1024, "data_size": 4096,
             "arrival_ns": 1_471_825},
            {"id": "t25", "steps": 155, "input_rate": 6, "fan_in": 1024, "data_size": 4096,
             "arrival_ns": 2_272_331, "deadline_ns": 3_069_083},
        ],
        transfers=[],
        reconfigs=[
            {"vm": "vm2", "module": "pooling", "mode": "full", "at_ns": 2_300_000},
            {"vm": "vm2", "module": "pooling", "mode": "full", "at_ns": 7_700_000},
        ],
    )
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "m.csv")]) == 0
