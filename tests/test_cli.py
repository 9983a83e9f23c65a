import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quditkit.basis import cached_tensors
from quditkit.cli import _WERNER_ROW_BYTES, _random_state_bytes, build_parser, main
from quditkit.bipartite import werner_positivity_scan, werner_scan_csv
from quditkit.qutrit import boundaries_to_csv, region_scan, region_to_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_basis_command_schema(capsys):
    code, out, _ = run_cli(capsys, "basis", "--N", "2")
    assert code == 0
    data = json.loads(out)
    assert data["header"] == {"N": 2, "tolerance": 1e-9, "ordering": "sym-antisym-diag"}
    assert len(data["generators"]) == 3
    sx = data["generators"][0]
    assert sx["re"] == [[0.0, 1.0], [1.0, 0.0]]
    assert sx["im"] == [[0.0, 0.0], [0.0, 0.0]]


def test_tensors_command_n2_has_no_d(capsys):
    code, out, _ = run_cli(capsys, "tensors", "--N", "2")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == []
    values = {(r["a"], r["b"], r["c"]): r["value"] for r in data["f"]}
    assert values[(0, 1, 2)] == 1.0


def test_check_maximally_mixed_qutrit(capsys, tmp_path):
    path = write_state(tmp_path, "mixed.json", {"N": 3, "bloch": [0.0] * 8})
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    data = json.loads(out)
    assert data["physical"] is True
    assert abs(data["entropy"] - np.log(3.0)) < 1e-12
    assert abs(data["invariants"]["p2"]) < 1e-15
    assert abs(data["purity"]["r_norm"] + 3.0) < 1e-12
    assert data["report"]["psd"] is True


def test_check_invalid_input_exits_one(capsys, tmp_path):
    path = write_state(tmp_path, "bad.json", {"N": 3})
    code, out, err = run_cli(capsys, "check", path)
    assert code == 1
    assert json.loads(err)["command"] == "check"


def test_check_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/state.json")
    assert code == 1
    assert "error" in json.loads(err)


def test_entropy_unphysical_exits_two(capsys, tmp_path):
    bloch = [0.0] * 8
    bloch[6] = 3.0
    path = write_state(tmp_path, "unphys.json", {"N": 3, "bloch": bloch})
    code, _, err = run_cli(capsys, "entropy", path)
    assert code == 2
    assert "error" in json.loads(err)


def test_entropy_pure_state(capsys, tmp_path):
    bloch = [0.0] * 8
    bloch[6] = 1.5
    bloch[7] = np.sqrt(3.0) / 2.0
    path = write_state(tmp_path, "pure.json", {"N": 3, "bloch": bloch})
    code, out, _ = run_cli(capsys, "entropy", path)
    assert code == 0
    assert abs(json.loads(out)["entropy"]) < 1e-9


def test_qutrit_region_csv(capsys):
    code, out, _ = run_cli(capsys, "qutrit-region", "--resolution", "12")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "P,Q,admissible,fail_mask"
    assert len(lines) == 1 + 12 * 12
    last = lines[-1].split(",")  # the pure corner
    assert (float(last[0]), float(last[1])) == (np.sqrt(3.0), 3.0)
    assert last[2] == "1"


def test_qutrit_region_output_files(tmp_path, capsys):
    out_path = tmp_path / "region.csv"
    code, _, _ = run_cli(
        capsys, "qutrit-region", "--resolution", "8", "--output", str(out_path)
    )
    assert code == 0
    assert out_path.exists()
    boundary = tmp_path / "region_boundaries.csv"
    assert boundary.exists()
    assert boundary.read_text().startswith("condition,P,Q")


def test_qutrit_region_streams_the_same_bytes(tmp_path, capsys):
    grid = region_scan(256)
    expected = region_to_csv(grid)
    out_path = tmp_path / "region.csv"
    code, out, _ = run_cli(
        capsys, "qutrit-region", "--resolution", "256", "--output", str(out_path)
    )
    assert code == 0 and out == ""
    assert out_path.read_bytes() == expected.encode()
    assert (tmp_path / "region_boundaries.csv").read_bytes() == boundaries_to_csv(grid).encode()
    code, out, _ = run_cli(capsys, "qutrit-region", "--resolution", "256")
    assert code == 0 and out == expected


def test_werner_json_report(capsys):
    code, out, _ = run_cli(capsys, "werner", "--N", "3", "--steps", "11")
    assert code == 0
    data = json.loads(out)
    cons = data["consistency"]
    assert cons["alpha_norm_magnitude"] == 1.5
    assert cons["alpha_omega"] == -5.25
    assert cons["consistent"] is False
    assert len(data["scan"]) == 11


def test_werner_csv_scan(capsys):
    code, out, _ = run_cli(
        capsys, "werner", "--N", "2", "--alpha-min", "-1", "--alpha-max", "1",
        "--steps", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,alpha,e2,e3,min_eigenvalue,psd,purity_residual"
    assert len(lines) == 4
    singlet_row = lines[1].split(",")
    assert float(singlet_row[1]) == -1.0
    assert singlet_row[5] == "1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--alpha-min", "nan", "--steps", "3", "--format", "csv"), "alpha bounds must be finite"),
        (("--alpha-max", "inf", "--steps", "3", "--format", "csv"), "alpha bounds must be finite"),
        (("--alpha-max=1e200", "--format", "csv"), "not finite"),
        (("--alpha-max=1e200",), "not finite"),
    ],
    ids=["nan-min-csv", "inf-max-csv", "overflow-csv", "overflow-json"],
)
def test_werner_non_finite_scan_exits_one(capsys, argv, message):
    code, out, err = run_cli(capsys, "werner", "--N", "3", *argv)
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["command"] == "werner" and message in error["error"]


def test_convert_round_trip(capsys, tmp_path):
    payload = {
        "N": 2,
        "x": [0.0, 0.0, 0.0],
        "y": [0.0, 0.0, 0.0],
        "omega": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
    }
    path = write_state(tmp_path, "singlet.json", payload)
    code, out, _ = run_cli(capsys, "convert", path)
    assert code == 0
    data = json.loads(out)
    P = np.array(data["bloch"])
    assert abs(P @ P - 6.0) < 1e-12
    assert data["roundtrip_residual"] < 1e-12


def test_convert_rejects_qutrit_pair(capsys, tmp_path):
    payload = {
        "N": 3,
        "x": [0.0] * 8,
        "y": [0.0] * 8,
        "omega": np.zeros((8, 8)).tolist(),
    }
    path = write_state(tmp_path, "pair3.json", payload)
    code, _, err = run_cli(capsys, "convert", path)
    assert code == 1
    assert "N = 2" in json.loads(err)["error"]


def test_verify_su4(capsys):
    code, out, _ = run_cli(capsys, "verify-su4")
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert len(data["identities"]) == 15
    assert max(r["max_deviation"] for r in data["identities"]) < 1e-15


def test_random_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "random", "--N", "3", "--count", "4", "--seed", "7",
            "--output", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    states = json.loads(a.read_text())["states"]
    assert len(states) == 4
    for s in states:
        assert s["N"] == 3 and len(s["bloch"]) == 8 and s["physical"] is True


def test_random_different_seed_differs(tmp_path, capsys):
    outs = []
    for seed in ("1", "2"):
        code, out, _ = run_cli(capsys, "random", "--N", "2", "--seed", seed)
        assert code == 0
        outs.append(out)
    assert outs[0] != outs[1]


def test_invalid_dimension_exits_one(capsys):
    code, _, err = run_cli(capsys, "basis", "--N", "1")
    assert code == 1
    assert "error" in json.loads(err)


def test_invalid_tolerance_exits_one(capsys):
    code, _, err = run_cli(capsys, "werner", "--N", "2", "--tolerance", "-1")
    assert code == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "bloch",
    [
        [float("nan")] * 8,
        [0.0, 0.0, float("inf"), 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0],
    ],
    ids=["nan", "inf", "1e308"],
)
def test_check_refuses_out_of_range_bloch(capsys, tmp_path, bloch):
    path = write_state(tmp_path, "state.json", {"N": 3, "bloch": bloch})
    code, out, err = run_cli(capsys, "check", path)
    assert code == 1
    assert "NaN" not in out and "Infinity" not in out
    error = json.loads(err)
    assert error["command"] == "check"
    if not np.isfinite(bloch).all():
        assert "non-finite" in error["error"]


def test_convert_refuses_non_finite_components(capsys, tmp_path):
    payload = {
        "N": 2,
        "x": [0.0, 0.0, 0.0],
        "y": [0.0, 0.0, 0.0],
        "omega": [[float("nan"), 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    }
    path = write_state(tmp_path, "pair.json", payload)
    code, out, err = run_cli(capsys, "convert", path)
    assert code == 1 and out == ""
    assert "'omega'" in json.loads(err)["error"]


def run_cli_subprocess(tmp_path, *argv):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "quditkit.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_check_overflow_stderr_is_one_json_object(tmp_path):
    # 1e308 is finite but overflows in the power sums and invariants; numpy's
    # RuntimeWarnings must not reach stderr ahead of the structured error
    write_state(tmp_path, "state.json", {"N": 3, "bloch": [1e308] + [0.0] * 7})
    proc = run_cli_subprocess(tmp_path, "check", "state.json")
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)  # one JSON object, nothing else
    assert error["command"] == "check" and "not finite" in error["error"]


CHECK_MEMORY = """
import json, tracemalloc
from quditkit import basis
from quditkit.cli import main

assert basis.cached_basis.cache_info().currsize == 0
tracemalloc.start()
code = main(["check", "state32.json", "--output", "out.json"])
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"code": code, "peak": peak,
                  "tensors": basis.cached_tensors.cache_info().currsize}))
"""


def test_check_builds_no_structure_tensors(tmp_path):
    # f and d at N = 32 alone peak at about 83 MiB; the basis (16 MiB) is
    # built inside the measurement
    from quditkit import sampling
    from quditkit.basis import cached_basis
    from quditkit.qudit import to_bloch

    rho = sampling.random_density_matrix(32, np.random.default_rng(32))
    write_state(tmp_path, "state32.json",
                {"N": 32, "bloch": to_bloch(rho, cached_basis(32)).tolist()})
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", CHECK_MEMORY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    assert out["tensors"] == 0
    assert out["peak"] < 40 * 2**20
    assert json.loads((tmp_path / "out.json").read_text())["physical"] is True


OUT_OF_MEMORY = """
import resource, sys
cap = 400 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from quditkit.cli import main
sys.exit(main(["tensors", "--N", "64", "--output", "t64.json"]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_out_of_memory_exits_one_with_json_error(tmp_path):
    # the child caps its own address space at 400 MiB before it loads
    # quditkit; the f/d build at N = 64 passes the budget check but not the cap
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)  # one JSON object, no traceback
    assert error["command"] == "tensors" and error["error"].startswith("out of memory: ")


def test_check_input_checks_ignore_a_tiny_tolerance(capsys, tmp_path):
    # --tolerance sets the verdict only: the trace of this state may round to
    # 0.9999999999999999, which the unit-trace check allows at DEFAULT_TOL
    from quditkit.qudit import from_density_matrix
    from quditkit.sampling import random_density_matrix

    state = from_density_matrix(random_density_matrix(3, np.random.default_rng(3)))
    path = write_state(tmp_path, "s3.json", state.to_json_dict())
    code, out, err = run_cli(capsys, "check", path, "--tolerance", "1e-17")
    assert code == 0 and err == ""
    assert json.loads(out)["N"] == 3


def test_basis_beyond_memory_budget_exits_one(tmp_path):
    proc = run_cli_subprocess(tmp_path, "basis", "--N", "100")
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)
    assert error["command"] == "basis" and "DENSE_VIEW_MAX_BYTES" in error["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("werner", "--N", "7", "--steps", "10000000"), "--steps 10000000 needs about "),
        (("random", "--N", "5", "--count", "100000"), "--count 100000 needs about "),
    ],
    ids=["werner-steps", "random-count"],
)
def test_output_beyond_memory_budget_exits_one_before_allocating(capsys, argv, message):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["command"] == argv[0]
    assert error["error"].startswith(message) and "DENSE_VIEW_MAX_BYTES" in error["error"]
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv, item_bytes",
    [
        (("werner", "--N", "3", "--steps", "10000"), _WERNER_ROW_BYTES),
        (("werner", "--N", "11", "--steps", "10000"), _WERNER_ROW_BYTES),
        (("random", "--N", "5", "--count", "2000"), _random_state_bytes(5)),
        (("random", "--N", "32", "--count", "20"), _random_state_bytes(32)),
    ],
    ids=["werner-N3", "werner-N11", "random-N5", "random-N32"],
)
def test_output_cost_model_bounds_the_measured_peak(capsys, tmp_path, argv, item_bytes):
    # the refusals above rest on this per-row and per-state model, which leaves
    # out costs fixed per N: the basis and tensors are built before measuring,
    # and werner's 10 000-point consistency grid is matched by --steps 10000
    N, count = int(argv[2]), int(argv[4])
    cached_tensors(N)
    tracemalloc.start()
    try:
        code = main([*argv, "--output", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak <= count * item_bytes


ZERO_PAIR = {"N": 2, "x": [0.0] * 3, "y": [0.0] * 3, "omega": np.zeros((3, 3)).tolist()}


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        (("check", "in.json"), 3, "must hold a JSON object"),
        (("entropy", "in.json"), "N bloch", "must hold a JSON object"),
        (("convert", "in.json"), ["N", "x", "y", "omega"], "must hold a JSON object"),
        (("check", "in.json"), {"N": None, "bloch": [0.0] * 8}, "field 'N'"),
        (("entropy", "in.json"), {"N": 3.7, "bloch": [0.0] * 8}, "field 'N'"),
        (("convert", "in.json"), {**ZERO_PAIR, "N": None}, "field 'N'"),
        (("check", "in.json"), {"N": 3, "bloch": {"a": 1}}, "field 'bloch'"),
        (("entropy", "in.json"), {"N": 3, "bloch": [{"a": 1}] * 8}, "field 'bloch'"),
        (("check", "in.json"), {"N": 3, "bloch": "abc"}, "field 'bloch'"),
        (("entropy", "in.json"), {"N": 3, "bloch": [[0.0, 1.0], [0.0]]}, "field 'bloch'"),
        (("convert", "in.json"), {**ZERO_PAIR, "x": {"a": 1}}, "field 'x'"),
        (("basis", "--N", "2", "--output", "missing/x.json"), None, "cannot write output file"),
        (("check", "in.json", "--output", "missing/x.json"), {"N": 3, "bloch": [0.0] * 8},
         "cannot write output file"),
        (("qutrit-region", "--resolution", "8", "--output", "outdir"), None,
         "cannot write output file"),
    ],
    ids=["top-int", "top-string", "top-list", "N-null", "N-fraction", "pair-N-null",
         "bloch-object", "bloch-objects", "bloch-string", "bloch-ragged", "x-object", "output-missing-dir",
         "check-output-missing-dir", "output-is-dir"],
)
def test_malformed_input_or_output_exits_one_with_json_error(tmp_path, argv, payload, message):
    (tmp_path / "outdir").mkdir()
    if payload is not None:
        write_state(tmp_path, "in.json", payload)
    proc = run_cli_subprocess(tmp_path, *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)  # one JSON object, no traceback
    assert error["command"] == argv[0] and message in error["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("werner", "--N", "abc"),
        ("werner", "--N", "3", "--bogus"),
        ("qutrit-region", "--resolution", "8", "--format", "json"),
        ("convert", "pair.json", "--N", "3"),
    ],
    ids=["bad-value", "unknown-flag", "format-not-read", "N-not-read"],
)
def test_usage_error_exits_one_with_json_error(tmp_path, argv):
    proc = run_cli_subprocess(tmp_path, *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)  # one JSON object, no argparse usage text
    assert error["command"] == argv[0]


def test_random_count_below_one_exits_one(capsys):
    code, out, err = run_cli(capsys, "random", "--N", "2", "--count", "0")
    assert code == 1 and out == ""
    assert "count" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, command, message",
    [
        (("werner", "--N", "abc"), "werner", "argument --N: invalid int value"),
        (("werner", "--N", "3", "--bogus"), "werner", "unrecognized arguments: --bogus"),
        (("qutrit-region", "--format", "json"), "qutrit-region", "unrecognized arguments"),
        (("random", "--count", "0"), "random", "argument --count: "),
        (("werner", "--tolerance", "-1"), "werner", "argument --tolerance: "),
        (("random", "--tolerance", "nan"), "random", "argument --tolerance: "),
        (("basis", "--tolerance", "1e-6"), "basis", "unrecognized arguments: --tolerance 1e-6"),
        (("tensors", "--tolerance", "1e-6"), "tensors",
         "unrecognized arguments: --tolerance 1e-6"),
        (("basis", "--N", "1"), "basis", "qudit dimension must be >= 2"),
        (("werner", "--N", "1"), "werner", "qudit dimension must be >= 2"),
        (("random", "--N", "0"), "random", "qudit dimension must be >= 2"),
        ((), None, "required: command"),
    ],
    ids=["bad-value", "unknown-flag", "flag-not-read", "count-0", "tolerance-negative",
         "tolerance-nan", "basis-tolerance", "tensors-tolerance", "basis-N-1", "werner-N-1",
         "random-N-0", "no-command"],
)
def test_usage_error_returns_one_in_process(capsys, argv, command, message):
    code, out, err = run_cli(capsys, *argv)  # a SystemExit here fails the test
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["command"] == command and message in error["error"]


def test_readme_cli_lines_parse(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "quditkit"]
    assert len(commands) == 10
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
    monkeypatch.chdir(tmp_path)
    write_state(tmp_path, "state.json", {"N": 3, "bloch": [0.0] * 8})
    write_state(tmp_path, "pair.json", {"N": 2, "x": [0.0] * 3, "y": [0.0] * 3,
                                        "omega": np.zeros((3, 3)).tolist()})
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        if "--output" in argv:
            out = Path(argv[argv.index("--output") + 1]).read_text()
        assert out.strip(), argv


def test_readme_dataset_lines_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Datasets", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert [argv[0] for argv in lines] == ["mkdir"] + ["quditkit"] * 5
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        if argv[0] == "mkdir":
            assert argv[1] == "-p"
            Path(argv[2]).mkdir(parents=True, exist_ok=True)
            continue
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == 0 and out == "", (argv, err)
    out = tmp_path / "out"
    grid = region_scan(512)
    assert (out / "qutrit_region.csv").read_text() == region_to_csv(grid)
    assert (out / "qutrit_region_boundaries.csv").read_text() == boundaries_to_csv(grid)
    # the Werner files under one header: the scan over +-(N/2 + 1/4) for N = 2..5
    rows = []
    for N in (2, 3, 4, 5):
        half = N / 2.0 + 0.25
        rows.extend(werner_positivity_scan(N, -half, half, 201))
    texts = [(out / f"werner_N{N}.csv").read_text() for N in (2, 3, 4, 5)]
    header = texts[0].split("\n", 1)[0] + "\n"
    assert all(text.startswith(header) for text in texts)
    assert header + "".join(text[len(header):] for text in texts) == werner_scan_csv(rows)
