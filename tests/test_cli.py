import contextlib
import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import indstab
from indstab.cli import _build_parser, main
from indstab.enumeration import (
    ContainsTriangle,
    Stable,
    TightStable,
    count_graphs,
    enumerate_graphs,
)
from indstab.graph6 import g6_decode, g6_encode
from indstab.families import cycle, kn_tight, stable3_circulant
from indstab.mis import alpha


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


C5 = g6_encode(cycle(5))
K33 = g6_encode(kn_tight(6))


def test_alpha(capsys):
    code, out, _ = run(capsys, "alpha", C5)
    assert code == 0 and out.strip() == "2"


def test_alpha_witness(capsys):
    code, out, _ = run(capsys, "alpha", K33, "--witness")
    assert code == 0 and out.strip() == "3 {0,1,2}"


def test_alpha_from_file(capsys, tmp_path):
    p = tmp_path / "in.g6"
    p.write_text(f"{C5}\n{K33}\n", encoding="utf-8")
    code, out, _ = run(capsys, "alpha", f"@{p}")
    assert code == 0 and out.split() == ["2", "3"]


def test_empty_graph_file_is_usage_error(capsys, tmp_path):
    p = tmp_path / "empty.g6"
    p.write_text("\n", encoding="utf-8")
    code, out, err = run(capsys, "alpha", f"@{p}")
    assert code == 2 and out == ""
    assert err == f"error: no graphs in {p}\n"


def test_drop(capsys):
    code, out, _ = run(capsys, "drop", K33, "--k", "2")
    assert code == 0 and out.strip() == "1"


def test_stable(capsys):
    code, out, _ = run(capsys, "stable", K33, "--k", "1", "--l", "0")
    assert code == 0 and out.strip() == "true"


def test_tight(capsys):
    code, out, _ = run(capsys, "tight", C5, "--k", "2", "--l", "0")
    assert code == 0 and out.strip() == "true"


def test_bad_graph6_is_usage_error(capsys):
    code, _, err = run(capsys, "alpha", "~~~nonsense")
    assert code == 2 and "error:" in err


def test_bad_parameters_usage_error(capsys):
    code, _, err = run(capsys, "stable", C5, "--k", "2", "--l", "5")
    assert code == 2 and "error:" in err


def test_construct_families(capsys):
    code, out, _ = run(capsys, "construct", "--family", "cycle", "--n", "7")
    assert code == 0
    assert g6_decode(out.strip()) == cycle(7)

    code, out, _ = run(capsys, "construct", "--family", "stable3", "--m", "3")
    assert code == 0
    assert g6_decode(out.strip()) == stable3_circulant(3)

    code, out, _ = run(
        capsys, "construct", "--family", "circulant", "--n", "6",
        "--diff", "1", "--diff", "3",
    )
    assert code == 0
    assert alpha(g6_decode(out.strip())) == 3


def test_construct_sandwich_deterministic(capsys):
    a = run(capsys, "construct", "--family", "sandwich", "--n", "8", "--seed", "7")
    b = run(capsys, "construct", "--family", "sandwich", "--n", "8", "--seed", "7")
    assert a == b


def test_construct_lift(capsys, tmp_path):
    code, out, _ = run(
        capsys, "construct", "--family", "lift", "--graph", C5, "--j", "2"
    )
    assert code == 0
    assert g6_decode(out.strip()).n == 7


def test_construct_missing_parameter(capsys):
    code, _, err = run(capsys, "construct", "--family", "cycle")
    assert code == 2 and "needs" in err


def test_construct_names_every_missing_flag(capsys):
    code, out, err = run(capsys, "construct", "--family", "circulant", "--n", "6")
    assert code == 2 and out == "" and err == "error: circulant needs --diff\n"
    code, out, err = run(capsys, "construct", "--family", "circulant")
    assert code == 2 and err == "error: circulant needs --n and --diff\n"
    code, out, err = run(capsys, "construct", "--family", "lift", "--graph", C5)
    assert code == 2 and out == "" and err == "error: lift needs --j\n"


def test_construct_lift_takes_one_graph(capsys, tmp_path):
    p = tmp_path / "two.g6"
    p.write_text(f"{C5}\n{K33}\n", encoding="utf-8")
    code, out, err = run(capsys, "construct", "--family", "lift", "--graph", f"@{p}", "--j", "1")
    assert code == 2 and out == ""
    assert err == f"error: --graph takes one graph, {p} holds 2\n"


def test_construct_every_family_emits_a_graph(capsys):
    from indstab import families as fam

    cases = [
        (["--family", "figure2"], fam.figure2()),
        (["--family", "even20", "--k", "4"], fam.even20_circulant(4)),
        (["--family", "stable4", "--m", "3"], fam.stable4_circulant(3)),
        (["--family", "kn_tight", "--n", "7"], fam.kn_tight(7)),
        (["--family", "mn_matching", "--n", "7"], fam.mn_matching(7)),
        (["--family", "path", "--n", "6"], fam.path(6)),
        (["--family", "wheel", "--n", "6"], fam.wheel(6)),
    ]
    for argv, expected in cases:
        code, out, _ = run(capsys, "construct", *argv)
        assert code == 0 and g6_decode(out.strip()) == expected


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--count-only", "--jobs", "1")
    assert code == 0 and out.strip() == "34"


def test_enumerate_lines_decode(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--jobs", "1")
    assert code == 0
    lines = out.split()
    assert len(lines) == 11
    assert all(g6_decode(line).n == 4 for line in lines)


def test_enumerate_filter(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--n", "5", "--filter", "tight-stable:2,0",
        "--jobs", "1",
    )
    assert code == 0
    lines = out.split()
    assert len(lines) == 1


def test_enumerate_filter_conjunction(capsys):
    # repeated --filter flags are one And, checked part by part in the order
    # given: either order prints the tight (2, 1) classes on 6 vertices that
    # hold a triangle, and the (2, 1)-stable ones, an And with no part that
    # prunes the walk
    tight = sum(
        ContainsTriangle().matches(g)
        for _, g in enumerate_graphs(6, predicate=TightStable(2, 1))
    )
    stable = sum(
        Stable(2, 1).matches(g) and ContainsTriangle().matches(g) for _, g in enumerate_graphs(6)
    )
    assert (tight, stable) == (54, 92)
    for first, expected in (("tight-stable:2,1", tight), ("stable:2,1", stable)):
        filters = [first, "contains-triangle"]
        for order in (filters, filters[::-1]):
            argv = [x for f in order for x in ("--filter", f)]
            code, out, _ = run(
                capsys, "enumerate", "--n", "6", "--count-only", "--jobs", "1", *argv
            )
            assert (code, out) == (0, f"{expected}\n"), order


def test_enumerate_into_closed_pipe_exits_quietly():
    # the reader is gone before the first line, as after `| head -1`
    src = os.path.dirname(os.path.dirname(indstab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "indstab.cli", "enumerate", "--n", "7", "--jobs", "1"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == b""


def _children(pid):
    kids = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path, encoding="ascii") as fh:
            kids.update(int(k) for k in fh.read().split())
    return kids


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _default_sigint():
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _enumerate_nine(**kwargs):
    """`indstab enumerate --n 9 --count-only --jobs 2`, started in the background.

    SIGINT starts at its default disposition: a child inherits an ignored
    SIGINT (as from a shell's background job), and Python then keeps ignoring it.
    """
    src = os.path.dirname(os.path.dirname(indstab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "indstab.cli", "enumerate", "--n", "9", "--count-only",
         "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path), preexec_fn=_default_sigint, **kwargs,
    )


def test_interrupt_during_pool_run_exits_2_and_leaves_no_workers():
    proc = _enumerate_nine()
    try:
        time.sleep(1)
        deadline = time.monotonic() + 30
        while not (workers := _children(proc.pid)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert workers, "the pool never started"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, err) == (2, b"", b"error: interrupted\n")
    assert not [pid for pid in workers if _running(pid)]


def test_interrupt_while_pool_starts_exits_2_and_leaves_no_workers():
    # SIGINT as soon as the first worker exists mostly lands while the pool
    # is still starting.  A worker left alive keeps the pipes open, so the
    # reads time out; killing the process group then removes it.
    for _ in range(5):
        proc = _enumerate_nine(start_new_session=True)
        try:
            deadline = time.monotonic() + 30
            while not _children(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.001)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            with contextlib.suppress(ProcessLookupError):  # no process left
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert (proc.returncode, out, err) == (2, b"", b"error: interrupted\n")


def test_jobs_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
    args = _build_parser().parse_args(["enumerate", "--n", "3"])
    assert args.jobs == 3


def test_jobs_default_without_cpu_affinity(monkeypatch, capsys):
    # platforms without sched_getaffinity (macOS, Windows) fall back to cpu_count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert run(capsys, "alpha", "A_") == (0, "1\n", "")
    args = _build_parser().parse_args(["enumerate", "--n", "3"])
    assert args.jobs == os.cpu_count()


def test_pool_runs_without_signal_masks(monkeypatch, capsys):
    # platforms without pthread_sigmask (Windows) start the pool unblocked
    monkeypatch.delattr(signal, "pthread_sigmask")
    assert count_graphs(6, jobs=2) == 156
    assert run(capsys, "enumerate", "--n", "5", "--count-only", "--jobs", "2") == (0, "34\n", "")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    for argv in (
        ("enumerate", "--n", "4"),
        ("erdos-rogers", "--n", "5", "--s", "3", "--t", "2"),
        ("verify", "--suite", "hall", "--max-n", "3"),
    ):
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_enumerate_filter_rejects_invalid_parameters(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "4", "--filter", "tight-stable:5,0")
    assert code == 2 and out == "" and "n > k > l >= 0" in err


@pytest.mark.parametrize("spec", ["stable:1,,0", "stable:,2,1", "alpha-equals:3,", "stable:x,1"])
def test_enumerate_filter_rejects_malformed_arguments(capsys, spec):
    code, out, err = run(capsys, "enumerate", "--n", "5", "--filter", spec)
    name, _, args = spec.partition(":")
    assert (code, out) == (2, "")
    assert err == f"error: predicate {name} takes integer arguments, got {args!r}\n"


def test_enumerate_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "11", "--count-only", "--jobs", "1")
    assert code == 2 and "allow_long" in err


def test_erdos_rogers_value(capsys):
    code, out, _ = run(
        capsys, "erdos-rogers", "--n", "6", "--s", "3", "--t", "2", "--jobs", "1"
    )
    assert code == 0 and out.strip() == "4"


def test_erdos_rogers_table(capsys):
    code, out, _ = run(capsys, "erdos-rogers", "--n", "4", "--table", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,t,predicted,computed,match"
    assert len(lines) == 17  # header + 4x4 grid
    assert any(line.endswith(",yes") for line in lines[1:])


@pytest.mark.parametrize("n", ["9", "0"])
def test_erdos_rogers_table_bad_n_writes_nothing(capsys, n):
    # n is validated before the header reaches stdout
    code, out, err = run(capsys, "erdos-rogers", "--n", n, "--table", "--jobs", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_erdos_rogers_needs_st_or_table(capsys):
    code, _, err = run(capsys, "erdos-rogers", "--n", "5", "--jobs", "1")
    assert code == 2 and "--table" in err


def test_verify_single_suite_text(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "hall", "--max-n", "4", "--jobs", "1"
    )
    assert code == 0
    assert "[PASS] hall" in out


def test_verify_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "erdos_rogers", "--max-n", "4",
        "--jobs", "1", "--json", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "indstab-report/1"
    assert doc["summary"]["fail"] == 0


def test_verify_format_json_stdout(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "hall", "--max-n", "3", "--jobs", "1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0


def test_verify_output_writes_what_format_json_prints(capsys, tmp_path):
    argv = ("verify", "--suite", "hall", "--max-n", "3", "--jobs", "1", "--format", "json")
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "report.json"
    assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == printed.encode()


def test_verify_suite_named_twice_exits_2(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "hall", "--suite", "hall", "--max-n", "3",
        "--jobs", "1", "--format", "json",
    )
    assert (code, out, err) == (2, "", "error: suite 'hall' is named more than once\n")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
