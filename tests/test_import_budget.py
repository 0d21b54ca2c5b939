"""The import budget: a process loads only what its command runs.

``import repro`` and a ``join`` over index directories — profiled or
not — must not pull in the HTTP daemon, the dashboard,
tracemalloc, ``numpy.ma`` or ``fractions`` (only an exact refinement
fallback needs it); a serial join — over files or index
directories — must not pull in the fork machinery either: a
fresh-process join waits for every module it imports. Each check runs
in a child interpreter so this suite's own imports cannot mask an eager
one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets.io import save_wkt_file
from repro.geometry import Polygon
from repro.store import build_dataset

SRC = Path(__file__).resolve().parents[1] / "src"

#: What a join over index directories has no use for.
NOT_FOR_A_JOIN = (
    "repro.serve", "repro.obs.dashboard",
    "http.server", "urllib.request", "tracemalloc", "numpy.ma", "fractions",
)

#: What only a forked fan-out runs: a serial join loads none of it.
FORK_MACHINERY = (
    "multiprocessing", "socket", "subprocess", "selectors",
    "repro.resilience.supervisor", "repro.resilience.worker",
)


def child(code: str, *argv: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_repro_stays_within_the_budget():
    loaded = set(json.loads(child("import json, sys, repro; print(json.dumps(sorted(sys.modules)))")))
    assert not loaded.intersection(NOT_FOR_A_JOIN)
    # ...while still loading what a join runs: the benchmark's
    # ``import.repro_s`` probe times exactly this statement.
    assert {"repro.store.engine", "repro.join.pipeline", "numpy"} <= loaded


def test_join_over_indexes_stays_within_the_budget(tmp_path):
    save_wkt_file(tmp_path / "r.wkt", [Polygon.box(k, 0, k + 1.5, 1.5) for k in range(6)])
    save_wkt_file(tmp_path / "s.wkt", [Polygon.box(k + 0.5, 0.5, k + 2, 2) for k in range(6)])
    for name in ("r", "s"):
        build_dataset(tmp_path / f"{name}.wkt", tmp_path / f"{name}_idx", grid_order=None)
    out = child(
        "import json, sys\n"
        "from repro.__main__ import main\n"
        "join = ['join', sys.argv[1], sys.argv[2], '--index', '--grid-order', '8']\n"
        "assert main(join) == 0\n"
        "assert main(join + ['--profile', sys.argv[3], '--run-log', sys.argv[4]]) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        str(tmp_path / "r_idx"), str(tmp_path / "s_idx"),
        str(tmp_path / "profile.txt"), str(tmp_path / "runs.jsonl"),
    )
    *rows, modules = out.strip().splitlines()
    assert len(rows) > 0
    loaded = set(json.loads(modules))
    assert not loaded.intersection(NOT_FOR_A_JOIN)
    assert {"repro.store.columns", "repro.join.pipeline"} <= loaded


@pytest.mark.parametrize("inputs", ["files", "indexes"])
def test_a_serial_join_loads_no_fork_machinery(tmp_path, inputs):
    save_wkt_file(tmp_path / "r.wkt", [Polygon.box(k, 0, k + 1.5, 1.5) for k in range(6)])
    save_wkt_file(tmp_path / "s.wkt", [Polygon.box(k + 0.5, 0.5, k + 2, 2) for k in range(6)])
    if inputs == "files":
        r, s = tmp_path / "r.wkt", tmp_path / "s.wkt"
    else:
        r, s = (build_dataset(tmp_path / f"{name}.wkt", tmp_path / f"{name}_idx").path
                for name in ("r", "s"))
    out = child(
        "import json, sys\n"
        "from repro.__main__ import main\n"
        "assert main(['join', sys.argv[1], sys.argv[2], '--grid-order', '8']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        str(r), str(s),
    )
    *rows, modules = out.strip().splitlines()
    assert len(rows) > 0
    loaded = set(json.loads(modules))
    assert not loaded.intersection(FORK_MACHINERY + NOT_FOR_A_JOIN)


def test_every_public_name_still_resolves():
    # Every package under src/repro, so an export left pointing at a
    # deleted module fails here rather than at a user's import.
    child(
        "import importlib, pkgutil, repro\n"
        "packages = [repro] + [importlib.import_module(m.name)\n"
        "                      for m in pkgutil.walk_packages(repro.__path__, 'repro.') if m.ispkg]\n"
        "assert len(packages) == 14, [p.__name__ for p in packages]\n"
        "for package in packages:\n"
        "    names = set(package.__all__)\n"
        "    assert names <= set(dir(package)), names - set(dir(package))\n"
        "    for name in names:\n"
        "        getattr(package, name)\n"
        "    scope = {}\n"
        "    exec(f'from {package.__name__} import *', scope)\n"
        "    assert names <= set(scope)\n"
        "from repro import Engine, Polygon, JoinService\n"
        "assert not hasattr(repro, 'TopologyJoin') and not hasattr(repro, 'DiskPartitionedJoin')\n"
        "from repro.obs import render_dashboard, build_run_report\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('a missing name must be an AttributeError')\n"
    )


def test_the_bench_gate_is_gone():
    # repro.obs.bench and its seven re-exports went in v1.4.0;
    # bench/run.py is the one performance instrument.
    import importlib

    import repro.obs

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.bench")
    for name in ("Trend", "append_entry", "check_regressions", "format_regressions",
                 "make_envelope"):
        assert name not in repro.obs.__all__ and name not in dir(repro.obs)
        with pytest.raises(AttributeError):
            getattr(repro.obs, name)
        with pytest.raises(ImportError):
            exec(f"from repro.obs import {name}")
    # ...and the two trajectory readers: no public name is about them.
    assert not [n for n in dir(repro.obs) if "trend" in n.lower() or "traject" in n]


@pytest.mark.parametrize("command", ["serve", "report", "select", "explain", "stats", "relate"])
def test_subcommands_still_import_what_they_need(command):
    done = subprocess.run(
        [sys.executable, "-m", "repro", command, "--help"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and "usage:" in done.stdout


def test_handlers_import_what_they_moved_out_of_the_module(tmp_path, capsys):
    # --help never reaches a handler; these do.
    from repro.__main__ import main

    save_wkt_file(tmp_path / "d.wkt", [Polygon.box(0, 0, 2, 2), Polygon.box(5, 5, 6, 6)])
    data = str(tmp_path / "d.wkt")
    assert main(["select", data, "--query", "POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))",
                 "--grid-order", "6"]) == 0
    assert capsys.readouterr().out.split() == ["0"]
    assert main(["relate", data, data]) == 0
    assert "equals" in capsys.readouterr().out
    assert main(["explain", data, data, "--index", "0", "0", "--grid-order", "6"]) == 0
    assert "relation: equals" in capsys.readouterr().out
    assert main(["report", "--out", str(tmp_path / "report.html")]) == 0
    assert (tmp_path / "report.html").exists()
