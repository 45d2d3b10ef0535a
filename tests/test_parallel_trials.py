"""Monte Carlo trials on worker processes: same bytes, safe fallbacks, no hangs.

``experiments._map_trials`` forks one worker per usable CPU. Every test
here forces the worker count, so the parallel and the serial path both run
on any machine that has the ``fork`` start method.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading

import pytest

import eqodds
from eqodds import cli, core, data_io, experiments, second_moment
from eqodds.core import EmptyCellError, EqoddsError

from test_golden_reports import GOLDEN_PATH, golden_entry

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(eqodds.__file__)))
MC_EXPERIMENTS = ("detection-error-rates", "erm-trap-floor", "two-step-rate-sweep")


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(experiments, "_worker_count", lambda count: min(workers, count))


def report_bytes(experiment, **params):
    report = experiments.run_experiment(experiment, seed=3, **params)
    return json.dumps(report.to_dict()).encode(), json.dumps(report.raw).encode()


def run_python(code, timeout):
    """Run ``code`` in a fresh interpreter that imports this eqodds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout)


# ---- library errors survive pickling ---------------------------------------

ERROR_ARGS = {
    core.InvalidParameterError: ("alpha must be positive",),
    core.EmptyCellError: ([(0, 1), (1, 0)], "first half"),
    core.TooFewSamplesError: ("need 12 rows",),
    data_io.SchemaError: ("missing column 'y'",),
    data_io.ParseError: (3, "column 'a': 'x' is not a number"),
    second_moment.SingularCovarianceError: (1e-18,),
    second_moment.DegenerateDenominatorError: (0.0,),
}


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def test_every_library_error_round_trips_through_pickle():
    assert cli  # every module that defines an error is imported
    assert set(all_subclasses(EqoddsError)) == set(ERROR_ARGS)
    for cls, args in ERROR_ARGS.items():
        error = cls(*args)
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is cls
        assert str(back) == str(error)
        assert back.args == error.args
        assert vars(back) == vars(error)


# ---- parallel and serial runs give the same bytes --------------------------

@needs_fork
@pytest.mark.parametrize("experiment, trials", [("detection-error-rates", 50),
                                                ("erm-trap-floor", 61),
                                                ("two-step-rate-sweep", 31)])
def test_parallel_and_serial_reports_are_identical(monkeypatch, experiment, trials):
    force_workers(monkeypatch, 1)
    serial = report_bytes(experiment, trials=trials)
    for workers in (2, 3):
        force_workers(monkeypatch, workers)
        assert report_bytes(experiment, trials=trials) == serial


@needs_fork
def test_golden_reports_hold_on_the_parallel_path(monkeypatch):
    force_workers(monkeypatch, 3)
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    for experiment in MC_EXPERIMENTS:
        assert golden_entry(experiment) == golden[experiment]


@needs_fork
def test_map_trials_keeps_trial_order_and_uses_workers(monkeypatch):
    force_workers(monkeypatch, 3)
    assert experiments._map_trials(lambda i: i * i, 11) == [i * i for i in range(11)]
    pids = set(experiments._map_trials(lambda i: os.getpid(), 6))
    assert os.getpid() not in pids


@needs_fork
def test_parallel_error_is_the_one_serial_would_raise_first(monkeypatch):
    def trial(i):
        if i in (3, 4):
            raise EmptyCellError([(0, 1)], f"trial {i}")
        return i

    force_workers(monkeypatch, 2)  # worker 1 fails at trial 3, worker 0 at 4
    with pytest.raises(EmptyCellError, match="trial 3") as err:
        experiments._map_trials(trial, 8)
    assert err.value.cells == [(0, 1)]
    assert 'raise EmptyCellError([(0, 1)], f"trial {i}")' in str(err.value.__cause__)


@needs_fork
def test_error_in_a_worker_exits_2_with_the_serial_message():
    code = ("import sys\n"
            "from eqodds import cli, experiments\n"
            "experiments._worker_count = lambda count: min(2, count)\n"
            "sys.exit(cli.main(['reproduce', '--experiment', 'two-step-rate-sweep',\n"
            "                   '--eps', '0.0001', '--trials', '30']))\n")
    done = run_python(code, timeout=10)
    assert done.returncode == 2
    assert done.stderr == "error: first half: empty (y, a) cells: [(0, 1), (1, 0)]\n"


@needs_fork
def test_dead_worker_raises_instead_of_hanging():
    code = ("import os\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from eqodds import experiments\n"
            "experiments._worker_count = lambda count: min(2, count)\n"
            "try:\n"
            "    experiments._map_trials(lambda i: os._exit(3) if i == 1 else i, 4)\n"
            "except BrokenProcessPool:\n"
            "    print('broken')\n")
    done = run_python(code, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "broken\n"


# ---- when the serial loop runs ---------------------------------------------

@pytest.fixture
def four_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


@needs_fork
def test_workers_are_the_usable_cpus_capped_by_trials(four_cpus):
    assert experiments._worker_count(100) == 4
    assert experiments._worker_count(3) == 3
    assert experiments._worker_count(1) == 1


def test_serial_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert experiments._worker_count(100) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert experiments._worker_count(100) == 1


def test_serial_without_fork(four_cpus, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert experiments._worker_count(100) == 1
    assert experiments._map_trials(lambda i: os.getpid(), 3) == [os.getpid()] * 3


def _map_in_daemon(queue):
    queue.put((os.getpid(), experiments._map_trials(lambda i: os.getpid(), 4)))


@needs_fork
def test_serial_inside_a_daemon_process(four_cpus):
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_map_in_daemon, args=(queue,), daemon=True)
    child.start()
    pid, pids = queue.get(timeout=30)
    child.join(timeout=30)
    assert child.exitcode == 0
    assert pids == [pid] * 4


@needs_fork
def test_serial_while_another_thread_is_alive(four_cpus):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert experiments._worker_count(100) == 1
        assert experiments._map_trials(lambda i: os.getpid(), 3) == [os.getpid()] * 3
    finally:
        release.set()
        other.join()
    assert experiments._worker_count(100) == 4
