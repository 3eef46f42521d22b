"""run_suite's process split: the caller and forked workers claim checks
from one job pipe, and the results, the exceptions and the processes left
behind are those of a one-process run."""

import contextlib
import errno
import os
import re
import signal
import time

import pytest

from gsqg import verify
from gsqg.galerkin import BlowUpError

QUICK = (
    "tensor_structure", "inviscid_conservation", "viscous_balances", "heat_oracles",
    "representation_identity", "representation_equivalence", "adjoint_identity",
    "uniform_l2", "weak_residual", "weak_continuity",
)


def _fields(r):
    return r.name, r.passed, repr(r.observed), r.tolerance, r.detail


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the caller if the block outlives `seconds`
    (forked workers inherit no timer)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _fake_quick(monkeypatch, log, act, cpus=(0, 1, 2)):
    """Replace quick's checks by ones that sleep 20 ms, so that every process
    gets some, append "index pid" to `log`, call act(index) and pass with
    observed = index.  The process may use `cpus`: by default three, two
    workers whatever the machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    for i, name in enumerate(QUICK):
        def fake(*args, i=i, name=name, **kwargs):
            time.sleep(0.02)
            with open(log, "a") as fh:
                fh.write(f"{i} {os.getpid()}\n")
            act(i)
            return verify.CheckResult(name, True, float(i), 1.0, "", 0.0)

        monkeypatch.setattr(verify, f"check_{name}", fake)


def _ran(log):
    """{index: pid of the process that ran it}, each index at most once."""
    lines = [line.split() for line in log.read_text().splitlines()]
    ran = {int(i): int(pid) for i, pid in lines}
    assert len(ran) == len(lines), "a check ran twice"
    return ran


def _named(exc):
    return set(re.search(r"check\(s\) (.*)", str(exc)).group(1).split(", "))


@pytest.mark.parametrize("level", ["quick", "full"])
def test_one_cpu_run_gives_the_default_results(monkeypatch, level):
    default = verify.run_suite(level)
    _assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = verify.run_suite(level)
    assert [_fields(r) for r in one] == [_fields(r) for r in default]
    assert all(r.passed for r in default)


def _fork_fails():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("platform", ["three CPUs", "one CPU", "no os.fork", "fork fails"])
def test_every_check_runs_once_and_results_keep_the_battery_order(
        monkeypatch, tmp_path, platform):
    log, caller = tmp_path / "ran", os.getpid()
    _fake_quick(monkeypatch, log, lambda i: None,
                cpus=(0,) if platform == "one CPU" else (0, 1, 2))
    if platform == "no os.fork":
        monkeypatch.delattr(os, "fork")
    if platform == "fork fails":
        monkeypatch.setattr(verify, "_fork", _fork_fails)
    with _deadline(60):
        results = verify.run_suite("quick")
    assert [(r.name, r.observed) for r in results] == [(n, float(i)) for i, n in enumerate(QUICK)]
    ran = _ran(log)
    pids = set(ran.values())
    assert len(ran) == len(QUICK)
    assert len(pids) > 1 if platform == "three CPUs" else pids == {caller}
    _assert_no_child_left()


@pytest.mark.parametrize("raiser", ["caller", "worker"])
def test_a_check_that_raises_raises_from_run_suite_lowest_index_first(
        monkeypatch, tmp_path, raiser):
    # BlowUpError's __init__ does not take its args, so pickle alone could
    # not carry it from a worker
    log, caller = tmp_path / "ran", os.getpid()

    def act(i):
        if (os.getpid() == caller) == (raiser == "caller"):
            raise BlowUpError(float(i), 2e12, 1e-3, 0.01, 0.5, step=i)

    _fake_quick(monkeypatch, log, act)
    with _deadline(60), pytest.raises(BlowUpError) as info:
        verify.run_suite("quick")
    ran = _ran(log)
    raised = [i for i, pid in ran.items() if (pid == caller) == (raiser == "caller")]
    assert len(ran) == len(QUICK) and raised
    first = min(raised)
    assert type(info.value) is BlowUpError
    assert str(info.value) == str(BlowUpError(float(first), 2e12, 1e-3, 0.01, 0.5, step=first))
    assert (info.value.t, info.value.step) == (float(first), first)
    _assert_no_child_left()


def test_a_worker_that_ends_without_reporting_is_named(monkeypatch, tmp_path):
    log, caller = tmp_path / "ran", os.getpid()

    def act(i):
        if os.getpid() != caller:
            os._exit(3)

    _fake_quick(monkeypatch, log, act)
    with _deadline(60), pytest.raises(RuntimeError, match="without reporting") as info:
        verify.run_suite("quick")
    lost = {QUICK[i] for i, pid in _ran(log).items() if pid != caller}
    assert lost and _named(info.value) == lost
    _assert_no_child_left()


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupt_or_exit_in_a_worker_ends_only_that_worker(monkeypatch, tmp_path, exc):
    log, escaped, caller = tmp_path / "ran", tmp_path / "escaped", os.getpid()

    def act(i):
        if os.getpid() != caller:
            raise exc()

    _fake_quick(monkeypatch, log, act)
    try:
        with _deadline(60), pytest.raises(RuntimeError, match="without reporting") as info:
            verify.run_suite("quick")
    finally:
        # a worker that came back into this stack holds its report pipe open
        # until it exits, so run_suite has not returned before this is written
        if os.getpid() != caller:
            escaped.write_text(str(os.getpid()))
            os._exit(0)
    assert not escaped.exists()
    lost = {QUICK[i] for i, pid in _ran(log).items() if pid != caller}
    assert lost and _named(info.value) == lost
    _assert_no_child_left()
