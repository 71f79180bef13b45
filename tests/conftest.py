"""Shared fixtures: the bundled scene, episodes, and scripted backends."""

import glob
import os
import signal

import pytest

from stmrnav.planner import ScriptedBackend
from stmrnav.world import load_episode, load_scene

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "src", "stmrnav", "fixtures")


def fixture_path(*parts) -> str:
    return os.path.normpath(os.path.join(FIXTURE_DIR, *parts))


@pytest.fixture(scope="session")
def scene():
    return load_scene(fixture_path("riverside.scene"))


@pytest.fixture(scope="session")
def episodes():
    paths = sorted(glob.glob(fixture_path("ep*.episode")))
    assert len(paths) == 10
    return [load_episode(p) for p in paths]


def scripted_factory(episode, index):
    """One fresh scripted backend per episode, keyed by episode id."""
    return ScriptedBackend.from_file(
        fixture_path("scripts", f"{episode.episode_id}.txt"))


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_pids() -> set[int] | None:
    """The pids of this process's children not yet reaped, or None where
    the kernel does not list them (``/proc/<pid>/task/<tid>/children``)."""
    tasks = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    if not tasks:
        return None
    pids = set()
    for path in tasks:
        try:
            with open(path, encoding="ascii") as f:
                pids.update(int(pid) for pid in f.read().split())
        except FileNotFoundError:       # the thread has just exited
            pass
    return pids


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process behind, live or unreaped,
    and kill and reap that child so later tests start clean."""
    before = child_pids()
    yield
    if before is None:
        return
    left = sorted(child_pids() - before)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):    # reaped meanwhile
            pass
    if left:
        pytest.fail(f"the test left child processes {left}")


# ---------------------------------------------------------------------------
# acceptance verdict reporting
# ---------------------------------------------------------------------------

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Print a criterion verdict and queue it for the terminal summary."""
    print(line)
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
