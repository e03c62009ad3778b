"""Reports one pass/fail line per acceptance criterion after the run, and
fails any test that leaves a sweep's temporary directory behind."""
import glob
import os
import shutil
import tempfile

import pytest

_RESULTS = {}
_TEMPDIR = pytest.StashKey[str]()  # where tempfile makes its directories during the run


@pytest.fixture(scope="session", autouse=True)
def session_tempdir(request, tmp_path_factory):
    """One directory for everything ``tempfile`` makes during the run, in
    this process and, through ``$TMPDIR``, in the commands tests start."""
    path = request.config.stash[_TEMPDIR] = str(tmp_path_factory.mktemp("tempfile"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tempfile, "tempdir", path)
        mp.setenv("TMPDIR", path)
        yield path


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    # a hook, not a function-scoped fixture: hypothesis rejects those
    try:
        return (yield)
    finally:
        tmp = item.config.stash.get(_TEMPDIR, None)
        leaked = sorted(glob.glob(os.path.join(tmp, "ofs-sweep-*"))) if tmp else []
        for path in leaked:
            shutil.rmtree(path, ignore_errors=True)
        assert not leaked, f"the test left {', '.join(map(os.path.basename, leaked))} in {tmp}"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, label): criterion reported as a pass/fail summary line",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, label = marker.args
    if report.when == "call":
        _RESULTS[num] = (label, report.passed)
    elif report.when == "setup" and report.failed:
        _RESULTS[num] = (label, False)


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        label, passed = _RESULTS[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[acceptance {num}] {label}: {status}")
