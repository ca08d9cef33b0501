"""crypto stops its signature helper before any fork of the process, not
only before the scheduler's worker pool: a thread never runs across one."""

from __future__ import annotations

import os

import pytest

from test_verify_split import helper_threads, needs_sodium
from tierledger import crypto


@needs_sodium
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_raw_fork_stops_a_live_helper(monkeypatch):
    monkeypatch.setattr(crypto, "CPUS", 2)
    with crypto.split_checks(lambda: []):
        assert crypto._memo is not None
    assert helper_threads() == 1
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    assert helper_threads() == 0
    assert not crypto._helper.is_alive()
    # The next batch starts a new helper.
    with crypto.split_checks(lambda: []):
        pass
    assert helper_threads() == 1
