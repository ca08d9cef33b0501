"""A process forked inside a batch, by the scheduler's worker pool or by
anyone else, drops the parent's helper process: it works inline and
never touches the parent's table or pipe, while the parent's batch and
helper carry on."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import test_crypto
from test_verify_split import cursor, helper_processes, needs_sodium
from helpers import KEYS
from tierledger import crypto, helper


@needs_sodium
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_raw_fork_inside_a_batch_verifies_inline(monkeypatch):
    monkeypatch.setattr(crypto, "CPUS", 2)
    kp = KEYS[1]
    good = (kp.pubkey, test_crypto.MSG, kp.sign(test_crypto.MSG))
    bad = (kp.pubkey, test_crypto.MSG + b"x", good[2])
    batch = helper.split([[((t[0],), t[1], (t[2],)) for t in (good, bad)]])
    batch.__enter__()
    pid = os.fork()
    if pid == 0:
        try:
            ok = helper._helper is None and helper._slots is None
            ok = ok and crypto.verify(*good) and not crypto.verify(*bad)
            batch.__exit__(None, None, None)  # must not mark the parent's batch done
            os._exit(0 if ok else 1)
        finally:
            os._exit(2)
    try:
        assert os.waitpid(pid, 0)[1] == 0
        assert helper._slots is not None and cursor(helper._helper[2]) != helper.DONE
        assert crypto.verify(*good) and not crypto.verify(*bad)
    finally:
        batch.__exit__(None, None, None)
    assert helper_processes() == [helper._helper[0]]


CHILD = textwrap.dedent(
    """
    import os, sys
    from tierledger import crypto, helper
    crypto.CPUS = 2
    kp = crypto.keygen(bytes(32))
    msg = bytes(32)
    sig = kp.sign(msg)
    with helper.split([[((kp.pubkey,), msg, (sig,))]]):
        assert crypto.verify(kp.pubkey, msg, sig)
    running = helper._helper[0]
    pid = os.fork()
    if pid == 0:
        sys.exit(0)  # a normal exit, with the interpreter's exit handlers
    assert os.waitpid(pid, 0)[1] == 0
    assert running.is_alive() and helper._helper[0] is running
    """
)


@needs_sodium
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_that_exits_leaves_the_parent_helper_running():
    env = {**os.environ, "PYTHONPATH": str(Path(crypto.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == "", done.stderr
