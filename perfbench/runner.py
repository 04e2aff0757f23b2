"""Run one request in-process under a time budget and check its report.

A request calls `jordan_strata.cli.main(argv)` with stdout and stderr
captured.  A SIGALRM timer interrupts it when it overruns its budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import time
from typing import NamedTuple


class BudgetExceeded(BaseException):
    """Raised by the alarm handler.  A BaseException, so that no `except
    Exception` inside the library swallows it."""


class Outcome(NamedTuple):
    seconds: float  # charged time; the budget for an overrun
    rc: int | None  # exit code, None when interrupted or raised
    digest: str | None  # sha256 of the captured stdout
    report: dict | None
    error: str | None  # why it failed, None if it ran to an exit code


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise BudgetExceeded


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def execute(main, argv, budget_s: float) -> Outcome:
    """Call `main(argv)` once; `install_alarm()` must have been called."""
    global _armed
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            _armed = True
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            try:
                rc = main(list(argv))
            finally:
                _armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        error = f"over budget ({budget_s:g} s)"
    except Exception as exc:  # a request that raises is a failed request
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if error is not None and error.startswith("over budget"):
        seconds = max(seconds, budget_s)
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest() if rc is not None else None
    report = None
    if rc is not None:
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            error = "report is not JSON"
    return Outcome(seconds, rc, digest, report, error)


def check(req, outcome: Outcome, golden: dict) -> str | None:
    """None if the request passed, else the reason it failed.

    `golden[req.key]` holds the exit code, the verdict and the digest.  A
    request that stalled when the table was made has verdict and digest
    null, and only its exit code is checked.
    """
    if outcome.error is not None:
        return outcome.error
    want = golden.get(req.key)
    if want is None:
        return "request missing from the golden table"
    if outcome.rc != want["rc"]:
        return f"exit code {outcome.rc}, expected {want['rc']}"
    if want["verdict"] is not None and outcome.report.get("verdict") != want["verdict"]:
        return f"verdict {outcome.report.get('verdict')!r}, expected {want['verdict']!r}"
    if want.get("sha256") is not None and outcome.digest != want["sha256"]:
        return "report digest differs from the golden table"
    if req.expect_stratum is not None:
        rec = outcome.report["checks"][0]
        if rec.get("stratum") != req.expect_stratum:
            return f"stratum {rec.get('stratum')}, constructed {req.expect_stratum}"
        if "matrix_rank" in rec and rec["matrix_rank"] != req.expect_stratum:
            return f"matrix_rank {rec['matrix_rank']}, constructed {req.expect_stratum}"
    return None
