"""Command-line entry point.

Commands: init, run, replay, classify, digest. digest verifies the log
exactly as replay does, then prints the final state digest. Exit codes:
0 success, 1 assertion failure or detected divergence, 2 malformed input or
unreadable log. Malformed input is any file that is not JSON, nests too
deeply to parse, or holds a value of the wrong shape or JSON type.
Per-transaction rejections are receipts, never process errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import ledger, rules, scenario
from .model import ModelError, classify_level, read_json, tx_from_json

def _error(args: argparse.Namespace, message: str) -> int:
    """Report malformed input or an unusable log directory: one line on
    stderr, nothing under --quiet. Returns exit code 2."""
    if not args.quiet:
        print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(args: argparse.Namespace, human: str, machine: dict) -> None:
    if args.quiet:
        return
    if args.json:
        print(json.dumps(machine, sort_keys=True))
    else:
        print(human)


def cmd_init(args: argparse.Namespace) -> int:
    try:
        cfg = rules.SystemConfig.from_json(read_json(Path(args.genesis).read_bytes()))
    except (OSError, ModelError) as exc:
        return _error(args, f"cannot read genesis config: {exc}")
    try:
        ledger.init_log(args.logdir, cfg)
    except OSError as exc:
        return _error(args, f"cannot create log directory: {exc}")
    _emit(args, f"initialized {args.logdir} (config {cfg.config_hash().hex()[:16]})",
          {"ok": True, "config_hash": cfg.config_hash().hex()})
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        ok, report = scenario.run_scenario(args.scenario, logdir=args.logdir)
    except ModelError as exc:
        return _error(args, str(exc))
    # Raised on the log directory: a scenario file that cannot be read is
    # a ScenarioError, which is a ModelError.
    except OSError as exc:
        return _error(args, f"cannot write log directory: {exc}")
    lines = [f"scenario {report['scenario']}: {'ok' if ok else 'FAILED'}"]
    for a in report["assertions"]:
        mark = "pass" if a["ok"] else "FAIL"
        lines.append(
            f"  step {a['step']} {a['check']}: {mark}"
            + ("" if a["ok"] else f" (expected {a['expected']}, got {a['actual']})")
        )
    lines.append(f"  batches={report['batches']} final_digest={report['final_digest']}")
    _emit(args, "\n".join(lines), report)
    return 0 if ok else 1


def _emit_replay(args: argparse.Namespace, report: ledger.ReplayReport, human_ok: str) -> int:
    if report.ok:
        _emit(args, human_ok, report.to_json())
        return 0
    if report.kind == "unreadable":
        where = f" ({report.field})" if report.field else ""
        _emit(args, f"unreadable log at batch {report.batch}{where}", report.to_json())
        return 2
    _emit(
        args,
        f"divergence at batch {report.batch}, field {report.field}: "
        f"expected {report.expected}, found {report.found}",
        report.to_json(),
    )
    return 1


def cmd_replay(args: argparse.Namespace) -> int:
    return _emit_replay(args, ledger.replay_verify(args.logdir), "replay ok")


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        tx = tx_from_json(read_json(Path(args.tx).read_bytes()))
    except (OSError, ModelError) as exc:
        return _error(args, f"cannot parse transaction: {exc}")
    label = classify_level(tx).label
    _emit(args, label, {"level": label})
    return 0


def cmd_digest(args: argparse.Namespace) -> int:
    report = ledger.replay_verify(args.logdir)
    return _emit_replay(args, report, report.digest)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tierledger", description=__doc__)
    p.add_argument("--quiet", action="store_true", help="suppress normal output")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("init", help="create a log directory from a genesis config")
    sp.add_argument("genesis")
    sp.add_argument("logdir")
    sp.set_defaults(func=cmd_init)

    sp = sub.add_parser("run", help="execute a scenario file against a fresh log")
    sp.add_argument("scenario")
    sp.add_argument("logdir")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("replay", help="re-execute a log and verify every header")
    sp.add_argument("logdir")
    sp.set_defaults(func=cmd_replay)

    sp = sub.add_parser("classify", help="print the programmability level of a transaction file")
    sp.add_argument("tx")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("digest", help="verify a log like replay and print the final state digest")
    sp.add_argument("logdir")
    sp.set_defaults(func=cmd_digest)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
