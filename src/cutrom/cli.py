"""Command line interface: offline, online, report, verify.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, NumericalError
from .pipeline import run_offline, run_online, run_verify
from .storage import parse_config, read_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutrom",
        description="CutFEM optimal control with a POD-DEIM reduced model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("offline", "snapshots, POD, DEIM, reduced terms"),
                      ("online", "full-vs-ROM assessment and reports"),
                      ("report", "print a summary of persisted reports"),
                      ("verify", "run the invariant suite on a bundle")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="key=value file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name == "online":
            p.add_argument("--modes", type=int, default=None,
                           help="per-variable POD truncation override")
            p.add_argument("--deim-dims", default=None,
                           help="override DEIM dimensions as 'a,m,b,c'")
    return parser


def _parse_deim_dims(text: str) -> dict[str, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--deim-dims expects four integers 'a,m,b,c'")
    try:
        vals = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad --deim-dims value: {text!r}") from exc
    if min(vals) < 1:
        raise ConfigError("--deim-dims values must be positive")
    return dict(zip(("A", "M", "b", "c"), vals))


def _cmd_report(out_dir: Path) -> None:
    summary = out_dir / "offline_summary.csv"
    if not summary.is_file():
        raise ConfigError(f"no offline summary in {out_dir}; run offline")
    _, rows = read_csv(summary)
    print("offline summary")
    for record, comp, _idx, value in rows:
        if record in ("ever_active_dofs", "ever_active_entries",
                      "pod_retained", "deim_dim", "reduced_mesh_elements",
                      "reduced_mesh_facets", "reduced_dim"):
            print(f"  {record:24s} {comp:2s} {value}")
    online = out_dir / "online_errors.csv"
    if online.is_file():
        header, rows = read_csv(online)
        cols = list(zip(*rows))
        print(f"online errors over {len(rows)} test parameters (means)")
        for name, col in zip(header[1:], cols[1:]):
            mean = sum(float(v) for v in col) / len(col)
            print(f"  {name:12s} {mean:.6e}")
    timings = out_dir / "timings.csv"
    if timings.is_file():
        _, rows = read_csv(timings)
        print("timings")
        for name, value in rows:
            print(f"  {name:24s} {float(value):.6g}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
        if args.command == "offline":
            run_offline(cfg, out_dir)
            print(f"offline bundle written to {out_dir}")
        elif args.command == "online":
            if args.modes is not None and args.modes < 1:
                raise ConfigError("--modes must be at least 1")
            dims = _parse_deim_dims(args.deim_dims) if args.deim_dims \
                else None
            run_online(cfg, out_dir, modes=args.modes, deim_dims=dims)
            print(f"online reports written to {out_dir}")
        elif args.command == "report":
            _cmd_report(out_dir)
        elif args.command == "verify":
            checks = run_verify(cfg, out_dir)
            failed = [c for c in checks if not c[1]]
            for name, ok, detail in checks:
                status = "PASS" if ok else "FAIL"
                print(f"{status} {name} {detail}".rstrip())
            if failed:
                raise NumericalError(f"{len(failed)} invariant checks failed")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
