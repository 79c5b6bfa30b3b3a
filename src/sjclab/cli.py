"""Command-line entry point: ``sjc <suite> [flags]``.

The suites, their flags, defaults and allowed ranges come from
``suites.SUITES``.  Writes ``report.json`` (and suite-specific CSV files)
into ``--out-dir``.  Exit status: 0 when every check passes, 1 when the
report lists a failing check, 2 on bad input (a ``ValueError`` or
``OSError``, also from an ``--out-dir`` that cannot be written; one
``error:`` line), 3 on an internal fault (any other
exception, one ``internal error:`` line naming the suite and the exception
type); 2 and 3 write no report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import suites


def _write_outputs(report_text: str, csvs: dict[str, list[str]], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, rows in csvs.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write("\n".join(rows) + "\n")
    # the report last, so that a write that fails leaves none
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report_text)


def _print_report(report: dict) -> None:
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        extra = "" if check["value"] is None else f" (value={check['value']})"
        print(f"[{status}] {check['name']}{extra}")
    print(f"suite {report['suite']}: {'PASS' if report['passed'] else 'FAIL'}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sjc`` parser, built once per process from the suite table."""
    ap = argparse.ArgumentParser(
        prog="sjc",
        description="Verification suites for the super J-holomorphic curve laboratory",
    )
    ap.add_argument("--out-dir", default=None, help="directory for report.json and CSV outputs")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=argparse.SUPPRESS, dest="out_dir")
    sub = ap.add_subparsers(dest="suite", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))
    for name, suite in suites.SUITES.items():
        p = sub.add_parser(name, help=suite.help)
        for param in suite.params:
            help_line = f"{param.help} ({param.allowed})" if param.allowed else param.help
            p.add_argument(param.flag, type=param.type, default=param.default, choices=param.choices, help=help_line)
    return ap


def main(argv: list[str] | None = None) -> int:
    params = vars(build_parser().parse_args(argv))
    out_dir = params.pop("out_dir") or "."
    suite = params.pop("suite")
    try:
        report, csvs = suites.run(suite, params)
        # NaN and infinity are not JSON numbers: a stray one fails here, before any file is opened
        report_text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
        _write_outputs(report_text, csvs, out_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = str(exc).partition("\n")[0]
        print(f"internal error: suite {suite} raised {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3
    _print_report(report)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
