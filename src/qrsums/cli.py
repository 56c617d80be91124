"""Command line front end.

    qrsums report <p> [--float] [--json]
    qrsums scan --from A --to B [--format csv|json] [--out PATH] [--jobs N]
    qrsums verify --from A --to B [--float] [--float-cap N]
    qrsums gauss --p P

Exit codes: 0 success, 1 verification failure, unwritable output or a
worker pool that cannot start, 2 internal invariant violation, 64 usage error,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from contextlib import closing, contextmanager
from itertools import chain, islice
from typing import IO, Iterator

from . import analytic, scan, verify
from .arith import InvariantError, OddPrime

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command that Ctrl-C ended


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is 64
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _json_float(x: float) -> float:
    # floats are published at 12 significant digits everywhere
    return float(_fmt(x))


def _check_as_dict(r: analytic.FloatCheckResult) -> dict:
    # report's checks, the only ones printed as JSON, are all real-valued
    return {
        "name": r.name,
        "computed": _json_float(r.computed),
        "reference": _json_float(r.reference),
        "residual": _json_float(r.residual),
        "tolerance": _json_float(r.tolerance),
        "pass": r.passed,
    }


def _print_check(r: analytic.FloatCheckResult, fh: IO[str]) -> None:
    if isinstance(r.computed, complex):
        computed = f"{_fmt(r.computed.real)}{r.computed.imag:+.12g}i"
        reference = f"{_fmt(r.reference.real)}{r.reference.imag:+.12g}i"
    else:
        computed = _fmt(r.computed)
        reference = _fmt(float(r.reference))
    status = "pass" if r.passed else "FAIL"
    fh.write(
        f"  {r.name:<24} computed={computed}  reference={reference}"
        f"  residual={_fmt(r.residual)}  tolerance={_fmt(r.tolerance)}  {status}\n"
    )


def _below_ceiling(name: str, value: int) -> None:
    # bounds the per-prime residue table and keeps every trig_bound decisive
    if value >= 1 << 32:
        raise UsageError(f"{name} must be < 2^32, got {value}")


def _odd_prime_arg(value: int) -> OddPrime:
    _below_ceiling("p", value)
    try:
        return OddPrime(value)
    except ValueError:
        raise UsageError(f"{value} is not an odd prime") from None


def _cmd_report(args: argparse.Namespace) -> int:
    p = _odd_prime_arg(args.p)
    if p.class_mod4 == 1:
        # the sums vanish here; that is all there is to check
        fields: dict = {"p": p.value, "class_mod8": p.class_mod8}
        heading = "vanishing checks (p = 1 mod 4):"
        checks = analytic.float_checks(p)
    else:
        row, prof, rec, h = scan.prime_record(p)
        fields = scan.row_as_dict(row)
        fields["t_expr"] = list(rec.t_expr)
        heading = "float checks:"
        checks = []
        if args.float:
            checks = analytic.float_checks(p, prof, h) + [
                analytic.bound_harmonic(p, prof),
                analytic.bound_pv(p, prof),
            ]
    out = sys.stdout
    if args.json:
        if checks:
            fields["float_checks"] = [_check_as_dict(r) for r in checks]
        out.write(json.dumps(fields, indent=2) + "\n")
    else:
        for key, value in fields.items():
            out.write(f"{key:<11} = {value}\n")
        if checks:
            out.write(heading + "\n")
            for r in checks:
                _print_check(r, out)
    return EXIT_OK if all(r.passed for r in checks) else EXIT_FAILURE


def _validate_range(lo: int, hi: int) -> None:
    if lo < 3:
        raise UsageError(f"--from must be >= 3, got {lo}")
    if hi < lo:
        raise UsageError(f"--to must be >= --from, got {lo}..{hi}")
    _below_ceiling("--to", hi)


@contextmanager
def _out_file(path: str) -> Iterator[IO[str]]:
    """A text file for --out PATH that leaves PATH as it was if the writing fails.

    A missing PATH, or a regular file once symlinks are resolved, is written
    to a temporary file beside it, which takes PATH's place (and an existing
    file's mode) only when the writing ends; on any failure it is removed.
    Anything else, such as /dev/null or a FIFO, is written in place, since
    replacing it would put a regular file where a device or a pipe was.
    """
    real = os.path.realpath(path)
    try:
        mode = os.stat(real).st_mode
    except FileNotFoundError:
        umask = os.umask(0)  # os.umask only reads the mask by setting it
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)  # as open(path, "w") would create it
    if not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(real)}.", suffix=".tmp",
                               dir=os.path.dirname(real))
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_scan(args: argparse.Namespace) -> int:
    _validate_range(args.lo, args.hi)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    writer = scan.write_csv if args.format == "csv" else scan.write_json
    # closing the rows stops scan's workers, within one prime each, if the
    # writer fails or Ctrl-C arrives
    with closing(scan.scan_rows(args.lo, args.hi, jobs=args.jobs)) as pending:
        # the first row starts any pool; until it exists nothing is written
        rows = chain(list(islice(pending, 1)), pending)
        if args.out is None:
            writer(rows, sys.stdout)
            return EXIT_OK
        try:
            with _out_file(args.out) as fh:
                writer(rows, fh)
        except OSError as exc:
            sys.stderr.write(f"qrsums: cannot write {args.out}: {exc}\n")
            return EXIT_FAILURE
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    _validate_range(args.lo, args.hi)
    cap = args.float_cap
    _below_ceiling("--float-cap", cap)
    report = verify.run_verify(args.lo, args.hi, with_float=args.float, float_cap=cap)
    out = sys.stdout
    lo, hi = report.range
    out.write(f"range          = [{lo}, {hi}]\n")
    out.write(f"primes_checked = {report.primes_checked}\n")
    out.write(f"checks_run     = {report.checks_run}\n")
    out.write(f"failures       = {len(report.failures)}\n")
    for f in report.failures:
        out.write(f"  p={f.p} {f.check}: expected {f.expected}, got {f.actual}\n")
    out.write("errata (published vs corrected, exact value as arbiter):\n")
    for e in report.errata_confirmations:
        tag = "disagrees" if e.discrepant else "agrees (branch unaffected)"
        out.write(
            f"  {e.identity:<22} p={e.prime:<3} published={e.published_value:<6} "
            f"corrected={e.corrected_value:<6} exact={e.exact_value:<6} "
            f"published {tag}\n"
        )
    out.write("result         = " + ("PASS\n" if report.ok else "FAIL\n"))
    return EXIT_OK if report.ok else EXIT_FAILURE


def _cmd_gauss(args: argparse.Namespace) -> int:
    p = _odd_prime_arg(args.p)
    try:
        checks = analytic.gauss_sum_checks(p)
    except ValueError as exc:  # its class and cost guards, raised before any work
        raise UsageError(str(exc)) from None
    out = sys.stdout
    for r in checks:
        _print_check(r, out)
    worst = max(r.residual for r in checks)
    ok = all(r.passed for r in checks)
    out.write(
        f"p={p.value}: {len(checks)} sums, max residual {_fmt(worst)}, "
        f"tolerance {_fmt(analytic.gauss_tolerance(p.value))}, "
        + ("PASS\n" if ok else "FAIL\n")
    )
    return EXIT_OK if ok else EXIT_FAILURE


def _build_parser() -> _Parser:
    parser = _Parser(prog="qrsums", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="all statistics of one prime")
    rep.add_argument("p", type=int)
    rep.add_argument("--float", action="store_true")
    rep.add_argument("--json", action="store_true")
    rep.set_defaults(func=_cmd_report)

    sc = sub.add_parser("scan", help="one row per prime = 3 (mod 4) in a range")
    sc.add_argument("--from", dest="lo", type=int, required=True)
    sc.add_argument("--to", dest="hi", type=int, required=True)
    sc.add_argument("--format", choices=("csv", "json"), default="csv")
    sc.add_argument("--out", default=None)
    sc.add_argument("--jobs", type=int, default=1)
    sc.set_defaults(func=_cmd_scan)

    ver = sub.add_parser("verify", help="run the full identity suite on a range")
    ver.add_argument("--from", dest="lo", type=int, required=True)
    ver.add_argument("--to", dest="hi", type=int, required=True)
    ver.add_argument("--float", action="store_true")
    ver.add_argument("--float-cap", dest="float_cap", type=int, default=verify.FLOAT_CAP)
    ver.set_defaults(func=_cmd_verify)

    ga = sub.add_parser("gauss", help="exponential sums for every k mod p")
    ga.add_argument("--p", type=int, required=True)
    ga.set_defaults(func=_cmd_gauss)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # a full disk surfaces here, not in the interpreter's final flush
        sys.stdout.flush()
        return code
    except UsageError as exc:
        sys.stderr.write(f"qrsums: {exc}\n")
        return EXIT_USAGE
    except InvariantError as exc:
        sys.stderr.write(f"qrsums: internal invariant violation: {exc}\n")
        return EXIT_INTERNAL
    except scan.PoolStartError as exc:
        sys.stderr.write(f"qrsums: {exc}\n")
        return EXIT_FAILURE
    except BrokenPipeError:
        # the reader closed stdout early (`qrsums scan ... | head`)
        _discard_stdout()
        return EXIT_FAILURE
    except OSError as exc:
        # stdout could not take the output (`qrsums ... > /dev/full`); the
        # commands handle the errors of every file they open themselves
        sys.stderr.write(f"qrsums: cannot write output: {exc}\n")
        _discard_stdout()
        return EXIT_FAILURE
    except KeyboardInterrupt:
        # Ctrl-C; by now scan's pool is joined and an --out temporary file removed
        sys.stderr.write("qrsums: interrupted\n")
        try:
            sys.stdout.flush()
        except OSError:
            _discard_stdout()
        return EXIT_INTERRUPTED


def _discard_stdout() -> None:
    # point fd 1 at devnull so the interpreter's final flush of what stdout
    # still buffers has nowhere to fail
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
