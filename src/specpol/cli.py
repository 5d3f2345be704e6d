"""Command-line front end.

Subcommands reach every function that ``specpol`` exports except a few
library-only ones: ``LIBRARY_ONLY`` in ``tests/test_cli.py`` names them with
their reasons, and the test there measures the reach of every subcommand
under a profiler.  Each subcommand but ``sweep`` has a human-readable format
and a canonical JSON format (``--json``): sorted keys, sorted arrays, no
whitespace, so identical inputs always produce identical bytes.  ``sweep k``
prints, for each pair of ``candidate_region(k)`` (or each ``n,d`` pair
given), the block that ``search n d k`` prints and a blank line; its
canonical bytes are those of ``search n d k --json``, pair by pair.  A pair
with k > (d-1)^n is one ``infeasible`` line and the sweep goes on; a pair
that the search refuses stops it with status 2, after the blocks before it.

Rationals on the command line are written ``p/q`` or as plain integers;
``-inf`` and ``+inf`` are accepted where a ray endpoint makes sense.  Exit
status is 0 on success (verdicts such as a failed check are data, not exit
codes) and 2 on a usage or argument error; output into a pipe whose reader
has gone stops quietly with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from . import bounds, catalog, polar, search, semicontinuity, spectrum
from .polar import Configuration, InfeasibleConfigurationError
from .search import SearchFilters
from .spectrum import NEG_INF, POS_INF, Spectrum

__all__ = ["main", "run"]


# Every search runs in this process; --workers is kept so that existing
# command lines, and the tests that pin their bytes, still run.
_WORKERS_HELP = "accepted and checked (must be >= 1), but every search runs in one process"


def _parse_rational(text: str) -> Fraction:
    # Fraction reads "1e999999999" as 10^999999999 and builds that power first
    if "e" in text.lower():
        raise ValueError(f"malformed rational {text!r}; write p/q or an integer")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def _parse_bound(text: str):
    if text in ("-inf", "-oo"):
        return NEG_INF
    if text in ("+inf", "inf", "+oo"):
        return POS_INF
    return _parse_rational(text)


def _source_int(source: str, field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad spectrum source {source!r}: {field} must be an integer, got {text!r}") from None


def _load_spectrum(source: str) -> Spectrum:
    """A spectrum source: germ:<class>[:<vars>], fermat:<n>:<d>, a file, or -."""
    if source.startswith("germ:"):
        parts = source.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad germ source {source!r}; use germ:<class>[:<vars>]")
        ambient = _source_int(source, "<vars>", parts[2]) if len(parts) == 3 else 2
        return catalog.germ_spectrum(catalog.parse_germ(parts[1], ambient))
    if source.startswith("fermat:"):
        return catalog.fermat_spectrum(*_fermat_source(source))
    text = sys.stdin.read() if source == "-" else Path(source).read_text()
    return Spectrum.from_json(text)


def _fermat_source(source: str) -> tuple[int, int]:
    parts = source.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad fermat source {source!r}; use fermat:<n>:<d>")
    return _source_int(source, "<n>", parts[1]), _source_int(source, "<d>", parts[2])


def _fermat_size(source: str) -> int | None:
    """Distinct spectral numbers of a valid fermat:<n>:<d> source, n(d-2)+1; else None."""
    if not source.startswith("fermat:"):
        return None
    n, d = _fermat_source(source)
    return n * (d - 2) + 1 if n >= 1 and d >= 2 else None


def _join_sources(left: str, right: str) -> Spectrum:
    """The join of two sources, refused over its pair budget before a diagonal germ is built.

    A fermat source's size is known from n and d; every other source is
    loaded first, and the fermat sources only once the budget holds.
    """
    sources = (left, right)
    sizes = [_fermat_size(source) for source in sources]
    spectra = [_load_spectrum(s) if size is None else None for s, size in zip(sources, sizes)]
    spectrum._check_join_size(
        *(len(s.nums) if size is None else size for s, size in zip(spectra, sizes))
    )
    return spectrum.join(
        *(_load_spectrum(source) if s is None else s for source, s in zip(sources, spectra))
    )


def _load_configuration(value: str) -> Configuration:
    text = value if value.lstrip().startswith("{") else Path(value).read_text()
    return Configuration.from_json(text)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _print_spectrum(s: Spectrum, as_json: bool, center: Fraction | None = None) -> None:
    if as_json:
        print(s.to_json())
        return
    for alpha, mult in s:
        print(f"{alpha}\t{mult}")
    print(f"total\t{s.total()}")
    if s:
        print(f"min\t{s.min_spectral()}")
    if center is not None:
        print(f"symmetric about {center}\t{s.is_symmetric(center)}")


def _cmd_spectrum(args) -> int:
    if args.which == "germ":
        g = catalog.parse_germ(args.cls, args.vars)
        _print_spectrum(
            catalog.germ_spectrum(g), args.json, Fraction(args.vars - 2, 2)
        )
    elif args.which == "fermat":
        _print_spectrum(
            catalog.fermat_spectrum(args.n, args.d), args.json,
            Fraction(args.n - 2, 2),
        )
    else:
        _print_spectrum(_join_sources(args.left, args.right), args.json)
    return 0


def _cmd_deg(args) -> int:
    s = _load_spectrum(args.source)
    value = spectrum.deg_window(
        s,
        _parse_bound(getattr(args, "from")),
        _parse_bound(args.to),
        args.left == "open",
        args.right == "open",
    )
    if args.json:
        _emit_json({"degree": value})
    else:
        print(value)
    return 0


def _cmd_pol(args) -> int:
    # parsed under the int digit limit, so an over-long number in the input
    # still exits 2; the exact result may exceed it, so it is lifted for output
    # (0 means no limit, as on Python before 3.10.7, which has no such call)
    config = _load_configuration(args.config)
    value = polar.polar_degree(config)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.json:
            _emit_json(
                {
                    "polar_degree": value,
                    "total_milnor": config.total_milnor,
                    "smooth_milnor": config.smooth_milnor,
                }
            )
        else:
            print(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _cmd_check(args) -> int:
    config = _load_configuration(args.config)
    # no hypersurface has a total Milnor number over (d-1)^n: refused as pol refuses it
    polar.polar_degree(config)
    report = semicontinuity.check_configuration(config, not args.no_open_variant)
    if args.json:
        _emit_json(report.to_json_obj())
        return 0
    print(f"configuration {config}")
    print(f"holds: {report.holds}  (windows tested: {report.breakpoints_checked})")
    for v in report.violations:
        shape = "]" if v.closed else "["
        print(f"  violated ]{v.a}, {v.a + 1}{shape}: candidate {v.lhs} > target {v.rhs}")
    return 0


def _make_filters(disabled: list[str]) -> SearchFilters:
    known = {"huh", "semicontinuity", "open-variant"}
    unknown = set(disabled) - known
    if unknown:
        raise ValueError(f"unknown filter name(s) {sorted(unknown)}; choose from {sorted(known)}")
    return SearchFilters(
        huh="huh" not in disabled,
        semicontinuity="semicontinuity" not in disabled,
        open_variant="open-variant" not in disabled,
    )


def _cmd_search(args) -> int:
    whitelist = tuple(f.strip() for f in args.whitelist.split(",") if f.strip())
    if not whitelist:
        raise ValueError(f"--whitelist {args.whitelist!r} names no family; choose from A, D, E, J")
    report = search.enumerate_configurations(
        args.n,
        args.d,
        args.k,
        whitelist=whitelist,
        filters=_make_filters(args.no_filter),
        workers=args.workers,
    )
    if args.json:
        _emit_json(report.to_json_obj())
    else:
        _print_search(report)
    return 0


def _print_search(report: search.SearchReport) -> None:
    print(f"search n={report.n} d={report.d} k={report.k}  target mu = {report.target_mu}")
    print(f"filters: {', '.join(report.filters_applied) or 'none'}")
    print(f"examined {report.examined} complete configurations; pruned: "
          + ", ".join(f"{name}={count}" for name, count in report.pruned_by))
    for label, deg in report.diagnostic_windows:
        print(f"target degree over {label}: {deg}")
    print(f"survivors ({len(report.survivors)} candidates):")
    for config in report.survivors:
        print(f"  {config}")


def _pair(text: str) -> tuple[int, int]:
    # checked here, so that no pair is searched before a bad one is refused
    try:
        n, d = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a pair n,d of integers, got {text!r}") from None
    if n < 2 or d < 2:
        raise argparse.ArgumentTypeError(f"need n >= 2 and d >= 2, got {text!r}")
    return n, d


def _cmd_sweep(args) -> int:
    k = args.k
    for n, d in args.pairs or sorted(bounds.candidate_region(k).pairs):
        try:
            report = search.enumerate_configurations(n, d, k)
        except InfeasibleConfigurationError as exc:
            print(f"search n={n} d={d} k={k}  infeasible: {exc}")
        except ValueError as exc:
            raise ValueError(f"(n={n}, d={d}, k={k}): {exc}") from None
        else:
            _print_search(report)
        print()
    return 0


def _cmd_region(args) -> int:
    region = bounds.candidate_region(args.k)
    if args.json:
        _emit_json(region.to_json_obj())
        return 0
    print(f"candidate (n, d) region for polar degree {region.k}: {len(region.pairs)} pairs")
    for n, d in sorted(region.pairs):
        print(f"  ({n}, {d})")
    by_tag = Counter(by for _, _, by in region.exclusion_log)
    print(f"excluded pairs in scanned rectangle: {len(region.exclusion_log)} ("
          + ", ".join(f"{tag}: {count}" for tag, count in sorted(by_tag.items())) + ")")
    for note in region.notes:
        print(f"note: {note}")
    return 0


def _cmd_verify_huh(args) -> int:
    verification = search.verify_huh_lists(workers=args.workers)
    if args.json:
        _emit_json(verification.to_json_obj())
        return 0
    ok = sum(1 for e in verification.entries if e.ok)
    for e in verification.entries:
        status = "pass" if e.ok else f"FAIL ({e.diagnosis()})"
        print(f"{e.key:<10} {e.configuration}  pol={e.expected_pol}  {status}")
    print(f"{ok}/{len(verification.entries)} entries pass")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error:`` line and exit 2.

    Subparsers are made with the class of their parent, so they inherit it.
    """

    def error(self, message: str):
        # "unrecognized arguments" quotes the arguments as given, newlines too
        self.exit(2, f"error: {message}".replace("\n", "\\n") + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specpol",
        description="Exact singularity spectra, polar degrees and semicontinuity searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="print a germ or diagonal-germ spectrum")
    spec_sub = p_spec.add_subparsers(dest="which", required=True)
    p_germ = spec_sub.add_parser("germ", help="catalog germ spectrum")
    p_germ.add_argument("cls", help="class string, e.g. A2, D5, E7, J2_4")
    p_germ.add_argument("--vars", type=int, default=2, help="ambient variable count")
    p_germ.add_argument("--json", action="store_true")
    p_germ.set_defaults(func=_cmd_spectrum)
    p_fermat = spec_sub.add_parser("fermat", help="diagonal germ x_1^d + ... + x_n^d")
    p_fermat.add_argument("n", type=int)
    p_fermat.add_argument("d", type=int)
    p_fermat.add_argument("--json", action="store_true")
    p_fermat.set_defaults(func=_cmd_spectrum)
    p_join = spec_sub.add_parser("join", help="join of two spectra (totals multiply)")
    p_join.add_argument("left", help="spectrum source (germ:..., fermat:..., file, -)")
    p_join.add_argument("right", help="spectrum source")
    p_join.add_argument("--json", action="store_true")
    p_join.set_defaults(func=_cmd_spectrum)

    p_deg = sub.add_parser("deg", help="interval degree of a spectrum")
    p_deg.add_argument("source", help="germ:<class>[:<vars>], fermat:<n>:<d>, file, or -")
    p_deg.add_argument("--from", required=True,
                       help="left endpoint: p/q or -inf (write --from=-1/3 for negatives)")
    p_deg.add_argument("--to", required=True,
                       help="right endpoint: p/q or +inf (write --to=-1/2 for negatives)")
    p_deg.add_argument("--left", choices=("open", "closed"), default="open")
    p_deg.add_argument("--right", choices=("open", "closed"), default="open")
    p_deg.add_argument("--json", action="store_true")
    p_deg.set_defaults(func=_cmd_deg)

    p_pol = sub.add_parser("pol", help="polar degree of a configuration")
    p_pol.add_argument("--config", required=True, help="configuration JSON (inline or file)")
    p_pol.add_argument("--json", action="store_true")
    p_pol.set_defaults(func=_cmd_pol)

    p_check = sub.add_parser("check", help="semicontinuity check of a configuration")
    p_check.add_argument("--config", required=True, help="configuration JSON (inline or file)")
    p_check.add_argument("--no-open-variant", action="store_true",
                         help="test half-open windows only")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_search = sub.add_parser("search", help="enumerate candidate configurations")
    p_search.add_argument("n", type=int)
    p_search.add_argument("d", type=int)
    p_search.add_argument("k", type=int)
    p_search.add_argument("--whitelist", default="A,D,E,J",
                          help="comma-separated germ families (default all)")
    p_search.add_argument("--no-filter", action="append", default=[],
                          metavar="NAME", help="disable a filter (repeatable)")
    p_search.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=_cmd_search)

    p_sweep = sub.add_parser("sweep", help="search every pair of a region, or the pairs given")
    p_sweep.add_argument("k", type=int, help="polar degree")
    p_sweep.add_argument("pairs", nargs="*", type=_pair, metavar="n,d",
                         help="pairs to search, e.g. 5,3 (default: every pair of the region for k)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_region = sub.add_parser("region", help="finite candidate (n, d) region for one k")
    p_region.add_argument("k", type=int)
    p_region.add_argument("--json", action="store_true")
    p_region.set_defaults(func=_cmd_region)

    p_verify = sub.add_parser("verify-huh", help="verify the bundled reference lists")
    p_verify.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify_huh)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # the reader is gone, not an argument error: main stops quietly
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): point stdout at devnull so the
        # flush at interpreter exit does not raise again, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
