"""Command line interface.

Subcommands: map, simulate, compare, calibrate, fsm-export, report.

Exit codes: 0 success, 1 the reader closed the output pipe, 2 input error
(a ``DocumentError``: a document that cannot be read or decoded, a bad
scenario or target field, an unknown policy name, the same policy twice
in compare, missing node_mapping; or an ``OSError``: a path that cannot
be opened), 3 validation error (any other ``ValueError``: a bad graph,
node_mapping or platform field, or documents that parse but are
inconsistent), 4 calibration residual above threshold.  The
environment variable TOPOMAP_SEED, when set, overrides the scenario seed
for simulate and compare.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .calibrate import calibrate, load_targets, result_to_json
from .documents import DocumentError
from .gateway import transition_table
from .graph import load_document
from .mapping import MappingPolicy, map_communication, mapping_report
from .platform_model import PlatformModel
from .scenario import Scenario, load_scenario
from .simulator import compare_grid, compare_means, compare_to_csv, compute_stats, simulate, stats_to_csv, write_trace_csv


@contextmanager
def _text_out(path: str | None):
    """The text stream an output option names: stdout for none or ``-``, else the file, as UTF-8."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_text(path: str | None, text: str):
    with _text_out(path) as out:
        out.write(text)


def _load_platform(path: str | None) -> PlatformModel:
    if path is None:
        return PlatformModel()
    return PlatformModel.load(path)


def _seeded(scenario: Scenario) -> Scenario:
    raw = os.environ.get("TOPOMAP_SEED")
    try:
        return scenario if raw is None else replace(scenario, seed=int(raw))
    except ValueError:
        raise DocumentError(f"TOPOMAP_SEED must be an integer, got {raw!r}") from None


# -- subcommands -------------------------------------------------------------


def cmd_map(args) -> int:
    graph, node_mapping = load_document(args.graph)
    if node_mapping is None:
        raise DocumentError(f"graph document {args.graph!r}: missing required field 'node_mapping'")
    policy = DocumentError.member(args.policy, "policy", MappingPolicy)
    platform = _load_platform(args.platform)
    comm_mapping, rationales = map_communication(graph, node_mapping, policy, platform)
    report = mapping_report(graph, node_mapping, comm_mapping, rationales)
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_simulate(args) -> int:
    if args.trace == args.stats == "-":
        raise DocumentError("--trace and --stats cannot both write to stdout: the two CSVs would run together")
    if args.trace and args.stats and "-" not in (args.trace, args.stats):
        if Path(args.trace).resolve() == Path(args.stats).resolve():
            raise DocumentError(
                f"--trace and --stats name one file {args.trace!r}: the stats CSV would overwrite the trace"
            )
    scenario = load_scenario(args.scenario)
    platform = _load_platform(args.platform)
    result = simulate(_seeded(scenario), platform)
    if args.trace:
        with _text_out(args.trace) as out:
            write_trace_csv(result, out)
    if args.stats:
        _write_text(args.stats, stats_to_csv(compute_stats(result)))
    # a CSV on stdout must stay parseable, so the summary then goes to stderr
    summary_to = sys.stderr if "-" in (args.trace, args.stats) else sys.stdout
    print(f"simulated {len(result.trace)} events, {len(result.deliveries)} deliveries", file=summary_to)
    return 0


def cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    platform = _load_platform(args.platform)
    names = [p.strip() for p in args.policies.split(",")]
    if len(names) != 2:
        raise DocumentError("--policies expects exactly two comma-separated policy names")
    policy_a, policy_b = (DocumentError.member(n, "policy", MappingPolicy) for n in names)
    if policy_a is policy_b:
        raise DocumentError(f"--policies names {policy_a.value!r} twice: compare needs two different policies")
    compare = compare_grid if scenario.grid is not None else compare_means
    header, rows = compare(_seeded(scenario), platform, policy_a, policy_b)
    _write_text(args.out, compare_to_csv(header, rows))
    return 0


def cmd_calibrate(args) -> int:
    targets, threshold = load_targets(args.targets)
    result = calibrate(targets, threshold=threshold)
    _write_text(args.out, result_to_json(result))
    # the JSON on stdout must stay parseable, so the residual lines then go to stderr
    residuals_to = sys.stderr if args.out in (None, "-") else sys.stdout
    for row in result.residuals:
        status = "ok" if row["ok"] else "MISS"
        print(
            f"{row['publisher_kind']}->{row['measure']} size={row['size_bytes']} "
            f"hw_subs={row['hw_subs']} sw_subs={row['sw_subs']}: simulated {row['simulated_speedup']:.3f} "
            f"vs target {row['target_speedup']:.3f} ({row['rel_error']:+.1%}) {status}",
            file=residuals_to,
        )
    if not result.ok:
        print(f"calibration residual above threshold {threshold:.0%}", file=sys.stderr)
        return 4
    return 0


def cmd_fsm_export(args) -> int:
    _write_text(args.out, json.dumps(transition_table(), indent=2) + "\n")
    return 0


def cmd_report(args) -> int:
    reader = csv.DictReader(io.StringIO(DocumentError.load(args.infile, str, newline=""), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        # DictReader counts a line once its row is built; its reader, once the line is read
        raise DocumentError(f"{args.infile!r} line {reader.reader.line_num}: {exc}") from None
    if not rows:
        raise DocumentError(f"{args.infile!r}: empty comparison document")
    required = {"publisher_kind", "size_bytes", "hw_subs", "speedup_hw", "speedup_sw"}
    missing = required - set(rows[0][1])
    if missing:
        raise DocumentError(f"{args.infile!r}: not a grid comparison (missing columns {sorted(missing)})")
    for line, row in rows:
        # the kind names the output files, so it must not carry a path
        DocumentError.side(row["publisher_kind"], ("{!r} line {}: publisher_kind", args.infile, line))
        for column in ("size_bytes", "hw_subs"):
            try:
                row[column] = int(row[column])
            except (TypeError, ValueError):
                raise DocumentError(
                    f"{args.infile!r} line {line}: column {column!r} must be an integer, got {row[column]!r}"
                ) from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for side in ("hw", "sw"):
        col = f"speedup_{side}"
        series: dict[str, dict[int, dict[int, str]]] = {}
        for _, row in rows:
            if not row[col]:
                continue
            pub = row["publisher_kind"]
            series.setdefault(pub, {}).setdefault(row["size_bytes"], {})[row["hw_subs"]] = row[col]
        for pub, by_size in sorted(series.items()):
            ns = sorted({n for cells in by_size.values() for n in cells})
            path = out_dir / f"speedup_{pub}_to_{side}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["size_bytes"] + [f"n{n}" for n in ns])
                for size in sorted(by_size):
                    writer.writerow([size] + [by_size[size].get(n, "") for n in ns])
            written.append(str(path))
    for path in written:
        print(path)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topomap",
        description="Map pub-sub topics onto transports and simulate the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="assign every topic a transport implementation")
    p.add_argument("--graph", required=True, help="graph document (JSON, with node_mapping)")
    p.add_argument("--policy", required=True, help="cost | multi-hw-sub | smt")
    p.add_argument("--platform", help="platform document to derive the cost model from")
    p.add_argument("--out", help="mapping report path (default: stdout)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("simulate", help="run one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--platform", help="platform document: simulated timing and the cost model")
    p.add_argument("--trace", help="stream the event trace CSV here ('-' for stdout)")
    p.add_argument("--stats", help="write per-(topic, subscriber) latency stats CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run a scenario under two policies")
    p.add_argument("--scenario", required=True)
    p.add_argument("--platform", help="platform document: simulated timing and the cost model")
    p.add_argument("--policies", required=True, help="two policy names, comma separated")
    p.add_argument("--out", help="comparison CSV path (default: stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("calibrate", help="fit platform parameters to speedup targets")
    p.add_argument("--targets", required=True)
    p.add_argument("--out", help="calibration result JSON path (default: stdout)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fsm-export", help="dump the gateway transition table as JSON")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_fsm_export)

    p = sub.add_parser("report", help="pivot a grid comparison CSV into speedup series")
    p.add_argument("--in", dest="infile", required=True, help="comparison CSV from 'compare'")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


@contextmanager
def _one_line_warnings():
    """Print each warning as one ``warning:`` line, then restore the interpreter's format.

    Only the format changes, so whoever records warnings still records them.
    """
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        yield
    finally:
        warnings.formatwarning = formatwarning


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _one_line_warnings():
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's final flush
            return code
        except BrokenPipeError:
            # the reader closed the output pipe: point stdout at devnull, so that the
            # interpreter's final flush of what stays buffered cannot fail again
            try:
                fd = sys.stdout.fileno()
            except (AttributeError, OSError, ValueError):  # no descriptor, e.g. an in-memory stream
                return 1
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
            return 1
        except (DocumentError, OSError) as exc:  # OSError: a path that cannot be read or written
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:  # a field out of range or an inconsistent document
            print(f"error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
