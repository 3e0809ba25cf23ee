"""Command-line front end: verification, sampling, and efficiency reports.

    hyper-rsp verify --protocol pf --params 0.6 0.8 0.28 0.96
    hyper-rsp sample --protocol tb --params random --seed 7 --eta-d 0.8 --trials 100000
    hyper-rsp efficiency --format json

Exit codes: 0 success, 1 verification failure, 2 usage or configuration error.
Reports are emitted as json, csv, or an aligned table; amplitudes are printed
as (re, im) pairs with 12 significant digits in canonical basis order, so
emitted JSON re-parses to bit-identical numbers.

The json text is ``json.dumps(report, indent=2)`` byte for byte, but only the
report's shape goes through json's indenting (pure-Python) encoder, once per
shape: each call encodes the scalars with the C encoder in one list and fills
them into the cached indented layout.  ``json`` and ``csv`` are imported on
first use, so a table report loads neither.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import re
import sys

from . import protocols
from .efficiency import protocol_efficiency, protocol_inputs
from .protocols import BranchReport, derive_correction, outcome_registry, run_protocol
from .runtime import chunk_generator, encode_outcome, sample_with_loss
from .states import ProtocolKind, StateVector, TargetParams, receiver_schema

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1

#: Philox stream index reserved for drawing random target parameters.
PARAMS_STREAM = 2**32

#: argparse's own matcher misses exponent forms such as -3.2e-05.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _state_amplitudes(state: StateVector) -> list[list[float]]:
    """Canonical-order (re, im) pairs, 12 significant digits."""
    amplitude = state.amplitudes.get
    return [
        [_round12(amp.real), _round12(amp.imag)]
        for amp in (amplitude(label, 0j) for label in state.schema.canonical_labels)
    ]


def _params_dict(params: TargetParams) -> dict:
    fields = (field for pair in TargetParams.PAIRS.values() for field in pair)
    return {field: _round12(getattr(params, field)) for field in fields}


def random_params(seed: int) -> TargetParams:
    """Reproducible random target: three angles from the documented generator."""
    return TargetParams.random(chunk_generator(seed, PARAMS_STREAM))


def parse_params(tokens: list[str], protocol: ProtocolKind, seed: int) -> TargetParams:
    """Four values (the receiver registers' pairs, in order), all six, or ``random``."""
    if len(tokens) == 1 and tokens[0].lower() == "random":
        return random_params(seed)
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"bad parameter value: {exc}") from None
    if len(values) == 6:
        return TargetParams(*values)
    if len(values) == 4:
        registers = receiver_schema(protocol).layout("B").registers
        fields = [field for reg in registers for field in TargetParams.PAIRS[reg.name]]
        return TargetParams(**dict(zip(fields, values)))
    raise ValueError(
        f"--params takes 4 values (per-protocol pairs), 6 values, or 'random'; got {len(values)}"
    )


# ---------------------------------------------------------------------------
# report builders


def _branch_entry(kind: ProtocolKind, branch: BranchReport, consistent: bool) -> dict:
    return {
        "outcome": {
            "polarization": branch.outcome.polarization,
            "path": branch.outcome.path,
        },
        "code": encode_outcome(kind, branch.outcome).outcome_code,
        "probability": _round12(branch.probability),
        "bob_state_pre": _state_amplitudes(branch.bob_state_pre),
        "correction": branch.correction.compact(),
        "bob_state_post": _state_amplitudes(branch.bob_state_post),
        "fidelity_post": _round12(branch.fidelity_post),
        "correction_consistent": consistent,
    }


def verify_report(kind: ProtocolKind, params: TargetParams) -> dict:
    branches = run_protocol(kind, params)
    entries = []
    first_failure = None
    for branch in branches:
        search = derive_correction(branch.bob_state_pre, branch.target)
        consistent = branch.correction in search.matches
        ok = consistent and branch.fidelity_post >= 1.0 - protocols.FIDELITY_TOL
        if not ok and first_failure is None:
            first_failure = str(branch.outcome)
        entries.append(_branch_entry(kind, branch, consistent))
    basis = [branches[0].bob_state_pre.schema.format_label(label)
             for label in branches[0].bob_state_pre.schema.canonical_labels]
    return {
        "protocol": kind.value,
        "params": _params_dict(params),
        "bob_basis": basis,
        "branches": entries,
        "all_pass": first_failure is None,
        "first_failure": first_failure,
    }


def sample_report(
    kind: ProtocolKind, params: TargetParams, eta_d: float, trials: int, seed: int
) -> dict:
    stats = sample_with_loss(kind, params, eta_d, trials, seed)
    mean_fid = stats.mean_fidelity_on_detected
    return {
        "protocol": kind.value,
        "params": _params_dict(params),
        "stats": {
            "eta_d": _round12(stats.eta_d),
            "trials": stats.trials,
            "detected": stats.detected,
            "success_rate": _round12(stats.success_rate),
            "mean_fidelity_on_detected": None if math.isnan(mean_fid) else _round12(mean_fid),
            "seed": stats.seed,
        },
        "outcome_counts": {
            str(outcome): count
            for outcome, count in zip(outcome_registry(kind), stats.outcome_counts)
        },
    }


def efficiency_report() -> dict:
    entries = {}
    for kind in ProtocolKind:
        fraction = protocol_efficiency(kind)
        inputs = protocol_inputs(kind)
        entries[kind.value] = {
            "efficiency": str(fraction),
            "numerator": fraction.numerator,
            "denominator": fraction.denominator,
            "transmitted_qubits": inputs.transmitted_qubits,
            "channel_qubits": inputs.channel_qubits,
            "classical_bits": inputs.classical_bits,
        }
    return {"protocols": entries}


# ---------------------------------------------------------------------------
# renderers


def _verify_table(report: dict) -> str:
    lines = [
        f"protocol {report['protocol']}  params "
        + " ".join(f"{k}={v:g}" for k, v in report["params"].items()),
        f"bob basis: {'  '.join(report['bob_basis'])}",
        f"{'outcome':<8}{'code':<6}{'probability':<14}{'correction':<12}"
        f"{'fidelity':<10}{'consistent'}",
    ]
    for entry in report["branches"]:
        outcome = f"{entry['outcome']['polarization']}@{entry['outcome']['path']}"
        lines.append(
            f"{outcome:<8}{entry['code']:<6}{entry['probability']:<14g}"
            f"{entry['correction']:<12}{entry['fidelity_post']:<10g}"
            f"{'yes' if entry['correction_consistent'] else 'NO'}"
        )
        pre = " ".join(f"({re:g},{im:g})" for re, im in entry["bob_state_pre"])
        post = " ".join(f"({re:g},{im:g})" for re, im in entry["bob_state_post"])
        lines.append(f"    pre:  {pre}")
        lines.append(f"    post: {post}")
    if report["all_pass"]:
        lines.append("verdict: PASS")
    else:
        lines.append(f"verdict: FAIL (first failing row: {report['first_failure']})")
    return "\n".join(lines) + "\n"


def _sample_table(report: dict) -> str:
    stats = report["stats"]
    mean_fid = stats["mean_fidelity_on_detected"]
    return (
        f"protocol {report['protocol']}  params "
        + " ".join(f"{k}={v:g}" for k, v in report["params"].items())
        + "\n"
        + f"eta_d {stats['eta_d']:g}  trials {stats['trials']}  detected {stats['detected']}\n"
        + f"success_rate {stats['success_rate']:.12g}\n"
        + "mean_fidelity_on_detected "
        + ("n/a" if mean_fid is None else f"{mean_fid:.12g}")
        + f"\nseed {stats['seed']}\n"
        + f"{'outcome':<8}count\n"
        + "".join(f"{outcome:<8}{count}\n" for outcome, count in report["outcome_counts"].items())
    )


def _efficiency_table(report: dict) -> str:
    lines = []
    for name, entry in report["protocols"].items():
        lines.append(
            f"{name} {entry['efficiency']}  "
            f"(qubits prepared {entry['transmitted_qubits']}, "
            f"channel qubits {entry['channel_qubits']}, "
            f"classical bits {entry['classical_bits']})"
        )
    return "\n".join(lines) + "\n"


def _cell(value):
    """CSV text of one report value; amplitude lists become ``re,im`` pairs."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return " ".join(f"{re:.12g},{im:.12g}" for re, im in value)
    return value


def _csv_rows(command: str, report: dict) -> list[dict]:
    """One dict per CSV line; key order is column order."""
    if command == "verify":
        columns = ("code", "probability", "correction", "fidelity_post",
                   "correction_consistent", "bob_state_pre", "bob_state_post")
        return [
            {"protocol": report["protocol"], **entry["outcome"],
             **{key: entry[key] for key in columns}}
            for entry in report["branches"]
        ]
    if command == "sample":
        return [{"protocol": report["protocol"], **report["stats"]}]
    return [{"protocol": name, **entry} for name, entry in report["protocols"].items()]


#: Stands for each scalar in a layout.  json escapes this control character
#: inside strings (as ``\u001f``), so in encoded text a raw one can only be a
#: separator that :func:`json_text` asked for.
_MARK = "\x1f"
_CONTAINERS = (dict, list, tuple)


def _flatten(report) -> tuple[tuple, list]:
    """``report``'s shape key, and its scalars in the order json writes them.

    The key nests as the report does: a dict is ``(dict, keys, str(keys),
    children)``, a list or tuple (json writes both as arrays) the tuple of its
    children, a scalar ``None``.  The ``str`` of the keys tells apart keys that
    compare equal but print differently, such as 1, 1.0 and True, or 0.0 and
    -0.0."""
    scalars = []
    append = scalars.append

    def walk(items) -> tuple:
        shape = []
        slot = shape.append
        for item in items:
            if not isinstance(item, _CONTAINERS):
                append(item)
                slot(None)
            elif isinstance(item, dict):
                slot((dict, tuple(item), tuple(map(str, item)), walk(item.values())))
            else:
                slot(walk(item))
        return tuple(shape)

    return walk((report,)), scalars


def _skeleton(shape):
    """The value that ``shape`` stands for, with the marker for each scalar."""
    if shape is None:
        return _MARK
    if shape and shape[0] is dict:
        return dict(zip(shape[1], map(_skeleton, shape[3])))
    return list(map(_skeleton, shape))


@functools.lru_cache(maxsize=64)  # bounded: json_text takes any value, each shape a layout
def _layout(shape: tuple, slots: int) -> tuple | None:
    """The indented json text of one report shape, cut at each of its ``slots``
    scalars: text at the even places, ``None`` at the odd ones for the scalars
    to fill.  ``None`` if the cut does not give ``slots + 1`` parts, which only
    a dict key equal to the marker can cause."""
    import json

    text = json.dumps(_skeleton(shape[0]), indent=2) + "\n"
    parts = text.split(json.dumps(_MARK))
    if len(parts) != slots + 1:
        return None
    template = [None] * (2 * slots + 1)
    template[::2] = parts
    return tuple(template)


def json_text(report) -> str:
    """``json.dumps(report, indent=2) + "\\n"``, byte for byte, from the layout
    of the report's shape and one C-encoder call over its scalars."""
    import json

    try:
        shape, scalars = _flatten(report)
    except RecursionError:  # a value that holds itself, for which json raises ValueError
        template = None
    else:
        template = _layout(shape, len(scalars))
    if template is None:
        return json.dumps(report, indent=2) + "\n"
    text = list(template)
    if scalars:
        text[1::2] = json.dumps(scalars, separators=(_MARK, ":"))[1:-1].split(_MARK)
    return "".join(text)


_TABLES = {"verify": _verify_table, "sample": _sample_table, "efficiency": _efficiency_table}


def render(command: str, report: dict, fmt: str) -> str:
    """One command's report as json, csv, or an aligned table."""
    if fmt == "json":
        return json_text(report)
    if fmt == "csv":
        import csv

        rows = _csv_rows(command, report)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({key: _cell(value) for key, value in row.items()} for row in rows)
        return buffer.getvalue()
    return _TABLES[command](report)


@contextlib.contextmanager
def open_output(parser: argparse.ArgumentParser, path: str | None):
    """A writer for ``path``, checked before any work is done, so that a file
    that cannot be written is a usage error up front; ``None`` without a path.

    The text goes to a temporary file beside the (link-resolved) file, which
    replaces it, taking its mode, only when the block ends without an error:
    a run that stops leaves an existing file as it was.  A path that exists but
    is no regular file, such as ``/dev/stdout``, is written in place."""
    if not path:
        yield None
        return
    target = temp = os.path.realpath(path)
    if os.path.isfile(target) or not os.path.exists(target):
        head, name = os.path.split(target)
        temp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        if os.path.isfile(target):
            os.close(os.open(target, os.O_WRONLY))  # a read-only file is refused now
        handle = open(temp, "w" if temp == target else "x", encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot write --output {path}: {exc.strerror}")
    try:
        with handle:
            yield handle
    except BaseException:
        if temp != target:
            os.unlink(temp)
        raise
    if temp != target:
        if os.path.isfile(target):
            os.chmod(temp, os.stat(target).st_mode & 0o7777)
        os.replace(temp, target)


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(parser: argparse.ArgumentParser, with_protocol: bool = True) -> None:
    if with_protocol:
        parser.add_argument("--protocol", required=True, choices=[k.value for k in ProtocolKind])
        parser.add_argument(
            "--params",
            required=True,
            nargs="+",
            help="four per-protocol values, six values, or 'random'",
        )
        parser._negative_number_matcher = _NEGATIVE_NUMBER
        parser.add_argument("--seed", type=int, default=0,
                            help="seed for sampling and for 'random' params")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv", "table"],
                        default="table")
    parser.add_argument("--output", default=None, help="write the report to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyper-rsp",
        description="Simulate and verify remote preparation of single-photon "
        "two-qubit states over hyper-entangled channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="enumerate all branches and check corrections")
    _add_common(verify)

    sample = sub.add_parser("sample", help="post-selected sampling with detector loss")
    _add_common(sample)
    sample.add_argument("--eta-d", type=float, default=1.0,
                        help="single-photon detector efficiency in [0, 1]")
    sample.add_argument("--trials", type=int, default=10000)

    eff = sub.add_parser("efficiency", help="exact efficiency fractions and bit costs")
    _add_common(eff, with_protocol=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command != "efficiency":
        if not 0 <= args.seed < 2**64:
            parser.error(f"--seed must lie in [0, 2**64), got {args.seed}")
        kind = ProtocolKind.parse(args.protocol)
        try:
            params = parse_params(args.params, kind, args.seed)
        except ValueError as exc:
            parser.error(str(exc))
    if args.command == "sample":
        if args.trials < 1:
            parser.error(f"--trials must be positive, got {args.trials}")
        if not 0.0 <= args.eta_d <= 1.0:
            parser.error(f"--eta-d must lie in [0, 1], got {args.eta_d}")

    with open_output(parser, args.output) as handle:
        if args.command == "efficiency":
            report = efficiency_report()
        elif args.command == "verify":
            report = verify_report(kind, params)
        else:
            report = sample_report(kind, params, args.eta_d, args.trials, args.seed)
        (handle or sys.stdout).write(render(args.command, report, args.fmt))
    return EXIT_OK if report.get("all_pass", True) else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
