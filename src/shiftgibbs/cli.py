"""Command-line front end.

Subcommands: ``gap``, ``pressure``, ``measure``, ``cylinder``, ``weakgibbs``,
``lemma``, ``tangent``, ``splice``, ``factor``.  Output is deterministic TSV
(tab separators, newline line endings, reals with 15 significant digits).
Exit status: 0 success, 2 validation or parse error, 3 volume-guard refusal.
The argument parser is built once per process, on the first ``main`` call,
and is never mutated, so in-process callers pay for it once.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

from .exceptions import ValidationError, VolumeGuardError
from .fileio import load_potential, load_shift, dump_presentation
from .measures import cylinder_prob, equilibrium_measure
from .potentials import Potential
from .pressure import pressure_limit
from .shifts import (DEFAULT_ENUM_CAP, BlockCode, SoficPresentation, Word,
                     decoupling_gap, enumerate_words, factor_gap_bound,
                     factor_presentation, point_from_words, splice)
from .verify import (decoupling_1d_check, decoupling_1d_tables,
                     lemma_211_worst, lemma_212_check, lemma_212_tables,
                     require_center, tangent_derivative_check,
                     weak_gibbs_scan)


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _load(args) -> tuple[SoficPresentation, Potential | None]:
    presentation = load_shift(args.shift)
    potential = None
    if getattr(args, "potential", None):
        potential = load_potential(args.potential, presentation.alphabet)
    return presentation, potential


def _parse_m_range(text: str) -> list[int]:
    bad = ValidationError(f"bad --m {text!r}; want a range 1..10 or a list 1,2,5")
    try:
        if ".." not in text:
            return [int(t) for t in text.split(",")]
        lo, hi = (int(t) for t in text.split("..", 1))
    except ValueError:
        raise bad from None
    if lo > hi:  # an empty range would print a certificate without rows
        raise bad
    return list(range(lo, hi + 1))


def _parse_deltas(text: str) -> list[float]:
    bad = ValidationError(f"bad --delta {text!r}; want a comma list of numbers")
    try:
        deltas = [float(t) for t in text.split(",")]
    except ValueError:
        raise bad from None
    if any(math.isnan(d) for d in deltas):
        raise bad
    return deltas


def _word(presentation: SoficPresentation, text: str) -> Word:
    letters = presentation.alphabet.parse(text)
    m = len(letters) // 2
    return Word(presentation.alphabet, -m, letters)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gap(args) -> str:
    presentation, _ = _load(args)
    return f"q\t{decoupling_gap(presentation, args.variant)}\n"


def _cmd_pressure(args) -> str:
    presentation, potential = _load(args)
    ladder = tuple(range(1, args.n_max + 1))
    estimate = pressure_limit(presentation, potential, ladder)
    lines = ["n\tP_n\tenvelope"]
    for (n, p_n, env) in estimate.finite_volume:
        lines.append(f"{n}\t{_fmt(p_n)}\t{_fmt(env)}")
    lines.append(f"lambda\t{_fmt(estimate.log_lambda)}")
    return "\n".join(lines) + "\n"


def _cmd_measure(args) -> str:
    presentation, potential = _load(args)
    measure = equilibrium_measure(presentation, potential)
    lines = [f"lambda\t{_fmt(measure.log_lambda)}"]
    for i, p in enumerate(measure.stationary):
        lines.append(f"state\t{i}\t{measure.transfer.state_name(i)}\t{_fmt(float(p))}")
    for a, sym in enumerate(presentation.alphabet.symbols):
        for i, (k, p) in enumerate(zip(measure.transfer.succ[a], measure.q[a])):
            if p > 0:
                lines.append(f"trans\t{i}\t{k}\t{sym}\t{_fmt(float(p))}")
    return "\n".join(lines) + "\n"


def _cmd_cylinder(args) -> str:
    presentation, potential = _load(args)
    measure = equilibrium_measure(presentation, potential)
    word = _word(presentation, args.word)
    # a warning (an empty cylinder, which prints 0) is one line on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prob = cylinder_prob(measure, word)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return _fmt(prob) + "\n"


def _cmd_weakgibbs(args) -> str:
    m_list = _parse_m_range(args.m)
    deltas = _parse_deltas(args.delta) if args.delta is not None else []
    presentation, potential = _load(args)
    measure = equilibrium_measure(presentation, potential)
    report = weak_gibbs_scan(measure, m_list, cap=args.cap)
    lines = ["m\tD_m\tbound"]
    for (m, d, bound) in report.rows:
        lines.append(f"{m}\t{_fmt(d)}\t{_fmt(bound)}")
    for delta in deltas:
        n_delta = report.delta_to_n(delta)
        lines.append(f"delta\t{_fmt(delta)}\t"
                     f"{n_delta if n_delta is not None else 'NA'}")
    return "\n".join(lines) + "\n"


def _report_lines(report, *comments: str) -> list[str]:
    lines = [f"# {comment}" for comment in comments]
    for rec in report.inequalities:
        lines.append(f"{rec.name}\t{_fmt(rec.lhs)}\t{_fmt(rec.rhs)}\t"
                     f"{'true' if rec.holds else 'false'}")
    return lines


def _cmd_lemma(args) -> str:
    ignored = [flag for flag, value, used in (
        ("--q-bar", args.q_bar, args.which == "1d"),
        ("--u", args.u, args.which != "211"))
        if value is not None and not used]
    if ignored:
        raise ValidationError(f"--which {args.which} does not take "
                              + ", ".join(ignored))
    presentation, potential = _load(args)
    lines = ["name\tlhs\trhs\tholds"]
    if args.which == "211":
        report = lemma_211_worst(presentation, potential, args.n, args.m, args.j,
                                 args.cap)
        c = report.context
        lines.extend(_report_lines(
            report, f"worst ell={c['ell']} ell'={c['ell_prime']} x={c['x']} y={c['y']}"))
        return "\n".join(lines) + "\n"

    # every center is refused before the tables are built, so a bad --u is
    # reported ahead of a bad --j
    if args.u is not None:
        targets = [_word(presentation, args.u)]
    else:
        targets = enumerate_words(presentation, args.m)
    for u_bar in targets:
        require_center(presentation, args.m, u_bar)
    if args.which == "212":
        tables = lemma_212_tables(presentation, potential, args.n, args.m,
                                  args.j, cap=args.cap)
        check = lemma_212_check
    else:
        tables = decoupling_1d_tables(presentation, potential, args.n, args.m,
                                      args.j, q_bar=args.q_bar, cap=args.cap)
        check = decoupling_1d_check
    # the 1d lemma assumes q_bar >= gap; a comment in each center's block
    # says when that fails
    premise = ([f"premise q_bar={tables.q_bar} < gap={presentation.gap}"]
               if args.which == "1d" and tables.q_bar < presentation.gap else [])
    for u_bar in targets:
        lines.extend(_report_lines(check(tables, u_bar), f"u={u_bar.text()}",
                                   *premise))
    return "\n".join(lines) + "\n"


def _cmd_tangent(args) -> str:
    presentation, potential = _load(args)
    word = _word(presentation, args.word)
    finite_diff, formula, cylinder_value = tangent_derivative_check(
        presentation, potential, word, args.n, args.t_step)
    return (f"finite_diff\t{_fmt(finite_diff)}\n"
            f"formula\t{_fmt(formula)}\n"
            f"cylinder\t{_fmt(cylinder_value)}\n")


def _cmd_splice(args) -> str:
    presentation, _ = _load(args)
    def periodic(text: str):
        letters = presentation.alphabet.parse(text)
        return point_from_words(presentation, letters, (), letters)
    x_minus = periodic(args.left)
    y = periodic(args.center)
    x_plus = periodic(args.right)
    z, l_minus, l_plus = splice(presentation, x_minus, y, x_plus, args.m)
    window = args.window
    zw = z.word(-window, window)
    return (f"l_minus\t{l_minus}\n"
            f"l_plus\t{l_plus}\n"
            f"z[{-window},{window}]\t{zw.text()}\n")


def _cmd_factor(args) -> str:
    presentation, _ = _load(args)
    table: dict[tuple[int, ...], int] = {}
    target = presentation.alphabet
    if args.rule is not None:
        for item in args.rule.split(","):
            pattern_text, _, sym = item.partition("=")
            if not sym:
                raise ValidationError(f"bad rule item {item!r}; want pattern=symbol")
            pattern = target.parse(pattern_text)
            if len(pattern) != 2 * args.k + 1:
                raise ValidationError(
                    f"rule pattern {pattern_text!r} must cover the full "
                    f"window of {2 * args.k + 1} letters")
            table[pattern] = target.index(sym)
    default = target.index(args.default) if args.default is not None else None
    code = BlockCode.from_table(args.k, target, table, default)
    image = factor_presentation(presentation, code)
    lines = [f"gap_bound\t{factor_gap_bound(presentation.gap, args.k)}",
             f"image_gap\t{image.gap}"]
    if args.dump:
        # the gap lines become comments, so the whole output loads as a
        # presentation file
        lines = [f"# {line}" for line in lines]
        lines.append(dump_presentation(image).rstrip("\n"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftgibbs",
        description="Pressure, equilibrium measures, and weak-Gibbs "
                    "certificates for sofic shift spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, potential=True, cap=False):
        p.add_argument("--shift", required=True, help="presentation or .sft file")
        if potential:
            p.add_argument("--potential", required=True, help="potential file")
        if cap:
            p.add_argument("--cap", type=int, default=None,
                           help="refuse to enumerate more words than this "
                                f"(default {DEFAULT_ENUM_CAP})")
        p.add_argument("--out", default=None, help="write the report here")

    p = sub.add_parser("gap", help="decoupling gap certificate")
    common(p, potential=False)
    p.add_argument("--variant", choices=("bounded-length", "exact-length"),
                   default="bounded-length")

    p = sub.add_parser("pressure", help="finite-volume pressure ladder and log Perron root")
    common(p)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("measure", help="equilibrium chain: states, stationary law, transitions")
    common(p)

    p = sub.add_parser("cylinder", help="cylinder probability of a word")
    common(p)
    p.add_argument("--word", required=True)

    p = sub.add_parser("weakgibbs", help="weak-Gibbs deviation scan")
    common(p, cap=True)
    p.add_argument("--m", required=True, help="window list: 1..10 or 1,2,5")
    p.add_argument("--delta", default=None, help="comma list of deviation targets")

    p = sub.add_parser("lemma", help="lemma inequality suites")
    common(p, cap=True)
    p.add_argument("--which", choices=("211", "212", "1d"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--u", default=None,
                   help="center word (212 and 1d; default: all)")
    p.add_argument("--q-bar", type=int, default=None,
                   help="override the 1-decoupling gap (1d only)")

    p = sub.add_parser("tangent", help="d/dt P_n along a word's indicator vs its cylinder")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-step", type=float, default=1e-3)

    p = sub.add_parser("splice", help="splice periodic points through the graph")
    common(p, potential=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--left", required=True, help="periodic word for the left point")
    p.add_argument("--center", required=True, help="periodic word for the center point")
    p.add_argument("--right", required=True, help="periodic word for the right point")
    p.add_argument("--window", type=int, default=12)

    p = sub.add_parser("factor", help="image presentation under a sliding-block code")
    common(p, potential=False)
    p.add_argument("--k", type=int, required=True, help="code radius")
    p.add_argument("--rule", default=None, help="comma list pattern=symbol")
    p.add_argument("--default", default=None, help="fallback output symbol")
    p.add_argument("--dump", action="store_true",
                   help="print the image presentation file, the gap lines "
                        "as comments")

    return parser


def _validate_numeric(args) -> None:
    for name in ("n", "m", "n_max", "k", "window", "cap", "q_bar"):
        value = getattr(args, name, None)
        if isinstance(value, int) and value < 0:
            raise ValidationError(f"--{name.replace('_', '-')} must be nonnegative")
    t_step = getattr(args, "t_step", None)
    if t_step is not None and not (math.isfinite(t_step) and t_step > 0):
        raise ValidationError("--t-step must be finite and positive")


def main(argv=None) -> int:
    """Run one subcommand and return its exit status.  The parser comes
    from ``build_parser``, which builds it on the first call in a process
    and returns that same parser afterwards; parsing does not mutate it.
    The subcommand's ``_cmd_*`` function is looked up by its module name on
    each call, not bound into the parser, so a replacement bound to that
    name later is the one that runs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_numeric(args)
        run = {"gap": _cmd_gap, "pressure": _cmd_pressure, "measure": _cmd_measure,
               "cylinder": _cmd_cylinder, "weakgibbs": _cmd_weakgibbs,
               "lemma": _cmd_lemma, "tangent": _cmd_tangent, "splice": _cmd_splice,
               "factor": _cmd_factor}[args.command]
        text = run(args)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except VolumeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
