"""Command-line interface.

Subcommands expose the library surface (construct, count, fit, indices,
series, and ``pte``, which checks an equal-power-sum pair given on the
command line) plus ``verify``, which runs named verification claims and
emits one JSON report per claim; ``verify pte-table`` is the one report
of the shipped table, and ``pte`` prints the same entry for its pair. Every
subcommand writes JSON; ``count`` alone also writes ``k,count`` CSV rows
(``--format csv``). ``fit``'s JSON carries the period sequence, modulus
and degree along with the coefficients. Reports embed the raw counts
they used, so every number is independently recheckable by re-running
the corresponding subcommands. Convex bodies are fitted on both sides of
zero, so their count maps also carry negative keys: the value at ``-k``
is ``L(-k)``, which is what ``count --k -k`` prints (``--k`` takes any
nonzero dilate of a body, a positive one of a union). Output is
deterministic: keys are sorted, ordering is fixed, and nothing
time-dependent is ever emitted. Integers print in full, however
many digits they have; numbers read from ``--input`` are bounded instead.

One ``verify`` run computes each exact object once: claims share one body
per family member (``_body``), and with it the counts and the fit that
the body keeps (``counting.fitted``); ``main`` parses with one parser
built per process.

One verdict rule judges every claim: it passes when every case passes,
and it is ``skipped`` (exit 0) when it has no case or the budget runs
out. Each claim counts and compares here, from the bodies
``constructions`` builds; ``decomposition`` too checks its count identity
on the shared bodies. ``_GRIDS`` alone says which cases a claim runs: a
claim with a period and a dimension axis runs every ``(n, p)`` of the
two lists, and a flag replaces a list, never filters it. ``--p``/
``--max-p`` accept values from 1, ``--n``/``--max-n`` from 3. Flags that
would contradict each other (``--k`` and ``--k-max``, ``--p`` and
``--max-p``, ``--n`` and ``--max-n``, ``--family`` and ``--input``) are a
usage error together, and so are ``--p`` or ``--n`` with ``--input``,
which only a ``--family`` member takes, and ``--n`` with a family that
takes no dimension. A claim refuses a grid flag for an axis
it does not have, except ``--max-p``: every claim accepts it, and the PTE
claims ignore it. An object subcommand needs a source.

Exit codes: 0 success / all claims pass or skip, 1 verification failure,
2 usage error or invalid input (any ``EhrhartError`` or ``OSError``),
3 internal error, 141 (128 + SIGPIPE) when the reader of stdout has gone,
with nothing on stderr. ``main`` lets every other exception propagate,
and ``VerificationFailed``, as ``fitted`` picks the degree and modulus;
``entry``, the installed script and ``python -m ehrhart.cli``, prints
its traceback to stderr and exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import lru_cache, partial

from . import constructions, pte
from .counting import count, count_union, fitted
from .errors import BudgetExceeded, EhrhartError, InvalidInput, NotAvailable, VerificationFailed
from .indices import mcmullen_check
from .polytope import (
    PolytopalUnion,
    denominator,
    exact_integer,
    exact_rational,
    is_integral,
    polytope_from_dict,
    polytope_to_dict,
    union_from_dict,
    union_to_dict,
)
from .quasipoly import equivalent, negate, period_sequence, to_dict as qp_to_dict
from .series import from_quasipolynomial, pyramid_transform, to_dict as series_to_dict

class VerificationReport(namedtuple("VerificationReport", "claim params outcome witness")):
    """``outcome`` is "pass", "fail" or "skipped: ..."; ``witness`` is a new
    dict when not given."""

    __slots__ = ()

    def __new__(cls, claim: str, params: dict, outcome: str, witness: dict | None = None):
        return tuple.__new__(cls, (claim, params, outcome, {} if witness is None else witness))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _body(family: str, p: int, n: int | None = None, /):
    """The family member ``build(family, p, n)``, built once per process, so
    claims share it and with it its face lattice, bounds, counts and fit."""
    return constructions.build(family, p, n)[0]


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _family_p(args) -> int:
    """The period parameter of a ``--family`` member: ``--p``, else 2."""
    return 2 if args.p is None else args.p


def _load_object(args):
    """The body a subcommand works on: read from ``--input`` or built from
    ``--family``."""
    if getattr(args, "input", None):
        if args.p is not None or args.n is not None:
            raise InvalidInput("--p and --n build a --family member; they do not apply to --input")
        with open(args.input) as handle:
            try:
                data = json.load(handle, parse_float=exact_rational, parse_int=exact_integer)
            except InvalidInput as exc:
                raise InvalidInput(f"{args.input}: {exc}") from None
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise InvalidInput(f"{args.input}: not a JSON file ({exc})") from None
        if isinstance(data, dict) and "pieces" in data:
            return union_from_dict(data)
        return polytope_from_dict(data)
    return _body(args.family, _family_p(args), args.n)


# ---------------------------------------------------------------------------
# plain subcommands
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    obj, provenance = constructions.build(args.family, _family_p(args), args.n)
    payload = union_to_dict(obj) if isinstance(obj, PolytopalUnion) else polytope_to_dict(obj)
    payload["provenance"] = provenance
    _emit(payload)
    return 0


def _cmd_count(args) -> int:
    obj = _load_object(args)
    ks = [args.k] if args.k is not None else list(range(1, (args.k_max or 6) + 1))
    counts = [count(obj, k, args.budget) for k in ks]
    if args.format == "csv":
        print("k,count\n" + "".join(f"{k},{c}\n" for k, c in zip(ks, counts)), end="")
    else:
        _emit({"k": ks, "count": counts})
    return 0


def _cmd_fit(args) -> int:
    obj = _load_object(args)
    qp, _ = fitted(obj, args.budget)
    _emit(qp_to_dict(qp))
    return 0


def _cmd_indices(args) -> int:
    report = mcmullen_check(_load_object(args), budget=args.budget)
    _emit({
        "index_sequence": list(report.index_sequence),
        "period_sequence": list(report.period_sequence),
        "mcmullen_ok": report.ok,
    })
    return 0


def _cmd_series(args) -> int:
    obj = _load_object(args)
    qp, _ = fitted(obj, args.budget)
    _emit(series_to_dict(from_quasipolynomial(qp)))
    return 0


def _pte_entry(sol: pte.PteSolution) -> dict:
    """One size's report: the pair, its power sums and its product identity."""
    return {
        "s": list(sol.s),
        "t": list(sol.t),
        "verified": pte.verify(sol),
        "product_identity": pte.product_identity_check(sol),
    }


def _cmd_pte(args) -> int:
    entry = _pte_entry(pte.PteSolution(args.s, args.t))
    _emit(entry)
    return 0 if entry["verified"] and entry["product_identity"] else 1


# ---------------------------------------------------------------------------
# verification claims
# ---------------------------------------------------------------------------
# A claim maps ``(ps, ns, budget)`` to ``(params, cases)``, each case a
# ``(label, good, entry)``; ``run_claim`` alone judges them. A ``None``
# label counts toward the verdict but adds no witness entry.
#
# ``_GRIDS`` gives each claim its default periods and dimensions, None for
# an axis it does not have; ``run_claim`` hands a claim the flags' lists,
# else these, and a claim with both axes runs every ``(n, p)`` of them. A
# claim takes ``p`` where it has a period axis, and ``n`` and ``max_n``
# where it has a dimension axis. Every claim takes ``max_p``; the PTE
# claims, which have neither axis, ignore it: perfbench's verify-p2
# workload runs every claim with ``--max-p 2``.
_GRIDS = {
    "pentagon-equivalence": ([1, 2, 3, 4, 5], None),
    "heptagon": ([2, 3, 4, 5], None),
    "pyramid-equivalence": ([2, 3], [3, 4]),
    "prism-identity": ([2, 3], [3, 4]),
    "sn-pn-equivalence": ([2, 3], [3, 4]),
    "decomposition": ([2, 3], [3, 4]),
    "hn-periods": ([2, 3], [3, 4]),
    "barn-periods": ([2, 3], [3, 4, 5]),
    "mcmullen": ([1, 2, 3], [3, 4]),
    "pte-table": (None, None),
    "product-identity": (None, None),
}


def _claim_pentagon_equivalence(ps, ns, budget) -> tuple[dict, list]:
    cases = []
    for p in ps:
        fp, cp = fitted(_body("pentagon", p), budget)
        fl, cl = fitted(_body("segment", p), budget)
        good = equivalent(fp, negate(fl))
        cases.append((f"p={p}", good, {
            "equivalent": good,
            "pentagon_counts": cp,
            "segment_counts": cl,
        }))
    return {"p": ps}, cases


def _periods(body, expected, budget):
    """Fit ``body``: its quasi-polynomial, whether its period sequence is
    ``expected``, and the case entry with that sequence and the samples."""
    qp, samples = fitted(body, budget)
    seq = period_sequence(qp)
    return qp, seq == expected, {"period_sequence": list(seq), "counts": samples}


def _claim_heptagon(ps, ns, budget) -> tuple[dict, list]:
    cases = []
    for p in ps:
        body = _body("heptagon", p)
        qp, good, entry = _periods(body, (1, p, 1), budget)
        if p == 2:
            first = [count(body, k, budget) for k in range(1, 5)]
            mid = {
                "odd": str(qp.coefficient(1, 1)),
                "even": str(qp.coefficient(1, 2)),
            }
            good = good and first == [12, 47, 88, 165]
            good = good and qp.coefficient(1, 1) == 2 and qp.coefficient(1, 2) == 5
            entry["counts_k1_to_4"] = first
            entry["middle_coefficient"] = mid
        cases.append((f"p={p}", good, entry))
    return {"p": ps}, cases


def _claim_pyramid_equivalence(ps, ns, budget) -> tuple[dict, list]:
    # an (n-2)-fold pyramid divides the series of its base by (1-t)^(n-2)
    cases = []
    for n in ns:
        for p in ps:
            entry = {}
            for name, family, base in (
                ("pyramid", "pentagon-pyramid", "pentagon"),
                ("simplex", "simplex", "segment"),
            ):
                qp, entry[f"{name}_counts"] = fitted(_body(family, p, n), budget)
                qb, entry[f"{base}_counts"] = fitted(_body(base, p), budget)
                entry[f"{name}_law"] = from_quasipolynomial(qp) == pyramid_transform(
                    from_quasipolynomial(qb), n - 2
                )
            good = entry["pyramid_law"] and entry["simplex_law"]
            cases.append((f"n={n},p={p}", good, entry))
    return {"n": ns, "p": ps}, cases


def _claim_prism_identity(ps, ns, budget) -> tuple[dict, list]:
    k_max = 8
    ks = range(1, k_max + 1)
    cases = []
    for n in ns:
        for p in ps:
            q = constructions.q_value(p)
            w_counts = [count(_body("prism", p, n), k, budget) for k in ks]
            s_counts = [count(_body("simplex", p, n), k, budget) for k in ks]
            good = all(w == (2 * q * k + 1) * s for k, w, s in zip(ks, w_counts, s_counts))
            cases.append((f"n={n},p={p}", good, {
                "prism_counts": w_counts,
                "simplex_counts": s_counts,
                "identity": good,
            }))
    return {"n": ns, "p": ps, "k_max": k_max}, cases


def _claim_sn_pn_equivalence(ps, ns, budget) -> tuple[dict, list]:
    cases = []
    for n in ns:
        for p in ps:
            qs, cs = fitted(_body("simplex", p, n), budget)
            qp, cp = fitted(_body("pentagon-pyramid", p, n), budget)
            good = equivalent(qs, negate(qp))
            cases.append((f"n={n},p={p}", good, {
                "equivalent": good,
                "simplex_counts": cs,
                "pyramid_counts": cp,
            }))
    return {"n": ns, "p": ps}, cases


def _claim_decomposition(ps, ns, budget) -> tuple[dict, list]:
    # count(hull) = count(prism) + count(middle) + count(pyramid) minus the
    # two shared facets, which are the pieces' pairwise overlaps and integral
    k_max = 4
    ks = range(1, k_max + 1)
    cases = []
    for n in ns:
        for p in ps:
            bodies = {
                "hull": _body("hull", p, n),
                "prism": _body("prism", p, n),
                "middle": _body("middle", p, n),
                "pyramid": _body("pentagon-pyramid", p, n),
                "prism_facet": constructions.prism_shared_facet(n, p),
                "pyramid_facet": constructions.pyramid_shared_facet(n, p),
            }
            counts = {name: [count(body, k, budget) for k in ks] for name, body in bodies.items()}
            first_fail = next(
                (
                    k
                    for k, h, w, m, y, wf, yf in zip(ks, *counts.values())
                    if h != w + m + y - wf - yf
                ),
                None,
            )
            flags = [
                is_integral(bodies[name]) for name in ("middle", "prism_facet", "pyramid_facet")
            ]
            good = first_fail is None and all(flags)
            cases.append((f"n={n},p={p}", good, {
                "ok": good,
                "first_failing_k": first_fail,
                "integral_middle": flags[0],
                "integral_prism_side": flags[1],
                "integral_pyramid_side": flags[2],
                "counts": counts,
            }))
    return {"n": ns, "p": ps, "k_max": k_max}, cases


def _claim_hn_periods(ps, ns, budget) -> tuple[dict, list]:
    cases = []
    for n in ns:
        for p in ps:
            body = _body("hull", p, n)
            _, good, entry = _periods(body, (1, p) + (1,) * (n - 1), budget)
            if (n, p) == (3, 2):
                spot = count(body, 1, budget)
                good = good and spot == 49
                entry["count_k1"] = spot
            cases.append((f"n={n},p={p}", good, entry))
    return {"n": ns, "p": ps}, cases


def _claim_barn_periods(ps, ns, budget) -> tuple[dict, list]:
    cases = []
    for n in ns:
        for p in ps:
            try:  # the barn takes the tabulated solution of size n - 1
                union = _body("barn", p, n)
            except NotAvailable as exc:
                # requesting an impossible dimension is reported, not failed:
                # the construction-range check below asserts exactly this
                cases.append((f"n={n},p={p}", True, f"NotAvailable: {exc}"))
                continue
            _, good, entry = _periods(union, (1,) * (n - 1) + (p, 1), budget)
            if n == 3 and p == 2:
                enum = [count(union, k, budget) for k in (1, 2)]
                direct = [count_union(union, k, budget, "enumerate") for k in (1, 2)]
                good = good and enum == [48, 253] and direct == enum
                entry["counts_k1_k2"] = enum
                entry["enumeration_cross_check"] = direct
            cases.append((f"n={n},p={p}", good, entry))
    construction_range = {}
    in_range = True
    for n in list(range(3, 12)) + [12, 13]:
        try:  # barn(n, 2) checks exactly this before it builds anything
            verified = pte.verify(pte.table_lookup(n - 1))
            construction_range[str(n)] = "ok" if verified else "unverified"
            good = verified and n != 12  # size 11 must not exist
        except NotAvailable as exc:
            construction_range[str(n)] = f"NotAvailable: {exc}"
            good = n == 12
        in_range = in_range and good
    cases.append(("construction_range", in_range, construction_range))
    return {"n": ns, "p": ps}, cases


def _mcmullen_targets(ps, ns):
    """The bodies ``mcmullen`` checks: the 2-D families at each ``p``, then
    every n-family at each ``n`` in ``ns``."""
    for p in ps:
        for family in ("segment", "pentagon", "rectangle", "heptagon"):
            yield f"{family} p={p}", _body(family, p)
        for n in ns:
            for family in ("simplex", "prism", "pentagon-pyramid", "hull", "middle"):
                yield f"{family} n={n} p={p}", _body(family, p, n)


def _claim_mcmullen(ps, ns, budget) -> tuple[dict, list]:
    cases = []
    for label, poly in _mcmullen_targets(ps, ns):
        report = mcmullen_check(poly, budget)
        d0 = denominator(poly)
        good = report.ok and report.index_sequence[0] == d0
        entry = {
            "period_sequence": list(report.period_sequence),
            "index_sequence": list(report.index_sequence),
            "denominator": d0,
            "ok": good,
        }
        if len(report.period_sequence) >= 2:
            # how far the bound is from tight on the linear coefficient;
            # only divisibility is asserted, the gap is recorded
            entry["linear_gap"] = report.index_sequence[1] // report.period_sequence[1]
        cases.append((label, good, entry))
    return {"n": ns, "p": ps}, cases


def _claim_pte_table(ps, ns, budget) -> tuple[dict, list]:
    cases = []
    for size in pte.available_sizes():
        entry = _pte_entry(pte.table_lookup(size))
        cases.append((f"size={size}", entry["verified"] and entry["product_identity"], entry))
    cases.append((None, pte.table_lookup(2) == pte.PteSolution((1, 2), (3, 0)), None))
    cases.append((None, pte.table_lookup(3) == pte.PteSolution((1, 2, 6), (4, 5, 0)), None))
    return {"sizes": pte.available_sizes()}, cases


def _claim_product_identity(ps, ns, budget) -> tuple[dict, list]:
    cases = []
    for size in pte.available_sizes():
        sol = pte.table_lookup(size)
        good = pte.product_identity_check(sol)
        cases.append((f"size={size}", good, {
            "holds": good,
            "difference_polynomial": pte.difference_polynomial(sol),
        }))
    cases.append((None, pte.difference_polynomial(pte.table_lookup(2)) == [0, 0, 2], None))
    cases.append((None, pte.difference_polynomial(pte.table_lookup(3)) == [0, 0, 0, 12], None))
    return {"sizes": pte.available_sizes()}, cases


_CLAIM_FUNCS = {
    "pentagon-equivalence": _claim_pentagon_equivalence,
    "heptagon": _claim_heptagon,
    "pyramid-equivalence": _claim_pyramid_equivalence,
    "prism-identity": _claim_prism_identity,
    "sn-pn-equivalence": _claim_sn_pn_equivalence,
    "decomposition": _claim_decomposition,
    "hn-periods": _claim_hn_periods,
    "barn-periods": _claim_barn_periods,
    "mcmullen": _claim_mcmullen,
    "pte-table": _claim_pte_table,
    "product-identity": _claim_product_identity,
}
CLAIMS = tuple(_CLAIM_FUNCS)


def _grid(claim: str) -> tuple:
    """The claim's ``_GRIDS`` entry; an unknown claim is invalid input."""
    if claim not in _GRIDS:
        raise InvalidInput(f"unknown claim {claim!r}; choose from {', '.join(CLAIMS)}")
    return _GRIDS[claim]


def run_claim(claim: str, ps=None, ns=None, budget=None) -> VerificationReport:
    """Run one verification claim and judge its cases by the one verdict
    rule: it passes when every case is good; no cases, or budget
    exhaustion, is skipped, not failed. Unset ``ps`` and ``ns`` are the
    claim's defaults in ``_GRIDS``."""
    # copies: a report's params hold these lists, and must not alias the table
    periods, dimensions = (None if axis is None else list(axis) for axis in _grid(claim))
    try:
        params, cases = _CLAIM_FUNCS[claim](ps or periods, ns or dimensions, budget)
    except BudgetExceeded as exc:
        return VerificationReport(claim, {}, f"skipped: budget exceeded ({exc})")
    if not cases:
        return VerificationReport(claim, params, "skipped: no matching cases")
    ok = all(good for _, good, _ in cases)
    witness = {label: entry for label, _, entry in cases if label is not None}
    return VerificationReport(claim, params, "pass" if ok else "fail", witness)


def verify_all(
    max_p: int | None = None,
    max_n: int | None = None,
    budget: int | None = None,
    *,
    claims=CLAIMS,
    p: int | None = None,
    n: int | None = None,
) -> list[VerificationReport]:
    """The given claims (all by default), in order; ``p``/``n`` restrict to
    one value, ``max_p``/``max_n`` to the values up to it; ``None`` is unset,
    and a value and its maximum may not both be set. Each claim takes the
    flags of the axes ``_GRIDS`` gives it, and ``max_p``; a flag that no
    claim run takes is refused, so a claim run alone refuses a grid it
    does not have."""
    grids = [_grid(claim) for claim in claims]
    for one, most, value, maximum in (("p", "max_p", p, max_p), ("n", "max_n", n, max_n)):
        if value is not None and maximum is not None:
            raise InvalidInput(f"give {one} or {most}, not both")
    # the axis of _GRIDS that a flag needs; max_p needs none
    for name, value, least, axis in (
        ("p", p, 1, 0), ("max_p", max_p, 1, None), ("n", n, 3, 1), ("max_n", max_n, 3, 1)
    ):
        if value is None:
            continue
        if value < least:
            raise InvalidInput(f"{name} must be at least {least}, got {value}")
        if axis is not None and all(grid[axis] is None for grid in grids):
            flag = "--" + name.replace("_", "-")
            raise InvalidInput(f"{', '.join(claims)} take{'s' * (len(claims) == 1)} no {flag}")
    ps = [p] if p is not None else (None if max_p is None else list(range(1, max_p + 1)))
    ns = [n] if n is not None else (None if max_n is None else list(range(3, max_n + 1)))
    return [run_claim(claim, ps, ns, budget) for claim in claims]


def _cmd_verify(args) -> int:
    claims = CLAIMS if args.claim == "all" else (args.claim,)
    reports = verify_all(args.max_p, args.max_n, args.budget, claims=claims, p=args.p, n=args.n)
    payload = [r._asdict() for r in reports]
    _emit(payload[0] if len(payload) == 1 else payload)
    return 0 if all(r.outcome != "fail" for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_where(text: str, ok, wanted: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not ok(value):
        raise argparse.ArgumentTypeError(f"must be {wanted}, got {value}")
    return value


_nonnegative_int = partial(_int_where, ok=lambda v: v >= 0, wanted="at least 0")
_positive_int = partial(_int_where, ok=lambda v: v >= 1, wanted="at least 1")
_dimension = partial(_int_where, ok=lambda v: v >= 3, wanted="at least 3")
_nonzero_int = partial(_int_where, ok=lambda v: v != 0, wanted="nonzero")


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _add_object_options(sub, with_input: bool = True) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=constructions.FAMILIES, help="polytope family")
    # no parser default: a --p given with --input is refused, not ignored
    sub.add_argument("--p", type=int, default=None, help="period parameter (default 2)")
    sub.add_argument("--n", type=int, help="ambient dimension; only for the families that take one")
    if with_input:
        source.add_argument("--input", help="JSON polytope/union file instead of --family")


def _add_budget(sub) -> None:
    sub.add_argument(
        "--budget", type=_nonnegative_int, default=None, help="nodes the counting kernel may charge"
    )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    returns a fresh namespace on every call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="ehrhart",
        description="Exact dilate counting, quasi-polynomial fitting and period verification for rational polytopes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("construct", help="emit a family member as JSON")
    _add_object_options(sub, with_input=False)
    sub.set_defaults(func=_cmd_construct)

    sub = subs.add_parser("count", help="lattice-point counts of dilates")
    _add_object_options(sub)
    dilates = sub.add_mutually_exclusive_group()
    dilates.add_argument(
        "--k", type=_nonzero_int, default=None, help="single dilate; k < 0 gives L(k) of a body"
    )
    # no parser default: argparse sees no conflict when --k-max gives the default
    dilates.add_argument(
        "--k-max", type=_positive_int, default=None, help="count k = 1..k_max (default 6)"
    )
    _add_budget(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("fit", help="fit the dilate-count quasi-polynomial")
    _add_object_options(sub)
    _add_budget(sub)
    sub.set_defaults(func=_cmd_fit)

    sub = subs.add_parser("indices", help="face index sequence and period bound check")
    _add_object_options(sub)
    _add_budget(sub)
    sub.set_defaults(func=_cmd_indices)

    sub = subs.add_parser("series", help="rational generating function of the counts")
    _add_object_options(sub)
    _add_budget(sub)
    sub.set_defaults(func=_cmd_series)

    sub = subs.add_parser("pte", help="check a given equal-power-sum pair")
    sub.add_argument("--s", type=_int_tuple, required=True, help="comma-separated side s")
    sub.add_argument(
        "--t", type=_int_tuple, required=True, help="comma-separated side t (trailing 0)"
    )
    sub.set_defaults(func=_cmd_pte)

    sub = subs.add_parser("verify", help="run verification claims")
    sub.add_argument("claim", choices=CLAIMS + ("all",))
    periods = sub.add_mutually_exclusive_group()
    dimensions = sub.add_mutually_exclusive_group()
    periods.add_argument("--p", type=_positive_int, help="restrict to one period value")
    dimensions.add_argument("--n", type=_dimension, help="restrict to one dimension")
    periods.add_argument("--max-p", type=_positive_int)
    dimensions.add_argument("--max-n", type=_dimension)
    _add_budget(sub)
    sub.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a count may outgrow the digits Python writes an int in by default;
    # the parser above read its ints under that limit, and ``--input``
    # bounds the numbers it reads itself
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: what is still buffered goes to
        # os.devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except VerificationFailed:
        raise  # the library's defect, not a usage error: ``entry`` exits 3
    except (EhrhartError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    """Console entry point: exit with ``main``'s code, or 3 with the
    traceback on stderr when an internal error escapes it."""
    try:
        code = main()
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback, to stderr
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    entry()
