"""Command-line interface.

Subcommands expose the library surface (construct, count, fit, periods,
indices, series, pte) plus ``verify``, which runs named verification
claims and emits one JSON report per claim. Reports embed the raw counts
they used, so every number is independently recheckable by re-running
the corresponding subcommands. Output is deterministic: keys are sorted,
ordering is fixed, and nothing time-dependent is ever emitted.

Exit codes: 0 success / all claims pass, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache

from . import constructions, pte, series as series_mod
from .counting import CountFunction, count, count_series
from .errors import BudgetExceeded, EhrhartError, NotAvailable
from .indices import mcmullen_check
from .polytope import (
    PolytopalUnion,
    denominator,
    polytope_from_dict,
    polytope_to_dict,
    union_from_dict,
    union_to_dict,
)
from .quasipoly import equivalent, fit, negate, period_sequence, to_dict as qp_to_dict

CLAIMS = (
    "pentagon-equivalence",
    "heptagon",
    "pyramid-equivalence",
    "prism-identity",
    "sn-pn-equivalence",
    "decomposition",
    "hn-periods",
    "barn-periods",
    "mcmullen",
    "pte-table",
    "product-identity",
)


@dataclass
class VerificationReport:
    claim: str
    params: dict
    outcome: str  # "pass" | "fail" | "skipped: ..."
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "outcome": self.outcome,
            "witness": self.witness,
        }


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _degree(obj) -> int:
    if isinstance(obj, PolytopalUnion):
        return obj.ambient_dim
    return obj.intrinsic_dim


@lru_cache(maxsize=None)
def _fitted(obj, budget):
    """Fit the dilate-count quasi-polynomial; returns (qp, counter)."""
    counter = CountFunction(obj, budget=budget)
    return fit(counter, _degree(obj), denominator(obj)), counter


def _emit(payload, fmt: str) -> None:
    if fmt == "csv":
        print(_to_csv(payload), end="")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _to_csv(payload) -> str:
    if isinstance(payload, dict) and set(payload) >= {"k", "count"}:
        lines = ["k,count"]
        lines += [f"{k},{c}" for k, c in zip(payload["k"], payload["count"])]
        return "\n".join(lines) + "\n"
    if isinstance(payload, list):
        return "".join(_to_csv(item) for item in payload)
    lines = []
    for key, value in sorted(payload.items()):
        lines.append(f"{key},{json.dumps(value, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _load_object(args):
    if getattr(args, "input", None):
        with open(args.input) as handle:
            data = json.load(handle)
        if "pieces" in data:
            return union_from_dict(data), {"input": args.input}
        return polytope_from_dict(data), {"input": args.input}
    if not args.family:
        raise EhrhartError("need --family (or --input)")
    return constructions.build(args.family, args.p, args.n)


# ---------------------------------------------------------------------------
# plain subcommands
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    obj, provenance = constructions.build(args.family, args.p, args.n)
    payload = union_to_dict(obj) if isinstance(obj, PolytopalUnion) else polytope_to_dict(obj)
    payload["provenance"] = provenance
    _emit(payload, args.format)
    return 0


def _cmd_count(args) -> int:
    obj, _ = _load_object(args)
    if args.k is not None:
        ks = [args.k]
    else:
        ks = list(range(1, args.k_max + 1))
    counts = [count(obj, k, args.budget) for k in ks]
    _emit({"k": ks, "count": counts}, args.format)
    return 0


def _cmd_fit(args) -> int:
    obj, _ = _load_object(args)
    qp, _ = _fitted(obj, args.budget)
    _emit(qp_to_dict(qp), args.format)
    return 0


def _cmd_periods(args) -> int:
    obj, _ = _load_object(args)
    qp, _ = _fitted(obj, args.budget)
    _emit(
        {
            "period_sequence": list(period_sequence(qp)),
            "modulus": qp.modulus,
            "degree": qp.degree,
        },
        args.format,
    )
    return 0


def _cmd_indices(args) -> int:
    obj, _ = _load_object(args)
    if isinstance(obj, PolytopalUnion):
        raise EhrhartError("index sequences are defined for convex polytopes only")
    report = mcmullen_check(obj, budget=args.budget)
    _emit(
        {
            "index_sequence": list(report.index_sequence),
            "period_sequence": list(report.period_sequence),
            "mcmullen_ok": report.ok,
        },
        args.format,
    )
    return 0


def _cmd_series(args) -> int:
    obj, _ = _load_object(args)
    qp, _ = _fitted(obj, args.budget)
    _emit(series_mod.to_dict(series_mod.from_quasipolynomial(qp)), args.format)
    return 0


def _cmd_pte(args) -> int:
    if args.pte_command == "list":
        payload = {
            str(size): {
                "s": list(pte.table_lookup(size).s),
                "t": list(pte.table_lookup(size).t),
            }
            for size in pte.available_sizes()
        }
        _emit({"sizes": pte.available_sizes(), "solutions": payload}, args.format)
        return 0
    # pte verify
    if args.s or args.t:
        if not (args.s and args.t):
            raise EhrhartError("provide both --s and --t")
        sol = pte.PteSolution(
            tuple(int(x) for x in args.s.split(",")),
            tuple(int(x) for x in args.t.split(",")),
        )
        solutions = {sol.size: sol}
    elif args.size:
        solutions = {args.size: pte.table_lookup(args.size)}
    else:
        solutions = {size: pte.table_lookup(size) for size in pte.available_sizes()}
    results = {}
    all_ok = True
    for size, sol in sorted(solutions.items()):
        ok = pte.verify(sol)
        identity = ok and pte.product_identity_check(sol)
        results[str(size)] = {"verified": ok, "product_identity": identity}
        all_ok = all_ok and ok and identity
    _emit({"results": results, "ok": all_ok}, args.format)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# verification claims
# ---------------------------------------------------------------------------


def _claim_pentagon_equivalence(ps, ns, budget) -> VerificationReport:
    ps = ps or [1, 2, 3, 4, 5]
    witness = {}
    ok = True
    for p in ps:
        fp, cp = _fitted(constructions.pentagon(p), budget)
        fl, cl = _fitted(constructions.segment(p), budget)
        good = equivalent(fp, negate(fl))
        ok = ok and good
        witness[f"p={p}"] = {
            "equivalent": good,
            "pentagon_counts": cp.samples(),
            "segment_counts": cl.samples(),
        }
    return VerificationReport(
        "pentagon-equivalence", {"p": ps}, "pass" if ok else "fail", witness
    )


def _claim_heptagon(ps, ns, budget) -> VerificationReport:
    ps = ps or [2, 3, 4, 5]
    witness = {}
    ok = True
    for p in ps:
        qp, counter = _fitted(constructions.heptagon(p), budget)
        seq = period_sequence(qp)
        good = seq == (1, p, 1)
        entry = {"period_sequence": list(seq), "counts": counter.samples()}
        if p == 2:
            first = count_series(constructions.heptagon(2), 4, budget)
            mid = {
                "odd": str(qp.coefficient(1, 1)),
                "even": str(qp.coefficient(1, 2)),
            }
            good = good and first == [12, 47, 88, 165]
            good = good and qp.coefficient(1, 1) == 2 and qp.coefficient(1, 2) == 5
            entry["counts_k1_to_4"] = first
            entry["middle_coefficient"] = mid
        witness[f"p={p}"] = entry
        ok = ok and good
    return VerificationReport("heptagon", {"p": ps}, "pass" if ok else "fail", witness)


def _claim_pyramid_equivalence(ps, ns, budget) -> VerificationReport:
    ps = ps or [2, 3]
    folds = [1, 2]
    witness = {}
    ok = True
    for p in ps:
        for i in folds:
            n = 2 + i
            qp_pyr, c1 = _fitted(constructions.pentagon_pyramid(n, p), budget)
            qp_smp, c2 = _fitted(constructions.simplex(n, p), budget)
            left = series_mod.from_quasipolynomial(qp_pyr)
            right = series_mod.negate(series_mod.from_quasipolynomial(qp_smp))
            good = series_mod.series_equivalent(left, right)
            ok = ok and good
            witness[f"p={p},i={i}"] = {
                "series_equivalent": good,
                "pyramid_counts": c1.samples(),
                "simplex_counts": c2.samples(),
            }
    return VerificationReport(
        "pyramid-equivalence", {"p": ps, "folds": folds}, "pass" if ok else "fail", witness
    )


def _claim_prism_identity(ps, ns, budget) -> VerificationReport:
    ps = ps or [2, 3]
    ns = ns or [3, 4]
    k_max = 8
    witness = {}
    ok = True
    for n in ns:
        for p in ps:
            q = constructions.q_value(p)
            w_counts = count_series(constructions.prism(n, p), k_max, budget)
            s_counts = count_series(constructions.simplex(n, p), k_max, budget)
            good = all(
                w == (2 * q * k + 1) * s
                for k, (w, s) in enumerate(zip(w_counts, s_counts), start=1)
            )
            ok = ok and good
            witness[f"n={n},p={p}"] = {
                "prism_counts": w_counts,
                "simplex_counts": s_counts,
                "identity": good,
            }
    return VerificationReport(
        "prism-identity",
        {"n": ns, "p": ps, "k_max": k_max},
        "pass" if ok else "fail",
        witness,
    )


def _claim_sn_pn_equivalence(ps, ns, budget) -> VerificationReport:
    ps = ps or [2, 3]
    ns = ns or [3, 4]
    witness = {}
    ok = True
    for n in ns:
        for p in ps:
            qs, cs = _fitted(constructions.simplex(n, p), budget)
            qp, cp = _fitted(constructions.pentagon_pyramid(n, p), budget)
            good = equivalent(qs, negate(qp))
            ok = ok and good
            witness[f"n={n},p={p}"] = {
                "equivalent": good,
                "simplex_counts": cs.samples(),
                "pyramid_counts": cp.samples(),
            }
    return VerificationReport(
        "sn-pn-equivalence", {"n": ns, "p": ps}, "pass" if ok else "fail", witness
    )


def _claim_decomposition(ps, ns, budget) -> VerificationReport:
    cases = [(3, 2), (3, 3), (4, 2)]
    if ps:
        cases = [(n, p) for n, p in cases if p in ps]
    if ns:
        cases = [(n, p) for n, p in cases if n in ns]
    if not cases:
        return VerificationReport(
            "decomposition", {"cases": []}, "skipped: no matching cases"
        )
    witness = {}
    ok = True
    for n, p in cases:
        report = constructions.decomposition_check(n, p, 4, budget)
        ok = ok and report.ok
        witness[f"n={n},p={p}"] = {
            "ok": report.ok,
            "first_failing_k": report.first_failing_k,
            "integral_middle": report.integral_middle,
            "integral_prism_side": report.integral_prism_side,
            "integral_pyramid_side": report.integral_pyramid_side,
            "counts": report.counts,
        }
    return VerificationReport(
        "decomposition", {"cases": cases, "k_max": 4}, "pass" if ok else "fail", witness
    )


def _claim_hn_periods(ps, ns, budget) -> VerificationReport:
    cases = [(3, 2), (3, 3), (4, 2)]
    if ps:
        cases = [(n, p) for n, p in cases if p in ps]
    if ns:
        cases = [(n, p) for n, p in cases if n in ns]
    if not cases:
        return VerificationReport(
            "hn-periods", {"cases": []}, "skipped: no matching cases"
        )
    witness = {}
    ok = True
    for n, p in cases:
        qp, counter = _fitted(constructions.hull(n, p), budget)
        seq = period_sequence(qp)
        expected = (1, p) + (1,) * (n - 1)
        good = seq == expected
        entry = {"period_sequence": list(seq), "counts": counter.samples()}
        if (n, p) == (3, 2):
            spot = count(constructions.hull(3, 2), 1, budget)
            good = good and spot == 49
            entry["count_k1"] = spot
        witness[f"n={n},p={p}"] = entry
        ok = ok and good
    return VerificationReport(
        "hn-periods", {"cases": cases}, "pass" if ok else "fail", witness
    )


def _claim_barn_periods(ps, ns, budget) -> VerificationReport:
    ps = ps or [2, 3]
    ns = ns or [3, 4, 5]
    witness = {}
    ok = True
    for n in ns:
        for p in ps:
            try:
                solution = pte.table_lookup(n - 1)
            except NotAvailable as exc:
                # requesting an impossible dimension is reported, not failed:
                # the construction-range check below asserts exactly this
                witness[f"n={n},p={p}"] = f"NotAvailable: {exc}"
                continue
            union = constructions.barn(n, p, solution)
            qp, counter = _fitted(union, budget)
            seq = period_sequence(qp)
            expected = (1,) * (n - 1) + (p, 1)
            good = seq == expected
            entry = {"period_sequence": list(seq), "counts": counter.samples()}
            if n == 3 and p == 2:
                enum = [
                    count(union, k, budget)
                    for k in (1, 2)
                ]
                from .counting import count_union

                direct = [count_union(union, k, budget, "enumerate") for k in (1, 2)]
                good = good and enum == [48, 253] and direct == enum
                entry["counts_k1_k2"] = enum
                entry["enumeration_cross_check"] = direct
            witness[f"n={n},p={p}"] = entry
            ok = ok and good
    construction_range = {}
    for n in list(range(3, 12)) + [12, 13]:
        try:
            sol = pte.table_lookup(n - 1)
            constructions.barn(n, 2, sol, check=False)
            construction_range[str(n)] = "ok"
            good = n != 12  # size 11 must not exist
        except NotAvailable as exc:
            construction_range[str(n)] = f"NotAvailable: {exc}"
            good = n == 12
        ok = ok and good
    witness["construction_range"] = construction_range
    return VerificationReport(
        "barn-periods", {"n": ns, "p": ps}, "pass" if ok else "fail", witness
    )


def _mcmullen_targets(max_p: int):
    for p in range(1, max_p + 1):
        yield f"segment p={p}", constructions.segment(p)
        yield f"pentagon p={p}", constructions.pentagon(p)
        yield f"rectangle p={p}", constructions.rectangle(p)
        yield f"heptagon p={p}", constructions.heptagon(p)
        for n in (3, 4, 5):
            yield f"simplex n={n} p={p}", constructions.simplex(n, p)
        for n in (3, 4):
            yield f"prism n={n} p={p}", constructions.prism(n, p)
            yield f"pentagon-pyramid n={n} p={p}", constructions.pentagon_pyramid(n, p)
            yield f"hull n={n} p={p}", constructions.hull(n, p)
            yield f"middle n={n} p={p}", constructions.middle(n, p)


def _claim_mcmullen(ps, ns, budget) -> VerificationReport:
    max_p = max(ps) if ps else 3
    witness = {}
    ok = True
    for label, poly in _mcmullen_targets(max_p):
        report = mcmullen_check(poly, counter=_fitted(poly, budget)[1])
        d0 = denominator(poly)
        good = report.ok and report.index_sequence[0] == d0
        ok = ok and good
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
        witness[label] = entry
    return VerificationReport(
        "mcmullen", {"max_p": max_p}, "pass" if ok else "fail", witness
    )


def _claim_pte_table(ps, ns, budget) -> VerificationReport:
    witness = {}
    ok = True
    for size in pte.available_sizes():
        sol = pte.table_lookup(size)
        verified = pte.verify(sol)
        identity = pte.product_identity_check(sol)
        ok = ok and verified and identity
        witness[f"size={size}"] = {
            "s": list(sol.s),
            "t": list(sol.t),
            "verified": verified,
            "product_identity": identity,
        }
    two = pte.table_lookup(2)
    three = pte.table_lookup(3)
    ok = ok and two == pte.PteSolution((1, 2), (3, 0))
    ok = ok and three == pte.PteSolution((1, 2, 6), (4, 5, 0))
    return VerificationReport(
        "pte-table", {"sizes": pte.available_sizes()}, "pass" if ok else "fail", witness
    )


def _difference_polynomial(sol: pte.PteSolution) -> list[int]:
    from .polynomials import poly_mul, poly_trim

    left = [1]
    for x in sol.s:
        left = [int(c) for c in poly_mul(left, [1, x])]
    right = [1]
    for x in sol.t[:-1]:
        right = [int(c) for c in poly_mul(right, [1, x])]
    right += [0] * (len(left) - len(right))
    return [int(c) for c in poly_trim([l - r for l, r in zip(left, right)])]


def _claim_product_identity(ps, ns, budget) -> VerificationReport:
    witness = {}
    ok = True
    for size in pte.available_sizes():
        sol = pte.table_lookup(size)
        good = pte.product_identity_check(sol)
        witness[f"size={size}"] = {
            "holds": good,
            "difference_polynomial": _difference_polynomial(sol),
        }
        ok = ok and good
    ok = ok and _difference_polynomial(pte.table_lookup(2)) == [0, 0, 2]
    ok = ok and _difference_polynomial(pte.table_lookup(3)) == [0, 0, 0, 12]
    return VerificationReport(
        "product-identity",
        {"sizes": pte.available_sizes()},
        "pass" if ok else "fail",
        witness,
    )


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


def run_claim(claim: str, ps=None, ns=None, budget=None) -> VerificationReport:
    """Run one verification claim; budget exhaustion is flagged, not failed."""
    try:
        return _CLAIM_FUNCS[claim](ps, ns, budget)
    except BudgetExceeded as exc:
        return VerificationReport(claim, {}, f"skipped: budget exceeded ({exc})")


def verify_all(max_p: int | None = None, max_n: int | None = None, budget: int | None = None):
    """All claims, in the fixed claim-id order."""
    ps = list(range(1, max_p + 1)) if max_p else None
    ns = list(range(3, max_n + 1)) if max_n else None
    return [run_claim(claim, ps, ns, budget) for claim in CLAIMS]


def _cmd_verify(args) -> int:
    ps = [args.p] if args.p else (list(range(1, args.max_p + 1)) if args.max_p else None)
    ns = [args.n] if args.n else (list(range(3, args.max_n + 1)) if args.max_n else None)
    if args.claim == "all":
        reports = [run_claim(c, ps, ns, args.budget) for c in CLAIMS]
    else:
        reports = [run_claim(args.claim, ps, ns, args.budget)]
    payload = [r.to_dict() for r in reports]
    _emit(payload[0] if len(payload) == 1 else payload, args.format)
    return 0 if all(r.outcome != "fail" for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_object_options(sub, with_input: bool = True) -> None:
    sub.add_argument("--family", choices=constructions.FAMILIES, help="polytope family")
    sub.add_argument("--p", type=int, default=2, help="period parameter (default 2)")
    sub.add_argument("--n", type=int, default=None, help="ambient dimension, where needed")
    if with_input:
        sub.add_argument("--input", help="JSON polytope/union file instead of --family")


def _add_common(sub) -> None:
    sub.add_argument("--budget", type=int, default=None, help="enumeration point budget")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrhart",
        description="Exact dilate counting, quasi-polynomial fitting and period verification for rational polytopes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("construct", help="emit a family member as JSON")
    _add_object_options(sub, with_input=False)
    _add_common(sub)
    sub.set_defaults(func=_cmd_construct)

    sub = subs.add_parser("count", help="lattice-point counts of dilates")
    _add_object_options(sub)
    sub.add_argument("--k", type=int, default=None, help="single dilate")
    sub.add_argument("--k-max", type=int, default=6, help="count k = 1..k_max (default 6)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("fit", help="fit the dilate-count quasi-polynomial")
    _add_object_options(sub)
    _add_common(sub)
    sub.set_defaults(func=_cmd_fit)

    sub = subs.add_parser("periods", help="minimal coefficient periods")
    _add_object_options(sub)
    _add_common(sub)
    sub.set_defaults(func=_cmd_periods)

    sub = subs.add_parser("indices", help="face index sequence and period bound check")
    _add_object_options(sub)
    _add_common(sub)
    sub.set_defaults(func=_cmd_indices)

    sub = subs.add_parser("series", help="rational generating function of the counts")
    _add_object_options(sub)
    _add_common(sub)
    sub.set_defaults(func=_cmd_series)

    sub = subs.add_parser("pte", help="equal-power-sum solution table")
    pte_subs = sub.add_subparsers(dest="pte_command", required=True)
    lst = pte_subs.add_parser("list", help="show the shipped table")
    _add_common(lst)
    lst.set_defaults(func=_cmd_pte)
    ver = pte_subs.add_parser("verify", help="verify table entries or a given pair")
    ver.add_argument("--size", type=int, default=None)
    ver.add_argument("--s", default=None, help="comma-separated side s")
    ver.add_argument("--t", default=None, help="comma-separated side t (trailing 0)")
    _add_common(ver)
    ver.set_defaults(func=_cmd_pte)

    sub = subs.add_parser("verify", help="run verification claims")
    sub.add_argument("claim", choices=CLAIMS + ("all",))
    sub.add_argument("--p", type=int, default=None, help="restrict to one period value")
    sub.add_argument("--n", type=int, default=None, help="restrict to one dimension")
    sub.add_argument("--max-p", type=int, default=None)
    sub.add_argument("--max-n", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EhrhartError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
