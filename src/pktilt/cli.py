"""Command-line interface.

Subcommands: eppf, predict, blocks, diversity, sample, validate. Every run
echoes its parameters, tolerances and (where used) seed; JSON output is a
single object, CSV is one row per grid point with a fixed header. Each
command carries internal self-checks and the exit code is 0 iff they all
pass. --tolerance sets the quadrature tolerance; each handler reads eta
through one EtaMemo built with it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .specfun import (
    CancellationError,
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    integrate_decaying,
    log_rising_factorial,
)
from .tempered_stable import SERIES_CANCELLATION_GUARD, SERIES_TERM_TOLERANCE, GGParams
from .eppf import Composition, EtaMemo, log_eppf, predictive
from .blocks import _log_diversity_density, blocks_pmf, diversity_density
from .oracle import MAX_ENUMERATION_N, enumerate_set_partitions, exact_blocks_pmf
from .sampler import _replicate_rng, monte_carlo_blocks, sample_partition

__all__ = ["main", "build_parser"]


def _parse_composition(text: str) -> Composition:
    try:
        sizes = tuple(int(p) for p in text.split(",") if p.strip() != "")
        return Composition(sizes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad composition {text!r}: {exc}")


def _parse_s_values(args) -> list[float]:
    if args.s is not None:
        vals = [float(p) for p in args.s.split(",") if p.strip() != ""]
    else:
        lo_s, hi_s, count_s = args.s_grid.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        if count < 2 or not (0.0 < lo < hi):
            raise argparse.ArgumentTypeError(f"bad s grid {args.s_grid!r}")
        vals = np.linspace(lo, hi, count).tolist()
    if any(v <= 0 for v in vals):
        raise argparse.ArgumentTypeError("s values must be positive")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pktilt",
        description="Tilted stable partition models: EPPF, predictives, block counts, diversity, sampling.",
    )
    parser.add_argument("--version", action="version", version=f"pktilt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, required=True, help="stable index in (0, 1)")
    common.add_argument("--delta", type=float, required=True, help="scale, positive")
    common.add_argument("--gamma", type=float, required=True, help="tilt, nonnegative")
    common.add_argument(
        "--tolerance", type=float, default=DEFAULT_QUADRATURE.relative_tolerance,
        help="quadrature relative tolerance (default %(default)g)",
    )
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("eppf", parents=[common], help="EPPF value of one composition")
    p.add_argument("--composition", type=_parse_composition, required=True,
                   help="comma-separated block sizes, e.g. 3,2")
    p.add_argument("--oracle", choices=("pd",), default=None,
                   help="pd: compare with the exact gamma=0 closed form")

    p = sub.add_parser("predict", parents=[common], help="next-element seating weights")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--composition", type=_parse_composition, default=None)
    group.add_argument("--empty", action="store_true", help="predictive from the empty state")

    p = sub.add_parser("blocks", parents=[common], help="distribution of the number of blocks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", choices=("enum",), default=None,
                   help=f"enum: compare with brute-force enumeration (n <= {MAX_ENUMERATION_N})")

    p = sub.add_parser("diversity", parents=[common], help="alpha-diversity density on a grid")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", default=None, help="comma-separated evaluation points")
    group.add_argument("--s-grid", default=None, help="lo:hi:count linear grid")

    p = sub.add_parser("sample", parents=[common], help="draw partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", parents=[common], help="run exact identities (and optional MC)")
    p.add_argument("--n-max", type=int, default=6,
                   help="largest n for enumeration identities (capped at 8)")
    p.add_argument("--mc", action="store_true", help="also run a Monte Carlo block-count check")
    p.add_argument("--mc-n", type=int, default=20)
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--tv-threshold", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _envelope(args, spec: QuadratureSpec, payload: dict, checks: list[dict]) -> dict:
    out = {
        "command": args.command,
        "version": __version__,
        "params": {"alpha": args.alpha, "delta": args.delta, "gamma": args.gamma},
        "tolerances": {
            "quadrature_relative_tolerance": spec.relative_tolerance,
            "series_term_tolerance": SERIES_TERM_TOLERANCE,
            "series_cancellation_guard": SERIES_CANCELLATION_GUARD,
        },
    }
    if hasattr(args, "seed"):
        out["seed"] = args.seed
    out.update(payload)
    out["self_checks"] = checks
    out["passed"] = all(c["passed"] for c in checks)
    return out


def _check(name: str, value: float, threshold: float) -> dict:
    return {
        "name": name,
        "value": value,
        "threshold": threshold,
        "passed": bool(value <= threshold),
    }


def _skipped_check(name: str, reason: str) -> dict:
    return {"name": name, "skipped": reason, "passed": True}


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header] + rows) + "\n"


def cmd_eppf(args, params: GGParams, spec: QuadratureSpec):
    comp: Composition = args.composition
    from .eppf import log_vnk

    # one memo, no table: three cells (quadratures at gamma > 0) serve the
    # EPPF, V and the predictive, whose additivity check stays independent
    # of the recurrence
    eta = EtaMemo(params, spec)
    lv = log_eppf(comp, params, eta=eta)
    lvnk = log_vnk(comp.n, comp.k, params, eta=eta)
    gibbs = [log_rising_factorial(1.0 - params.alpha, s - 1) for s in comp.block_sizes]
    payload = {
        "composition": list(comp.block_sizes),
        "n": comp.n,
        "k": comp.k,
        "log_p": lv.log_magnitude,
        "p": lv.value,
        "log_v": lvnk.log_magnitude,
        "v": lvnk.value,
        "log_gibbs_factors": gibbs,
    }
    pred = predictive(comp, params, eta=eta)
    checks = [_check("additivity_residual", abs(pred.total - 1.0), 1e-8)]
    if args.oracle == "pd":
        if params.gamma != 0.0:
            raise SystemExit("--oracle pd requires --gamma 0")
        # eta is closed form at gamma = 0, so this checks how V and the
        # Gibbs factors are put together
        log_ref = (
            (comp.k - 1) * math.log(params.alpha)
            + math.lgamma(comp.k)
            - math.lgamma(comp.n)
            + math.fsum(gibbs)
        )
        payload["oracle_log_p"] = log_ref
        checks.append(
            _check("pd_closed_form_relative_error",
                   abs(math.exp(lv.log_magnitude - log_ref) - 1.0), 1e-8)
        )
    header = "n,k,log_p,p,log_v,v"
    rows = [f"{comp.n},{comp.k},{lv.log_magnitude!r},{lv.value!r},{lvnk.log_magnitude!r},{lvnk.value!r}"]
    return payload, checks, _csv(header, rows)


def cmd_predict(args, params: GGParams, spec: QuadratureSpec):
    comp = None if args.empty else args.composition
    pred = predictive(comp, params, eta=EtaMemo(params, spec))
    payload = {
        "composition": list(comp.block_sizes) if comp else [],
        "existing_weights": list(pred.existing),
        "new_block_weight": pred.new_block,
        "total": pred.total,
    }
    checks = [_check("weights_sum_residual", abs(pred.total - 1.0), 1e-8)]
    if comp is not None and comp.k >= 2:
        # weights must be proportional to (n_j - alpha)
        ref0 = comp.block_sizes[0] - params.alpha
        dev = max(
            abs(w / pred.existing[0] - (s - params.alpha) / ref0)
            for w, s in zip(pred.existing, comp.block_sizes)
        )
        payload["ratio_to_first"] = [
            w / pred.existing[0] for w in pred.existing
        ]
        checks.append(_check("proportionality_deviation", dev, 1e-10))
    header = "kind,index,block_size,weight"
    rows = [
        f"existing,{j + 1},{s},{w!r}"
        for j, (s, w) in enumerate(zip(comp.block_sizes if comp else (), pred.existing))
    ]
    rows.append(f"new,,,{pred.new_block!r}")
    return payload, checks, _csv(header, rows)


def cmd_blocks(args, params: GGParams, spec: QuadratureSpec):
    if args.n < 1:
        raise SystemExit("--n must be >= 1")
    pmf = blocks_pmf(args.n, params, eta=EtaMemo(params, spec))
    logs = [math.log(p) if p > 0 else float("-inf") for p in pmf.probabilities]
    payload = {
        "n": args.n,
        "k": list(range(1, args.n + 1)),
        "probabilities": list(pmf.probabilities),
        "log_probabilities": logs,
        "mean": pmf.mean(),
    }
    checks = [_check("pmf_sum_residual", abs(pmf.total - 1.0), 1e-8)]
    if args.oracle == "enum":
        if args.n > MAX_ENUMERATION_N:
            raise SystemExit(f"--oracle enum requires --n <= {MAX_ENUMERATION_N}")
        # a memo without a table, so the check stays independent of the recurrence
        exact = exact_blocks_pmf(args.n, params, eta=EtaMemo(params, spec))
        dev = max(abs(a - b) for a, b in zip(pmf.probabilities, exact.probabilities))
        payload["oracle_probabilities"] = list(exact.probabilities)
        checks.append(_check("enumeration_max_abs_deviation", dev, 1e-8))
    header = "k,probability,log_probability"
    rows = [
        f"{k},{p!r},{lp!r}"
        for k, (p, lp) in enumerate(zip(pmf.probabilities, logs), start=1)
    ]
    return payload, checks, _csv(header, rows)


def cmd_diversity(args, params: GGParams, spec: QuadratureSpec):
    s_values = _parse_s_values(args)
    densities: list[float | None] = []
    notes: list[str] = []
    for s in s_values:
        try:
            densities.append(diversity_density(params, s))
            notes.append("")
        except CancellationError:
            densities.append(None)
            notes.append("outside reliable region")
    payload = {
        "s": s_values,
        "density": densities,
        "log_density": [math.log(d) if d else None for d in densities],
        "notes": notes,
    }
    if params.alpha == 0.5:
        # full-domain closed form available: certify the density integrates to 1
        def log_f(s_arr: np.ndarray) -> np.ndarray:
            return np.array([_log_diversity_density(params, s) for s in s_arr.tolist()])

        integral = integrate_decaying(log_f, 0.0, spec).value
        payload["integral"] = integral
        checks = [_check("integral_residual", abs(integral - 1.0), 1e-8)]
    else:
        checks = [
            _skipped_check(
                "integral_residual",
                "full-domain integral certified only at alpha = 1/2",
            )
        ]
    header = "s,density,log_density"
    rows = [
        f"{s!r},{'' if d is None else repr(d)},{'' if ld is None else repr(ld)}"
        for s, d, ld in zip(s_values, densities, payload["log_density"])
    ]
    return payload, checks, _csv(header, rows)


def cmd_sample(args, params: GGParams, spec: QuadratureSpec):
    if args.n < 1 or args.replicates < 1:
        raise SystemExit("--n and --replicates must be >= 1")
    eta = EtaMemo(params, spec)
    eta.ensure_rows(args.n)
    samples = []
    ok_labels = True
    for r in range(args.replicates):
        part = sample_partition(args.n, params, _replicate_rng(args.seed, r), eta=eta)
        seen = 0
        for lab in part.labels:
            if lab > seen + 1:
                ok_labels = False
            seen = max(seen, lab)
        samples.append({
            "replicate": r,
            "k": len(part.block_sizes),
            "block_sizes": list(part.block_sizes),
            "labels": list(part.labels),
        })
    payload = {"n": args.n, "replicates": args.replicates, "samples": samples}
    checks = [{
        "name": "labels_in_first_appearance_order",
        "value": ok_labels,
        "threshold": True,
        "passed": ok_labels,
    }]
    header = "replicate,k,block_sizes,labels"
    rows = [
        f"{s['replicate']},{s['k']},{';'.join(map(str, s['block_sizes']))},{';'.join(map(str, s['labels']))}"
        for s in samples
    ]
    return payload, checks, _csv(header, rows)


def cmd_validate(args, params: GGParams, spec: QuadratureSpec):
    n_max = min(args.n_max, 8)
    if n_max < 1:
        raise SystemExit("--n-max must be >= 1")
    checks = []
    rows = []
    # the table serves blocks_pmf; the enumeration and predictive identities
    # read per-cell values (closed form at gamma = 0, quadrature otherwise),
    # so they check the table's recurrence instead of echoing it
    table = EtaMemo(params, spec)
    table.ensure_rows(n_max)
    cells = EtaMemo(params, spec)
    for n in range(1, n_max + 1):
        exact = exact_blocks_pmf(n, params, eta=cells)
        norm_res = abs(exact.total - 1.0)
        checks.append(_check(f"eppf_normalization_n{n}", norm_res, 1e-8))
        rows.append(f"eppf_normalization,n={n},{norm_res!r},1e-08,{norm_res <= 1e-8}")
        fast = blocks_pmf(n, params, eta=table)
        dev = max(abs(a - b) for a, b in zip(fast.probabilities, exact.probabilities))
        checks.append(_check(f"blocks_vs_enumeration_n{n}", dev, 1e-8))
        rows.append(f"blocks_vs_enumeration,n={n},{dev!r},1e-08,{dev <= 1e-8}")
    # predictive additivity across the shapes of n_max
    worst = 0.0
    seen = set()
    for part in enumerate_set_partitions(min(n_max, 6)):
        shape = tuple(sorted(part.block_sizes, reverse=True))
        if shape in seen:
            continue
        seen.add(shape)
        pred = predictive(Composition(shape), params, eta=cells)
        worst = max(worst, abs(pred.total - 1.0))
    checks.append(_check("predictive_additivity_worst", worst, 1e-8))
    rows.append(f"predictive_additivity,shapes<=6,{worst!r},1e-08,{worst <= 1e-8}")
    payload = {"n_max": n_max}
    if args.mc:
        report = monte_carlo_blocks(
            args.mc_n, params, args.replicates, args.seed, eta=EtaMemo(params, spec)
        )
        payload["mc"] = {
            "n": report.n,
            "replicates": report.replicates,
            "seed": report.seed,
            "tv_distance": report.tv_distance,
        }
        checks.append(_check("mc_block_count_tv", report.tv_distance, args.tv_threshold))
        rows.append(
            f"mc_block_count_tv,n={report.n},{report.tv_distance!r},"
            f"{args.tv_threshold!r},{report.tv_distance <= args.tv_threshold}"
        )
    header = "check,detail,value,threshold,passed"
    return payload, checks, _csv(header, rows)


_HANDLERS = {
    "eppf": cmd_eppf,
    "predict": cmd_predict,
    "blocks": cmd_blocks,
    "diversity": cmd_diversity,
    "sample": cmd_sample,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = GGParams(alpha=args.alpha, delta=args.delta, gamma=args.gamma)
        spec = QuadratureSpec(relative_tolerance=args.tolerance)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        payload, checks, csv_text = _HANDLERS[args.command](args, params, spec)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))
    if args.format == "json":
        text = json.dumps(_envelope(args, spec, payload, checks), indent=2) + "\n"
    else:
        text = csv_text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(c["passed"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
