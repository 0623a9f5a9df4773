"""Command-line front end.

Subcommands (one per core procedure):

  structure  ball | ancestry | pseudofinite
  weight     verify | tau | build-l74 | build-l76 | radii
  tau        check | witness | blockseq | growth
  element    convolve | norm | sigma | augment
  ideal      telescope | decompose-point | decompose-full | divide-shift |
             rewrite-pf | necessity | witness-45 | witness-65 | witness-75

Every leaf is one row of the table COMMANDS: (group, command) -> help text,
handler, flags (after the shared --out/--format/--precision) and, for a leaf
with a CSV form, its CSV header.  `main` refuses --format csv on any other
leaf before it starts, loads the leaf's input files once (--spec, --weight,
--element, --csv), hashes them into the envelope and hands the handler the
loaded objects in place of the paths; the handler returns (report, ok, CSV
rows or None) and `main` writes the report envelope or the CSV.
`parse_command(argv)` reads a leaf command straight off its COMMANDS row
when every flag is spelled out in full and followed by one plain value
(`_parse_leaf`).  Help, --version and every other form go to the full
argparse tree, `build_parser()`, which parses them or prints its usage,
help or error text; argparse is imported only there.

Exit codes: 0 = run completed and every certified check passed; 1 = a
property or certificate failed (the report carries the witness), or a
search came back empty; 2 = input, parse, or resource error, and any other
exception, reported on one stderr line without a traceback.

Reports are byte-stable: identical inputs and tool version produce
byte-identical bytes.  Wall-clock duration therefore goes to stderr, never
into the report.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .algebra import Element, convolve_many, sigma_sequence, weighted_norm
from .certify import DEFAULT_BITS, MAX_BITS, parse_rational, printable
from .idealkit import (CertificateError, decompose_full, decompose_point,
                       divide_shift, pseudo_generation_necessity,
                       rewrite_pseudofinite, telescope, witness_nontp_element,
                       witness_prop45, witness_thm75)
from .sequences import (PrefixSequence, build_block_sequence, check_prefix_tp,
                        failure_witness, growth_check, read_csv)
from .serialize import canonical_json, load_json, read_input, write_csv
from .structures import (InvalidInput, ResourceLimit, check_size,
                         division_balls, find_ancestry, pseudo_finite_within,
                         structure_from_spec)
from .weights import (build_lemma74, build_lemma76, estimate_radii,
                      tau_step_check, tau_and_C, verify_weight_axioms,
                      weight_from_spec)


def _rational_rows(values):
    """CSV rows (n, numerator, denominator), each distinct int formatted once."""
    ints = {i for v in values for i in (v.numerator, v.denominator)}
    text = dict(zip(ints, map(str, ints)))
    for n, v in enumerate(values, start=1):
        yield n, text[v.numerator], text[v.denominator]


def _parse_point(text: str, s):
    try:
        obj = json.loads(text)
    except ValueError:  # not JSON (bare strings like theta), or an int past the digit limit
        obj = text
    return s.elem_from_json(obj)


# ---------------------------------------------------------------------------
# handlers: (report, ok, rows) per subcommand; `main` has already replaced
# each input path in args by the object it holds (_load_inputs)
# ---------------------------------------------------------------------------

def _h_structure_ball(args, bits):
    s, gens = args.spec
    bt = division_balls(s, gens, args.depth)
    sizes = bt.sizes()
    report = {
        "depth": args.depth,
        "ball_sizes": sizes,
        "levels": s.spheres_to_json(bt.levels),
        "universal_at": bt.universal_at(),
        "stable_at": bt.stable_at(),
    }
    rows = [[n, size, "all" if size == "all" else len(lev)]
            for n, (size, lev) in enumerate(zip(sizes, bt.levels))]
    return report, True, rows


def _h_structure_ancestry(args, bits):
    s, gens = args.spec
    u = _parse_point(args.target, s)
    chain, bt = find_ancestry(s, gens, u, args.depth)
    report = {
        "target": s.elem_to_json(u),
        "depth": args.depth,
        "ball_sizes": bt.sizes(),
        "found": chain is not None,
    }
    if chain is not None:
        report["chain"] = [{"elem": s.elem_to_json(st.elem), "op": st.op,
                            "x": st.x if st.x is None else s.elem_to_json(st.x)}
                           for st in chain]
    else:
        report["reason"] = f"element not inside B_{args.depth}"
    return report, chain is not None, None


def _h_structure_pseudofinite(args, bits):
    return pseudo_finite_within(*args.spec, args.depth), True, None


def _check_depth_levels(depth):
    """Refuse a per-n loop over n = 0..depth at or past the cap."""
    check_size("--depth {} asks for n = 0..depth", depth, depth + 1, "levels")


def _check_blocks(blocks):
    """Refuse K blocks at or past the cap: the builder keeps eps_0..eps_K."""
    check_size("--blocks {} asks for eps_k, k = 0..blocks", blocks, blocks + 1,
               "values")


def _h_weight_verify(args, bits):
    k = max(args.radius, 0) // 2  # m = 1..k, n = m..radius - m
    check_size("--radius {} checks the length pairs m <= n, m + n <= radius",
               args.radius, k * (args.radius - k), "pairs")
    rep = verify_weight_axioms(*args.spec, args.weight, args.radius, bits)
    return rep, rep["ok"], None


def _h_weight_tau(args, bits):
    _check_depth_levels(args.depth)
    tc = tau_and_C(*args.spec, args.weight, args.depth, bits)
    l61 = tau_step_check(tc["taus"], tc["C"])
    tc["sphere_lipschitz"] = l61
    tc["certified"] = l61["ok"]
    return tc, l61["ok"], _rational_rows(tc["taus"])


def _h_weight_build_l74(args, bits):
    _check_blocks(args.blocks)
    _, rep = build_lemma74(parse_rational(args.rho), args.blocks, bits)
    ok = rep["step_bounds_all_ok"] and rep["eps_monotone"] and rep["eps_below_1_over_k"]
    rep["certified"] = ok
    return rep, ok, None


def _h_weight_build_l76(args, bits):
    w, rep = build_lemma76(parse_rational(args.rho), args.depth)
    ok = (rep["star_ok"] and rep["dagger_ok"] and rep["submult_ok"]
          and rep["ratio_all_ok"])
    rep["certified"] = ok
    rep["gamma"] = w.gamma
    return rep, ok, None


def _h_weight_radii(args, bits):
    _check_depth_levels(args.depth)
    return estimate_radii(args.spec[0], args.weight, args.depth, bits), True, None


def _h_tau_check(args, bits):
    seq = args.csv
    if args.depth is not None:
        if args.depth < 2:
            raise InvalidInput("--depth must be >= 2 for a sequence prefix")
        seq = PrefixSequence(seq.nums[:args.depth], seq.den)
    rep = check_prefix_tp(seq)
    return rep, True, _rational_rows(rep["ratios"])


def _h_tau_witness(args, bits):
    rep = failure_witness(args.csv, args.target)
    if "x" in rep:
        rep["x"] = [{"n": j, "value": v} for j, v in sorted(rep["x"].items())]
    return rep, rep["found"], None


def _h_tau_blockseq(args, bits):
    rep = build_block_sequence(parse_rational(args.rho), args.blocks)
    seq = rep.pop("sequence")
    value = {a: Fraction(a, seq.den) for a in set(seq.nums)}  # one per block
    rep["values"] = [value[a] for a in seq.nums]
    ok = rep["tau_geq_rho_pow_j"] and rep["boundary_all_ok"]
    rep["certified"] = ok
    return rep, ok, _rational_rows(rep["values"])


def _h_tau_growth(args, bits):
    rep = growth_check(args.csv, args.target)
    return rep, rep["hypothesis_ok"] and rep["conclusion_ok"], None


def _h_element_convolve(args, bits):
    if len(args.element) < 2:
        raise InvalidInput("convolve needs --element at least twice")
    prod = convolve_many(*args.element)
    return {"factors": len(args.element), "product": prod}, True, None


def _h_element_norm(args, bits):
    f = args.element
    return {"norm": weighted_norm(f, args.weight, bits),
            "support_size": len(f)}, True, None


def _h_element_sigma(args, bits):
    bt = division_balls(*args.spec, args.depth)
    values, stable = sigma_sequence(args.element, bt)
    rows = [[n, v.re.numerator, v.re.denominator, v.im.numerator,
             v.im.denominator] for n, v in enumerate(values)]
    rep = {"depth": args.depth, "sigma": values, "stable_from": stable}
    return rep, True, rows


def _h_element_augment(args, bits):
    return {"augmentation": args.element.augmentation()}, True, None


def _h_ideal_telescope(args, bits):
    return telescope(args.element), True, None


def _h_ideal_decompose_point(args, bits):
    s, gens = args.spec
    rep = decompose_point(s, gens, args.weight, _parse_point(args.target, s),
                          parse_rational(args.d), bits, max_depth=args.depth)
    return rep, rep["ok"], None


def _h_ideal_decompose_full(args, bits):
    rep = decompose_full(*args.spec, args.weight, args.element,
                         parse_rational(args.d), bits, max_depth=args.depth)
    return rep, rep["ok"], None


def _h_ideal_divide_shift(args, bits):
    _, rep = divide_shift(args.element)
    return rep, rep["ok"], None


def _h_ideal_rewrite_pf(args, bits):
    rep = rewrite_pseudofinite(*args.spec, args.element, depth=args.depth)
    return rep, rep["ok"], None


def _h_ideal_necessity(args, bits):
    rep = pseudo_generation_necessity(args.spec[0], args.element, args.depth)
    return rep, rep["verdict"] == "covers", None


def _h_ideal_witness_45(args, bits):
    return witness_prop45(*args.spec, args.depth), True, None


def _h_ideal_witness_65(args, bits):
    rep = witness_nontp_element(*args.spec, args.weight, args.alphas, bits)
    return rep, True, None


def _h_ideal_witness_75(args, bits):
    _check_blocks(args.blocks)
    rep = witness_thm75(parse_rational(args.rho), args.blocks, bits)
    for key in ("norm_upper_bound_exact", "divisor_partial_norm"):
        if rep[key] is not None:  # exact sums pass the digit limit near K = 5000
            rep[key] = printable(rep[key], bits)
    return rep, rep["ok"], None


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

def _flag(name, **kw):
    return name, kw


SPEC = _flag("--spec", required=True)
WEIGHT = _flag("--weight", required=True)
ELEMENT = _flag("--element", required=True)
ELEMENTS = _flag("--element", action="append", required=True)
DEPTH = _flag("--depth", type=int, required=True)
RHO = _flag("--rho", required=True)
BLOCKS = _flag("--blocks", type=int, required=True)
CSV = _flag("--csv", required=True)
IO_FLAGS = [
    _flag("--out", help="write the report here (default: stdout)"),
    _flag("--format", choices=["json", "csv"], default="json"),
    _flag("--precision", type=int, default=DEFAULT_BITS,
          help="enclosure precision in bits (default 128)"),
]

GROUPS = {
    "structure": "division balls and ancestries",
    "weight": "weights: axioms, sphere minima, builders",
    "tau": "tail-preservation analysis of sequences",
    "element": "finitely supported elements",
    "ideal": "augmentation-ideal decompositions and witnesses",
}

# (group, command) -> (help, handler, flags after IO_FLAGS[, CSV header]),
# in --help order
COMMANDS = {
    ("structure", "ball"): (
        "division-closure balls B_0..B_depth", _h_structure_ball,
        [SPEC, DEPTH], ["n", "ball_size", "sphere_size"]),
    ("structure", "ancestry"): (
        "multiplication/division chain down to e", _h_structure_ancestry,
        [SPEC, _flag("--target", required=True, help="element (JSON literal)"),
         DEPTH]),
    ("structure", "pseudofinite"): (
        "is M = B_n for some n <= depth?", _h_structure_pseudofinite,
        [SPEC, DEPTH]),
    ("weight", "verify"): (
        "weight axioms on a ball", _h_weight_verify,
        [SPEC, WEIGHT, _flag("--radius", type=int, required=True)]),
    ("weight", "tau"): (
        "sphere minima tau_n and generator max C", _h_weight_tau,
        [SPEC, WEIGHT, DEPTH], ["n", "tau_num", "tau_den"]),
    ("weight", "build-l74"): (
        "stepped-exponent weight, K blocks", _h_weight_build_l74,
        [RHO, BLOCKS]),
    ("weight", "build-l76"): (
        "self-similar gamma weight on Z up to N", _h_weight_build_l76,
        [RHO, _flag("--depth", type=int, required=True, help="table size N")]),
    ("weight", "radii"): (
        "growth-radius enclosures from weight values", _h_weight_radii,
        [SPEC, WEIGHT, DEPTH]),
    ("tau", "check"): (
        "exact prefix ratios and D-hat", _h_tau_check,
        [_flag("--csv", required=True, help="sequence CSV (index,num,den)"),
         _flag("--depth", type=int, help="truncate to the first N entries")],
        ["n", "ratio_num", "ratio_den"]),
    ("tau", "witness"): (
        "search for ||x|| <= 1 with T(x) >= target", _h_tau_witness,
        [CSV, _flag("--target", required=True, help="rational target")]),
    ("tau", "blockseq"): (
        "staircase sequence with 1/k boundary ratios", _h_tau_blockseq,
        [RHO, BLOCKS], ["index", "numerator", "denominator"]),
    ("tau", "growth"): (
        "check tau_(n+1) >= D sum_(j<=n) tau_j and its bound", _h_tau_growth,
        [CSV, _flag("--target", required=True, help="the constant D")]),
    ("element", "convolve"): (
        "convolution product (give --element twice)", _h_element_convolve,
        [SPEC, ELEMENTS]),
    ("element", "norm"): (
        "weighted l1 norm", _h_element_norm,
        [SPEC, WEIGHT, ELEMENT]),
    ("element", "sigma"): (
        "ball sums sigma_n(f) for n = 0..depth", _h_element_sigma,
        [SPEC, ELEMENT, DEPTH], ["n", "re_num", "re_den", "im_num", "im_den"]),
    ("element", "augment"): (
        "sum of coefficients", _h_element_augment,
        [SPEC, ELEMENT]),
    ("ideal", "telescope"): (
        "f = sum beta_u (delta_e - delta_u)", _h_ideal_telescope,
        [SPEC, ELEMENT]),
    ("ideal", "decompose-point"): (
        "delta_e - delta_u over the generators", _h_ideal_decompose_point,
        [SPEC, WEIGHT,
         _flag("--target", required=True, help="the point u (JSON literal)"),
         _flag("--d", required=True, help="prefix growth constant D"),
         _flag("--depth", type=int, default=64,
               help="geodesic search depth for non-standard generators")]),
    ("ideal", "decompose-full"): (
        "zero-augmentation f over the generators", _h_ideal_decompose_full,
        [SPEC, WEIGHT, ELEMENT, _flag("--d", required=True),
         _flag("--depth", type=int, default=64)]),
    ("ideal", "divide-shift"): (
        "divide by delta_1 - delta_0 on Z", _h_ideal_divide_shift,
        [SPEC, ELEMENT]),
    ("ideal", "rewrite-pf"): (
        "rewrite over a pseudo-finite monoid", _h_ideal_rewrite_pf,
        [SPEC, ELEMENT, _flag("--depth", type=int, default=16)]),
    ("ideal", "necessity"): (
        "do the supports pseudo-generate?", _h_ideal_necessity,
        [SPEC, ELEMENTS, DEPTH]),
    ("ideal", "witness-45"): (
        "ball-sum obstruction witness, K levels", _h_ideal_witness_45,
        [SPEC, _flag("--depth", type=int, required=True, help="K")]),
    ("ideal", "witness-65"): (
        "weighted ball-sum witness from alpha data", _h_ideal_witness_65,
        [SPEC, WEIGHT,
         _flag("--csv", dest="alphas", metavar="CSV", required=True,
               help="alpha vector CSV (index,num,den)")]),
    ("ideal", "witness-75"): (
        "bounded element with divergent divisor", _h_ideal_witness_75,
        [RHO, BLOCKS]),
}


def _dest(name, kw) -> str:
    """The attribute flag `name` sets, as argparse names it."""
    return kw.get("dest", name[2:].replace("-", "_"))


def build_parser():
    """The full argparse tree: every group and every leaf.  It parses what
    `parse_command` leaves to it and prints every usage, help and error."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="waug",
        description="workbench for weighted l1 algebras on finitely "
                    "generated groups and monoids")
    ap.add_argument("--version", action="version", version=f"waug {__version__}")
    groups = ap.add_subparsers(dest="group", required=True)
    commands = {name: groups.add_parser(name, help=text).add_subparsers(
                    dest="command", required=True)
                for name, text in GROUPS.items()}
    for (group, command), (text, _, flags, *_) in COMMANDS.items():
        leaf = commands[group].add_parser(command, help=text)
        for name, kw in IO_FLAGS + flags:
            leaf.add_argument(name, **kw)
    return ap


def _parse_leaf(key, words):
    """The namespace of leaf `key` read off COMMANDS, or None unless words
    are full flag names, each followed by one value that does not start with
    '-', converts with the flag's type and is among its choices, and every
    required flag is given.  An append flag collects its values; another
    repeated flag keeps the last, as argparse does."""
    flags = dict(IO_FLAGS + COMMANDS[key][2])
    given = set(words[::2])
    if len(words) % 2 or any(kw.get("required") and name not in given
                             for name, kw in flags.items()):
        return None
    args = SimpleNamespace(group=key[0], command=key[1], **{
        _dest(name, kw): kw.get("default") for name, kw in flags.items()})
    for name, text in zip(words[::2], words[1::2]):
        kw = flags.get(name)
        if kw is None or text.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(text)
        except ValueError:
            return None
        if value not in kw.get("choices", [value]):
            return None
        dest = _dest(name, kw)
        if kw.get("action") == "append":
            value = [*(getattr(args, dest) or []), value]
        setattr(args, dest, value)
    return args


def parse_command(argv):
    """The namespace of a command: `_parse_leaf` of the leaf argv[:2] names,
    else build_parser().parse_args(argv), which exits on help, --version or
    an error; both give the same attributes for every argv the first reads."""
    key = tuple(argv[:2])
    args = _parse_leaf(key, argv[2:]) if key in COMMANDS else None
    return args if args is not None else build_parser().parse_args(argv)


# the flags (by dest) that name an input file, in the order they are loaded
INPUTS = ("spec", "weight", "element", "csv", "alphas")


def _load_inputs(args, inputs: dict):
    """Replace each input path in args by the object its file holds: the
    (structure, generators) pair, the weight (checked against the structure),
    the element or list of elements, the sequence or alpha vector.  Each
    file is read once, hashed into `inputs` for the envelope (the k-th
    repeat of --element as element_k) and parsed from those bytes."""
    for dest in INPUTS:
        paths = getattr(args, dest, None)
        if paths is None:
            continue
        key = "csv" if dest == "alphas" else dest
        loaded = []
        for i, path in enumerate(paths if isinstance(paths, list) else [paths]):
            data, digest = read_input(path)
            inputs[f"{key}_{i}" if i else key] = {"path": path, "sha256": digest}
            if dest == "csv":
                loaded.append(PrefixSequence(*read_csv(data, "sequence", path)))
            elif dest == "alphas":
                nums, den = read_csv(data, "vector", path)
                loaded.append([Fraction(a, den) for a in nums])
            elif dest == "spec":
                loaded.append(structure_from_spec(load_json(data, path)))
            elif dest == "weight":
                w = weight_from_spec(load_json(data, path))
                w.check_domain(args.spec[0])
                loaded.append(w)
            else:
                loaded.append(Element.from_json(args.spec[0], load_json(data, path)))
        setattr(args, dest, loaded if isinstance(paths, list) else loaded[0])


def _parameters_of(args, flags) -> dict:
    """The envelope's parameters: every flag of the leaf but --out and the
    input files, when set."""
    out = {}
    for name, kw in flags:
        key = _dest(name, kw)
        val = getattr(args, key)
        if key != "out" and key not in INPUTS and val is not None:
            out[key] = val
    return out


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_line(exc: Exception) -> str:
    """The one stderr line of a run that failed with exc: the message of an
    input, resource or file error, the type and message of anything else."""
    text = str(exc)
    if not isinstance(exc, (InvalidInput, ResourceLimit, OSError)):
        text = f"{type(exc).__name__}: {text}"
    return " ".join(text.splitlines())


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_command(sys.argv[1:] if argv is None else argv)
    bits = args.precision
    if not 8 <= bits <= MAX_BITS:
        print(f"waug: --precision must be between 8 and {MAX_BITS} bits", file=sys.stderr)
        return 2
    _, handler, flags, *csv_header = COMMANDS[(args.group, args.command)]
    if args.format == "csv" and not csv_header:
        print(f"waug: no CSV form for '{args.group} {args.command}'", file=sys.stderr)
        return 2
    flags = IO_FLAGS + flags
    inputs = {}
    try:
        try:
            _load_inputs(args, inputs)
            report, ok, rows = handler(args, bits)
        except CertificateError as exc:
            report = dict(exc.report)
            report["error"] = "certificate"
            report["reason"] = str(exc)
            ok, rows = False, None
        if args.format == "csv":
            text = write_csv(csv_header[0], rows)
        else:
            envelope = {
                "tool": "waug",
                "version": __version__,
                "operation": f"{args.group} {args.command}",
                "inputs": inputs,
                "parameters": _parameters_of(args, flags),
                "result": report,
                "ok": ok,
            }
            text = canonical_json(envelope)
        _emit(text, args.out)
    except Exception as exc:  # exit 1 means a failed property, never a crash
        print(f"waug: error: {_error_line(exc)}", file=sys.stderr)
        return 2
    ms = int((time.monotonic() - started) * 1000)
    print(f"waug: duration_ms={ms} (stderr only; reports are byte-stable)",
          file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
