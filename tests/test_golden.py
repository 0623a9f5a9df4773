"""Golden reports: CLI output pinned byte for byte.

Each case runs one `waug` leaf command from inside `tests/golden`, so the
input paths recorded in the report envelope are the relative paths below,
and compares the report with `tests/golden/<name>`.  A change that alters a
report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says so; any other difference is a regression.
"""

import os
import sys

import pytest

from waug.cli import COMMANDS, main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (report file, expected exit code, argv without --out)
CASES = [
    ("ball_f2_d5.json", 0,
     ["structure", "ball", "--spec", "inputs/f2.json", "--depth", "5"]),
    ("ball_f2_d5.csv", 0,
     ["structure", "ball", "--spec", "inputs/f2.json", "--depth", "5",
      "--format", "csv"]),
    ("ball_f2_ab_d4.json", 0,
     ["structure", "ball", "--spec", "inputs/f2_ab.json", "--depth", "4"]),
    ("ball_z3_d4.json", 0,
     ["structure", "ball", "--spec", "inputs/z3.json", "--depth", "4"]),
    ("ball_z3_d4.csv", 0,
     ["structure", "ball", "--spec", "inputs/z3.json", "--depth", "4",
      "--format", "csv"]),
    ("ball_fm3_d4.json", 0,
     ["structure", "ball", "--spec", "inputs/fm3.json", "--depth", "4"]),
    ("ball_fm3_d4.csv", 0,
     ["structure", "ball", "--spec", "inputs/fm3.json", "--depth", "4",
      "--format", "csv"]),
    ("ball_theta_d3.json", 0,
     ["structure", "ball", "--spec", "inputs/theta.json", "--depth", "3"]),
    ("ball_theta_d3.csv", 0,
     ["structure", "ball", "--spec", "inputs/theta.json", "--depth", "3",
      "--format", "csv"]),
    ("ball_a_theta_d3.json", 0,
     ["structure", "ball", "--spec", "inputs/a_theta.json", "--depth", "3"]),
    ("ball_theta_b_d3.json", 0,
     ["structure", "ball", "--spec", "inputs/theta_b.json", "--depth", "3"]),
    ("ball_klein_a_d4.json", 0,
     ["structure", "ball", "--spec", "inputs/klein_a.json", "--depth", "4"]),
    # the semilattice e < a, b with ab = ba = a over {a}: b enters B_2 only
    # as a quotient (b a = a), so its ancestry takes a div step
    ("ball_semilattice_d3.json", 0,
     ["structure", "ball", "--spec", "inputs/semilattice.json", "--depth", "3"]),
    ("ancestry_semilattice.json", 0,
     ["structure", "ancestry", "--spec", "inputs/semilattice.json",
      "--target", "2", "--depth", "3"]),
    ("pseudofinite_semilattice.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/semilattice.json",
      "--depth", "3"]),
    ("ancestry_f2.json", 0,
     ["structure", "ancestry", "--spec", "inputs/f2.json",
      "--target", "[1, -2, 1]", "--depth", "4"]),
    ("ancestry_z3.json", 0,
     ["structure", "ancestry", "--spec", "inputs/z3.json",
      "--target", "[2, -1, 1]", "--depth", "4"]),
    ("ancestry_z3_outside.json", 1,
     ["structure", "ancestry", "--spec", "inputs/z3.json",
      "--target", "[3, 3, 0]", "--depth", "4"]),
    ("ancestry_theta.json", 0,
     ["structure", "ancestry", "--spec", "inputs/theta.json",
      "--target", "[1, 2, 1]", "--depth", "3"]),
    # free words in the smallest and a large alphabet: the rank-1 group
    # (3 symbols with e), the rank-1 monoid (2) and the rank-26 group (53)
    ("ball_f1_d5.json", 0,
     ["structure", "ball", "--spec", "inputs/f1.json", "--depth", "5"]),
    ("ancestry_f1.json", 0,
     ["structure", "ancestry", "--spec", "inputs/f1.json",
      "--target", "[-1, -1, -1]", "--depth", "4"]),
    ("ball_fm1_d5.json", 0,
     ["structure", "ball", "--spec", "inputs/fm1.json", "--depth", "5"]),
    ("ancestry_fm1.json", 0,
     ["structure", "ancestry", "--spec", "inputs/fm1.json",
      "--target", "[1, 1, 1]", "--depth", "4"]),
    ("ball_f26_d1.json", 0,
     ["structure", "ball", "--spec", "inputs/f26.json", "--depth", "1"]),
    ("ball_f26_sub_d3.json", 0,
     ["structure", "ball", "--spec", "inputs/f26_sub.json", "--depth", "3"]),
    ("ancestry_f26_sub.json", 0,
     ["structure", "ancestry", "--spec", "inputs/f26_sub.json",
      "--target", "[26, -13, 26, 1]", "--depth", "4"]),
    ("pseudofinite_c5.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/c5.json", "--depth", "5"]),
    ("pseudofinite_klein_a.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/klein_a.json",
      "--depth", "5"]),
    ("pseudofinite_theta_b.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/theta_b.json",
      "--depth", "4"]),
    ("pseudofinite_f2.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/f2.json", "--depth", "10"]),
    ("sigma_f2_d5.json", 0,
     ["element", "sigma", "--spec", "inputs/f2.json",
      "--element", "inputs/f2_elem.json", "--depth", "5"]),
    ("sigma_f2_d5.csv", 0,
     ["element", "sigma", "--spec", "inputs/f2.json",
      "--element", "inputs/f2_elem.json", "--depth", "5", "--format", "csv"]),
    ("sigma_theta_d3.json", 0,
     ["element", "sigma", "--spec", "inputs/theta.json",
      "--element", "inputs/theta_elem.json", "--depth", "3"]),
    # weight
    ("weight_verify_z_exp_half.json", 0,
     ["weight", "verify", "--spec", "inputs/z.json",
      "--weight", "inputs/w_exp_half.json", "--radius", "6"]),
    ("weight_verify_c5_explicit.json", 0,
     ["weight", "verify", "--spec", "inputs/c5.json",
      "--weight", "inputs/w_explicit_c5.json", "--radius", "3"]),
    ("weight_verify_z_trivial.json", 0,
     ["weight", "verify", "--spec", "inputs/z.json",
      "--weight", "inputs/w_trivial.json", "--radius", "3"]),
    # explicit weights that fail an axiom: omega(m2) > omega(m1)^2, and
    # values below 1 (which then fail submultiplicativity too)
    ("weight_verify_c5_not_submult.json", 1,
     ["weight", "verify", "--spec", "inputs/c5.json",
      "--weight", "inputs/w_explicit_c5_not_submult.json", "--radius", "3"]),
    ("weight_verify_c5_below_one.json", 1,
     ["weight", "verify", "--spec", "inputs/c5.json",
      "--weight", "inputs/w_explicit_c5_below_one.json", "--radius", "3"]),
    ("weight_verify_fm1_l74.json", 0,
     ["weight", "verify", "--spec", "inputs/fm1.json",
      "--weight", "inputs/w_l74.json", "--radius", "8"]),
    ("weight_verify_z_l76.json", 0,
     ["weight", "verify", "--spec", "inputs/z.json",
      "--weight", "inputs/w_l76.json", "--radius", "15"]),
    ("weight_verify_z_l76_r3_n255.json", 0,
     ["weight", "verify", "--spec", "inputs/z.json",
      "--weight", "inputs/w_l76_r3_n255.json", "--radius", "255"]),
    ("weight_verify_z_exp_half_c9_4.json", 0,
     ["weight", "verify", "--spec", "inputs/z.json",
      "--weight", "inputs/w_exp_half_c9_4.json", "--radius", "20"]),
    ("weight_verify_z_exp_half_c7_2.json", 0,
     ["weight", "verify", "--spec", "inputs/z.json",
      "--weight", "inputs/w_exp_half_c7_2.json", "--radius", "20"]),
    ("weight_tau_f2_exp2.json", 0,
     ["weight", "tau", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--depth", "5"]),
    ("weight_tau_f2_exp2.csv", 0,
     ["weight", "tau", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--depth", "5", "--format", "csv"]),
    # a non-standard free set walked through tau_and_C's sphere lengths
    ("weight_tau_f2_ab_exp2.json", 0,
     ["weight", "tau", "--spec", "inputs/f2_ab.json",
      "--weight", "inputs/w_exp2.json", "--depth", "5"]),
    ("weight_tau_f2_ab_exp2.csv", 0,
     ["weight", "tau", "--spec", "inputs/f2_ab.json",
      "--weight", "inputs/w_exp2.json", "--depth", "5", "--format", "csv"]),
    ("weight_tau_c5_explicit.json", 0,
     ["weight", "tau", "--spec", "inputs/c5.json",
      "--weight", "inputs/w_explicit_c5.json", "--depth", "2"]),
    # lemma 7.4's radial values on the rank-1 free monoid; Z^3 graded, and
    # walked over a non-standard set (the base Structure's sphere lengths)
    ("weight_tau_fm1_l74.json", 0,
     ["weight", "tau", "--spec", "inputs/fm1.json",
      "--weight", "inputs/w_l74.json", "--depth", "6"]),
    ("weight_tau_z3_poly2.csv", 0,
     ["weight", "tau", "--spec", "inputs/z3.json",
      "--weight", "inputs/w_poly2.json", "--depth", "4", "--format", "csv"]),
    ("weight_tau_z3_diag_poly2.json", 0,
     ["weight", "tau", "--spec", "inputs/z3_diag.json",
      "--weight", "inputs/w_poly2.json", "--depth", "4"]),
    ("build_l74_r2_k5.json", 0,
     ["weight", "build-l74", "--rho", "2", "--blocks", "5"]),
    ("build_l76_r2_n15.json", 0,
     ["weight", "build-l76", "--rho", "2", "--depth", "15"]),
    ("build_l76_r3_2_n255.json", 0,
     ["weight", "build-l76", "--rho", "3/2", "--depth", "255"]),
    ("radii_z_exp_half_c9_4.json", 0,
     ["weight", "radii", "--spec", "inputs/z.json",
      "--weight", "inputs/w_exp_half_c9_4.json", "--depth", "20"]),
    ("radii_z_exp_half_c7_2.json", 0,
     ["weight", "radii", "--spec", "inputs/z.json",
      "--weight", "inputs/w_exp_half_c7_2.json", "--depth", "20"]),
    # acceptance scale: the lemma 7.6 table to n = 255 (both radii) and
    # radial_exp beta = 1/2 to depth 128 and radius 64
    ("radii_z_l76_r3_n255.json", 0,
     ["weight", "radii", "--spec", "inputs/z.json",
      "--weight", "inputs/w_l76_r3_n255.json", "--depth", "255"]),
    ("radii_z_exp_half_c7_2_d128.json", 0,
     ["weight", "radii", "--spec", "inputs/z.json",
      "--weight", "inputs/w_exp_half_c7_2.json", "--depth", "128"]),
    ("weight_verify_z_exp_half_r64.json", 0,
     ["weight", "verify", "--spec", "inputs/z.json",
      "--weight", "inputs/w_exp_half.json", "--radius", "64"]),
    ("radii_z_l76.json", 0,
     ["weight", "radii", "--spec", "inputs/z.json",
      "--weight", "inputs/w_l76.json", "--depth", "6"]),
    ("radii_f2_exp_half.json", 0,
     ["weight", "radii", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp_half.json", "--depth", "4"]),
    # tau
    ("tau_check_mixed.json", 0,
     ["tau", "check", "--csv", "inputs/seq_mixed.csv"]),
    ("tau_check_mixed.csv", 0,
     ["tau", "check", "--csv", "inputs/seq_mixed.csv", "--format", "csv"]),
    ("tau_check_geo_d6.json", 0,
     ["tau", "check", "--csv", "inputs/seq_geo.csv", "--depth", "6"]),
    ("tau_witness_ones.json", 0,
     ["tau", "witness", "--csv", "inputs/seq_ones.csv", "--target", "2"]),
    ("tau_witness_geo_none.json", 1,
     ["tau", "witness", "--csv", "inputs/seq_geo.csv", "--target", "3"]),
    ("blockseq_r2_k4.json", 0,
     ["tau", "blockseq", "--rho", "2", "--blocks", "4"]),
    ("blockseq_r2_k4.csv", 0,
     ["tau", "blockseq", "--rho", "2", "--blocks", "4", "--format", "csv"]),
    ("growth_geo.json", 0,
     ["tau", "growth", "--csv", "inputs/seq_geo.csv", "--target", "1"]),
    ("growth_mixed_fail.json", 1,
     ["tau", "growth", "--csv", "inputs/seq_mixed.csv", "--target", "1/2"]),
    # element
    ("convolve_z.json", 0,
     ["element", "convolve", "--spec", "inputs/z.json",
      "--element", "inputs/z_elem_a.json", "--element", "inputs/z_elem_b.json"]),
    ("norm_f2_exp2.json", 0,
     ["element", "norm", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--element", "inputs/f2_elem.json"]),
    # a 3+4i point over 7, an imaginary-only point and a real point, under
    # enclosure weight values and under whole-number ones
    ("norm_f2_gauss_exp_half.json", 0,
     ["element", "norm", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp_half.json", "--element", "inputs/f2_gauss_elem.json"]),
    ("norm_f2_gauss_exp2.json", 0,
     ["element", "norm", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--element", "inputs/f2_gauss_elem.json"]),
    ("norm_z_l76.json", 0,
     ["element", "norm", "--spec", "inputs/z.json",
      "--weight", "inputs/w_l76.json", "--element", "inputs/z_elem_norm.json"]),
    ("augment_f2.json", 0,
     ["element", "augment", "--spec", "inputs/f2.json",
      "--element", "inputs/f2_elem.json"]),
    # ideal
    ("telescope_f2.json", 0,
     ["ideal", "telescope", "--spec", "inputs/f2.json",
      "--element", "inputs/f2_zero_elem.json"]),
    ("decompose_point_f2.json", 0,
     ["ideal", "decompose-point", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--target", "[1, 2, -1]", "--d", "1"]),
    ("decompose_point_f2_ab.json", 0,
     ["ideal", "decompose-point", "--spec", "inputs/f2_ab.json",
      "--weight", "inputs/w_exp2.json", "--target", "[1, 2, 2, -1]",
      "--d", "1/2"]),
    ("decompose_point_f2_identity.json", 0,
     ["ideal", "decompose-point", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--target", "[]", "--d", "1"]),
    ("decompose_point_f2_d_too_large.json", 1,
     ["ideal", "decompose-point", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--target", "[1, 2, -1]", "--d", "3"]),
    # geodesic words on Z and Z^3 (their least_word)
    ("decompose_point_z_poly2.json", 0,
     ["ideal", "decompose-point", "--spec", "inputs/z.json",
      "--weight", "inputs/w_poly2.json", "--target", "3", "--d", "1/2"]),
    ("decompose_point_z3_poly2.json", 0,
     ["ideal", "decompose-point", "--spec", "inputs/z3.json",
      "--weight", "inputs/w_poly2.json", "--target", "[2,-1,1]", "--d", "1/2"]),
    ("decompose_full_f2.json", 0,
     ["ideal", "decompose-full", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--element", "inputs/f2_zero_elem.json",
      "--d", "1"]),
    ("decompose_full_f2_ab.json", 0,
     ["ideal", "decompose-full", "--spec", "inputs/f2_ab.json",
      "--weight", "inputs/w_exp2.json", "--element", "inputs/f2_zero_elem.json",
      "--d", "1/2"]),
    ("decompose_full_f2_ab_gauss.json", 0,
     ["ideal", "decompose-full", "--spec", "inputs/f2_ab.json",
      "--weight", "inputs/w_exp2.json", "--element", "inputs/f2_gauss_elem.json",
      "--d", "1/2"]),
    # f = delta_ab - delta_(ab a^-1): the contributions on a and b cancel,
    # so their terms stay in the report with zero coefficients and norm 0
    ("decompose_full_f2_cancel.json", 0,
     ["ideal", "decompose-full", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--element", "inputs/f2_cancel_elem.json",
      "--d", "1"]),
    # f = (1+i)(delta_e - delta_a): at D = 2 the norm of s_a and the bound
    # are both sqrt 2, an exact tie, so the bound is proved
    ("decompose_full_f2_tie.json", 0,
     ["ideal", "decompose-full", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--element", "inputs/f2_tie_elem.json",
      "--d", "2"]),
    ("divide_shift_z.json", 0,
     ["ideal", "divide-shift", "--spec", "inputs/z.json",
      "--element", "inputs/z_zero_elem.json"]),
    # the zero element: g = 0 on the non-negative side
    ("divide_shift_z_empty.json", 0,
     ["ideal", "divide-shift", "--spec", "inputs/z.json",
      "--element", "inputs/z_empty_elem.json"]),
    ("rewrite_pf_theta.json", 0,
     ["ideal", "rewrite-pf", "--spec", "inputs/theta.json",
      "--element", "inputs/theta_elem.json"]),
    # X = {a, theta}: f over delta_e - delta_a and delta_e - delta_theta
    ("rewrite_pf_a_theta.json", 0,
     ["ideal", "rewrite-pf", "--spec", "inputs/a_theta.json",
      "--element", "inputs/a_theta_elem.json"]),
    ("necessity_klein_a.json", 1,
     ["ideal", "necessity", "--spec", "inputs/klein_a.json",
      "--element", "inputs/klein_elem.json", "--depth", "4"]),
    ("witness_45_fm1.json", 0,
     ["ideal", "witness-45", "--spec", "inputs/fm1.json", "--depth", "6"]),
    ("witness_65_f2.json", 0,
     ["ideal", "witness-65", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--csv", "inputs/alpha.csv"]),
    ("witness_65_c5.json", 0,
     ["ideal", "witness-65", "--spec", "inputs/c5.json",
      "--weight", "inputs/w_explicit_c5.json", "--csv", "inputs/alpha2.csv"]),
    ("witness_75_r2_k5.json", 0,
     ["ideal", "witness-75", "--rho", "2", "--blocks", "5"]),
    # alphas that are all zero leave no witness: the empty report
    ("witness_65_f2_zero.json", 0,
     ["ideal", "witness-65", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--csv", "inputs/alpha_zero.csv"]),
    # a fractional alpha makes radial_poly values nth_root enclosures, and
    # omega(e) the zero-width enclosure of 1
    ("weight_verify_f2_poly_half.json", 0,
     ["weight", "verify", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_poly_half.json", "--radius", "6"]),
    ("radii_z_poly_half.json", 0,
     ["weight", "radii", "--spec", "inputs/z.json",
      "--weight", "inputs/w_poly_half.json", "--depth", "6"]),
    ("norm_f2_poly_half.json", 0,
     ["element", "norm", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_poly_half.json", "--element", "inputs/f2_elem.json"]),
    # division-ball branches: coverage through a universal ball, an
    # unbounded structure, a zero-adjoined monoid that never becomes
    # universal, and a support point outside B_depth
    ("necessity_f2_inconclusive.json", 1,
     ["ideal", "necessity", "--spec", "inputs/f2.json",
      "--element", "inputs/f2_zero_elem.json", "--depth", "3"]),
    ("necessity_c5_covers.json", 0,
     ["ideal", "necessity", "--spec", "inputs/c5.json",
      "--element", "inputs/c5_elem.json", "--depth", "4"]),
    ("pseudofinite_a_only.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/a_only.json",
      "--depth", "4"]),
    ("sigma_z_outside.json", 0,
     ["element", "sigma", "--spec", "inputs/z.json",
      "--element", "inputs/z_elem_norm.json", "--depth", "4"]),
    # test_acceptance.py's c17 invocations (its build-l76 run is
    # build_l76_r2_n15.json above)
    ("c17_ball_f2_d3.json", 0,
     ["structure", "ball", "--spec", "inputs/f2.json", "--depth", "3"]),
    ("c17_ancestry_f2.json", 0,
     ["structure", "ancestry", "--spec", "inputs/f2.json",
      "--target", "[1, 2]", "--depth", "4"]),
    ("c17_pseudofinite_m0_d4.json", 0,
     ["structure", "pseudofinite", "--spec", "inputs/m0.json", "--depth", "4"]),
    ("c17_weight_verify_f2_exp2.json", 0,
     ["weight", "verify", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--radius", "3"]),
    ("c17_weight_tau_f2_poly2.json", 0,
     ["weight", "tau", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_poly2.json", "--depth", "5"]),
    ("c17_build_l74_r2_k4.json", 0,
     ["weight", "build-l74", "--rho", "2", "--blocks", "4"]),
    ("c17_radii_z_exp2.json", 0,
     ["weight", "radii", "--spec", "inputs/z.json",
      "--weight", "inputs/w_exp2.json", "--depth", "8"]),
    ("c17_tau_check_pow2.json", 0,
     ["tau", "check", "--csv", "inputs/seq_pow2.csv"]),
    ("c17_tau_witness_ones12.json", 0,
     ["tau", "witness", "--csv", "inputs/seq_ones12.csv", "--target", "5"]),
    ("c17_blockseq_r2_k5.json", 0,
     ["tau", "blockseq", "--rho", "2", "--blocks", "5"]),
    ("c17_growth_pow2.json", 0,
     ["tau", "growth", "--csv", "inputs/seq_pow2.csv", "--target", "1"]),
    ("c17_convolve_z.json", 0,
     ["element", "convolve", "--spec", "inputs/z.json",
      "--element", "inputs/z_e1.json", "--element", "inputs/z_e2.json"]),
    ("c17_norm_z_exp2.json", 0,
     ["element", "norm", "--spec", "inputs/z.json",
      "--weight", "inputs/w_exp2.json", "--element", "inputs/z_e1.json"]),
    ("c17_sigma_z_d4.json", 0,
     ["element", "sigma", "--spec", "inputs/z.json",
      "--element", "inputs/z_e1.json", "--depth", "4"]),
    ("c17_augment_z.json", 0,
     ["element", "augment", "--spec", "inputs/z.json",
      "--element", "inputs/z_e1.json"]),
    ("c17_telescope_f2.json", 0,
     ["ideal", "telescope", "--spec", "inputs/f2.json",
      "--element", "inputs/f2_ef2.json"]),
    ("c17_decompose_point_f2.json", 0,
     ["ideal", "decompose-point", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--target", "[1, 2]", "--d", "1"]),
    ("c17_decompose_full_f2.json", 0,
     ["ideal", "decompose-full", "--spec", "inputs/f2.json",
      "--weight", "inputs/w_exp2.json", "--element", "inputs/f2_ef2.json",
      "--d", "1"]),
    ("c17_divide_shift_z.json", 0,
     ["ideal", "divide-shift", "--spec", "inputs/z.json",
      "--element", "inputs/z_ez0.json"]),
    ("c17_rewrite_pf_m0.json", 0,
     ["ideal", "rewrite-pf", "--spec", "inputs/m0.json",
      "--element", "inputs/m0_em0.json"]),
    ("c17_necessity_m0_theta.json", 0,
     ["ideal", "necessity", "--spec", "inputs/m0.json",
      "--element", "inputs/m0_eth.json", "--depth", "3"]),
    ("c17_witness_45_fm1_d8.json", 0,
     ["ideal", "witness-45", "--spec", "inputs/fm1.json", "--depth", "8"]),
    ("c17_witness_65_fm1.json", 0,
     ["ideal", "witness-65", "--spec", "inputs/fm1.json",
      "--weight", "inputs/w_trivial.json", "--csv", "inputs/alpha_sq.csv"]),
    ("c17_witness_75_r2_k3.json", 0,
     ["ideal", "witness-75", "--rho", "2", "--blocks", "3"]),
]


def assert_same_lines(got, want, name=""):
    """Assert got == want, bytes or str, through the first line where they
    differ: exactly as strict, and a failure reports one line where a diff
    of two long reports can take pytest minutes to build."""
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    n = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
             min(len(got), len(want)))
    assert got[n:n + 1] == want[n:n + 1], f"{name} first difference at line {n + 1}"


def _run(name, argv, out_dir):
    out = os.path.join(out_dir, name)
    code = main(argv + ["--out", out])
    with open(out, "rb") as fh:
        return code, fh.read()


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, code, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    got_code, got = _run(name, argv, str(tmp_path))
    assert got_code == code
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert_same_lines(got, fh.read(), name)


def test_every_leaf_has_a_golden_case():
    pinned = {tuple(argv[:2]) for _, _, argv in CASES}
    assert sorted(set(COMMANDS) - pinned) == []


if __name__ == "__main__":
    os.chdir(GOLDEN_DIR)
    for name, code, argv in CASES:
        got_code, _ = _run(name, argv, GOLDEN_DIR)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
