"""Planted faults in src, kept as data: each must make its named tests fail.

A mutant replaces one exact text of one file (which must occur there once)
and names the tests that must catch it.  MUTANTS holds index, ordering,
census and input-check faults; STATISTICAL holds faults in a law: the uncertainty layer
(the stderrs and the tolerance that turn numbers into verdicts), the
likelihoods, the noise, the sampler, the signal norm, the prior mean and
the stability bounds, each named with a test outside tests/test_golden.py,
since a golden fails on any change of output, right or wrong.  tests/replay_mutants.py replays
them one at a time on a temporary copy of src and tests; it is not part of
the tier-1 suite, since each mutant costs two pytest starts.  A mutant that
survives means a test was loosened or a kernel moved out from under it.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    what: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


NOISE, STABILITY, LOWDEG = "src/plantedlab/noise.py", "src/plantedlab/stability.py", "src/plantedlab/lowdeg.py"
RAISED_IN_ARM_ORDER = "tests/test_noise.py::test_map_arms_raises_in_arm_order"
PER_SEED_CENSUS = "tests/test_cli.py::test_count_paths_matches_the_per_seed_loop"
BARRIER_TOLERANCE = "tests/test_stability.py::test_verify_barrier_holds_within_three_combined_stderrs"
STDERR_COVERAGE = "tests/test_mc.py::test_reported_stderr_covers_the_known_value"

MUTANTS = (
    # the ranked-lane pass
    Mutant(
        "a stop rule that ignores rank: the first failure in time wins",
        NOISE,
        "failure, live = err, lane",
        "failure, live = failure or err, min(live, lane)",
        (RAISED_IN_ARM_ORDER, "tests/test_stability.py::test_measure_stabilities_raises_the_first_estimator_failure_in_order"),
    ),
    Mutant(
        "every lane raises at once",
        NOISE,
        "failure, live = err, lane",
        "raise",
        (RAISED_IN_ARM_ORDER, "tests/test_cli.py::test_stability_command_raises_the_first_failure_in_estimator_order"),
    ),
    Mutant(
        "the lanes after the failure are reduced too",
        NOISE,
        "zip(lanes, rows[:live])",
        "zip(lanes, rows)",
        (RAISED_IN_ARM_ORDER, "tests/test_stability.py::test_measure_stabilities_raises_ill_conditioned_before_a_later_trial_failure"),
    ),
    Mutant(
        "the failure is raised before the lanes ranked before it are reduced",
        NOISE,
        "        reductions = [reduce(outs) for (_, _, reduce), outs in zip(lanes, rows[:live])]\n"
        "        if failure is not None:\n            raise failure\n",
        "        if failure is not None:\n            raise failure\n"
        "        reductions = [reduce(outs) for (_, _, reduce), outs in zip(lanes, rows[:live])]\n",
        (RAISED_IN_ARM_ORDER, "tests/test_stability.py::test_measure_stabilities_raises_ill_conditioned_before_a_later_trial_failure"),
    ),
    Mutant(
        "the arms are noised in reverse order",
        NOISE,
        "for arm in sorted(arms):",
        "for arm in sorted(arms, reverse=True):",
        ("tests/test_noise.py::test_map_arms_noises_each_run_in_every_arm_one_arm_at_a_time",),
    ),
    Mutant(
        "a lane whose estimator does not resolve raises at once",
        NOISE,
        "            except Exception as err:  # noqa: BLE001 - the lane fails before the pass\n                failure = err\n",
        "            except ParameterError as err:\n                failure = err\n",
        ("tests/test_stability.py::test_measure_stabilities_raises_a_trial_failure_before_a_later_estimator_that_does_not_resolve",),
    ),
    Mutant(
        "the stability grid takes the noise path of a grid point",
        STABILITY,
        "[(rho, None) for rho in rho_grid]",
        "[(rho, j) for j, rho in enumerate(rho_grid)]",
        ("tests/test_stability.py::test_stability_grid_is_hex_equal_to_per_rho_calls_read_estimator_major",),
    ),
    Mutant(
        "the lanes of the stability grid rank rho-major",
        STABILITY,
        "        for estimator in estimators\n        for arm, rho in arms\n",
        "        for arm, rho in arms\n        for estimator in estimators\n",
        (
            "tests/test_stability.py::test_stability_grid_is_hex_equal_to_per_rho_calls_read_estimator_major",
            "tests/test_cli.py::test_stability_command_raises_the_first_failure_in_estimator_order",
        ),
    ),
    Mutant(
        "the estimator lanes of a barrier cell rank before its MMSE lane",
        STABILITY,
        "lanes = [mmse_lane, *_moment_lanes(estimators, params, [(1, rho)])]",
        "lanes = [*_moment_lanes(estimators, params, [(1, rho)]), mmse_lane]",
        ("tests/test_stability.py::test_barrier_cell_raises_a_resolution_error_after_the_mmse_arm",),
    ),
    # kept from earlier mutation checks that still apply
    Mutant(
        "an arm out of range raises at construction",
        NOISE,
        "        check_trials(n)\n",
        "        check_trials(n)\n        [check_rho(rho) for rho, _ in arms]\n",
        (
            "tests/test_noise.py::test_an_arm_out_of_range_raises_after_the_arms_before_it",
            "tests/test_bayes.py::test_mmse_curve_raises_in_grid_order",
        ),
    ),
    Mutant(
        "the two arms of a barrier cell swapped",
        STABILITY,
        "[(rho, 0), (rho, None)]",
        "[(rho, None), (rho, 0)]",
        (
            "tests/test_stability.py::test_barrier_cell_is_hex_equal_to_the_mmse_curve_and_stability_calls",
            "tests/test_golden.py::test_golden_csv[barrier-rlc]",
        ),
    ),
    Mutant(
        "the breadth-first search starts from vertex 3",
        "src/plantedlab/solvers.py",
        "dist[:, 2] = 0",
        "dist[:, 3] = 0",
        ("tests/test_symmetry.py::test_shortest_path_length_and_found_flag_stay_under_a_relabeling_of_vertices_3_to_n_exactly",),
    ),
    Mutant(
        "the TPCA supports rolled against their tensor entries",
        "src/plantedlab/bayes.py",
        "entries = combos[b][:, corners]",
        "entries = np.roll(combos[b], 1, axis=0)[:, corners]",
        ("tests/test_symmetry.py::test_tpca_overlap_distribution_stays_under_a_permutation_of_tensor_indices",),
    ),
    Mutant(
        "the TPCA overlap drops a support's first index",
        "src/plantedlab/bayes.py",
        "overlap = member[combos].sum(axis=1)",
        "overlap = member[combos[:, 1:]].sum(axis=1)",
        ("tests/test_symmetry.py::test_tpca_overlap_distribution_stays_under_a_permutation_of_tensor_indices",),
    ),
    Mutant(
        "the PSP placements read the vertex permutations transposed",
        "src/plantedlab/models.py",
        ".reshape(count, len(holders))",
        ".reshape(len(holders), count).T",
        ("tests/test_symmetry.py::test_psp_symmetric_polynomials_stay_under_a_relabeling_of_vertices_3_to_n",),
    ),
    # the path census
    Mutant(
        "the pair census takes every graph of a run, past pair_graphs",
        "src/plantedlab/cli.py",
        "weights[: pair_graphs - ts.start]",
        "weights",
        (PER_SEED_CENSUS,),
    ),
    Mutant(
        "the overlap pass drops its first row block",
        "src/plantedlab/counting.py",
        "for start in range(0, len(paths), rows):",
        "for start in range(rows, len(paths), rows):",
        ("tests/test_counting.py::test_overlap_pass_over_a_stack_matches_the_per_graph_oracles", PER_SEED_CENSUS),
    ),
    Mutant(
        "the census takes an edge vector without checking its entries",
        "src/plantedlab/counting.py",
        '    check_bits("edges", edges)\n',
        "",
        (
            "tests/test_counting.py::test_census_rejects_a_non_binary_adjacency",
            "tests/test_counting.py::test_census_rejects_a_matrix_that_is_no_psp_graph",
        ),
    ),
    # the batch check
    Mutant(
        "check_stack takes a stacked array of any trial shape",
        "src/plantedlab/models.py",
        '    if arrays.shape[1:] != shape:\n        raise ParameterError(f"{name} has shape {arrays.shape[1:]}, expected {shape}")\n',
        "",
        (
            "tests/test_models.py::test_check_stack_names_the_wrong_shape",
            "tests/test_lowdeg.py::test_evaluate_many_rejects_a_batch_of_mixed_shapes",
        ),
    ),
    Mutant(
        "check_stack takes entries of any dtype, complex and object included",
        "src/plantedlab/models.py",
        'if arrays.dtype.kind not in "biuf":',
        "if False:",
        ("tests/test_models.py::test_every_consumer_rejects_an_observation_outside_the_model_alike",),
    ),
    # the one trial form
    Mutant(
        "a run of several trials passes as an instance, read at trial 0",
        "src/plantedlab/models.py",
        "len(run) == 1",
        "len(run) >= 1",
        ("tests/test_models.py::test_one_trial_consumers_reject_a_run_of_another_length",),
    ),
    # outside input of another form or another model
    Mutant(
        "a PSP instance's edges taken without checking that they are a list",
        "src/plantedlab/models.py",
        'if not isinstance(obj["edges"], list):',
        "if False:",
        ("tests/test_models.py::test_psp_instance_json_rejects_edges_that_are_not_a_list",),
    ),
    Mutant(
        "a model key in params overrides the config's model",
        "src/plantedlab/cli.py",
        'if self.params.get("model", self.model) != self.model:',
        "if False:",
        ("tests/test_cli.py::test_params_naming_another_model_exit_2_and_write_nothing",),
    ),
    Mutant(
        "a polynomial evaluated at another model's params",
        LOWDEG,
        "if not isinstance(params, kind):",
        "if False:",
        ("tests/test_lowdeg.py::test_polynomials_reject_another_models_params_or_a_term_outside_them",),
    ),
)

STATISTICAL = (
    Mutant(
        "the barrier tolerance doubled to 6 combined stderrs",
        STABILITY,
        "BARRIER_SIGMAS = 3.0",
        "BARRIER_SIGMAS = 6.0",
        (BARRIER_TOLERANCE,),
    ),
    Mutant(
        "the barrier's combined stderr without the penalty term",
        STABILITY,
        "math.sqrt(stab.mse_stderr**2 + mmse_rho.stderr**2 + penalty_se**2)",
        "math.sqrt(stab.mse_stderr**2 + mmse_rho.stderr**2)",
        (BARRIER_TOLERANCE,),
    ),
    Mutant(
        "the stderr of a mean times 0.7",
        "src/plantedlab/mc.py",
        "float(arr.std(ddof=1) / math.sqrt(arr.size))",
        "float(0.7 * arr.std(ddof=1) / math.sqrt(arr.size))",
        (STDERR_COVERAGE,),
    ),
    Mutant(
        "the ratio stderr without its covariance term",
        "src/plantedlab/mc.py",
        " - 2 * mn * cov / md**3",
        "",
        (STDERR_COVERAGE,),
    ),
    # the laws: the likelihood, the noise, the sampler, the signal norm, the prior mean and the stability bounds
    Mutant(
        "the posterior at 0.9 rho",
        "src/plantedlab/bayes.py",
        "runs = [kernel(params, rho, *(f[b] for f in fields))",
        "runs = [kernel(params, 0.9 * rho if 0 < rho < 1 else rho, *(f[b] for f in fields))",
        (
            "tests/test_bayes.py::test_gss_posterior_matches_extended_precision_oracle",
            "tests/test_bayes.py::test_tpca_noisy_observation_equals_rescaled_model",
        ),
    ),
    Mutant(
        "the noise operator at 0.9 rho",
        NOISE,
        "return partial(_NOISE[model_name(params)], params, rho)",
        "return partial(_NOISE[model_name(params)], params, 0.9 * rho if rho < 1 else rho)",
        ("tests/test_noise.py::test_rlc_flip_probability_is_half_rho", "tests/test_noise.py::test_gss_variance_preserved_under_ou"),
    ),
    Mutant(
        "the RLC noise mask at 0.9 rho",
        NOISE,
        "uniforms(raw[:, :m]) < rho",
        "uniforms(raw[:, :m]) < 0.9 * rho",
        ("tests/test_noise.py::test_rlc_flip_probability_is_half_rho", "tests/test_noise.py::test_rlc_full_noise_uniform"),
    ),
    Mutant(
        "the PSP sampler's edge probability at 1.1 q",
        "src/plantedlab/models.py",
        "edges = uniforms(words) < q",
        "edges = uniforms(words) < 1.1 * q",
        ("tests/test_models.py::test_psp_nonpath_edge_frequency_matches_q",),
    ),
    Mutant(
        "the RLC signal norm n/1.8 in place of n/2",
        "src/plantedlab/models.py",
        "lambda p: p.n / 2.0,",
        "lambda p: p.n / 1.8,",
        ("tests/test_models.py::test_signal_norms", "tests/test_bayes.py::test_mmse_curve_rlc_endpoints_exact"),
    ),
    Mutant(
        "the barrier penalty's 7 replaced by 5",
        STABILITY,
        "math.sqrt(2.0 * (7.0 + 4.0 * eta) * eta)",
        "math.sqrt(2.0 * (5.0 + 4.0 * eta) * eta)",
        ("tests/test_stability.py::test_barrier_penalty_values",),
    ),
    Mutant(
        "the RLC stability bound times 1.25",
        LOWDEG,
        "return 2.0 * (1.0 - (1.0 - rho) ** degree)",
        "return 2.5 * (1.0 - (1.0 - rho) ** degree)",
        ("tests/test_lowdeg.py::test_rlc_pure_codeword_character_sits_at_bound",),
    ),
    Mutant(
        "the GSS posterior's noise variance at 0.8 rho^2",
        "src/plantedlab/bayes.py",
        "/ (2.0 * rho * rho)",
        "/ (1.6 * rho * rho)",
        ("tests/test_bayes.py::test_gss_posterior_matches_extended_precision_oracle",),
    ),
    Mutant(
        "the TPCA posterior's lambda times 1.1",
        "src/plantedlab/bayes.py",
        "lam=params.lam * (1.0 - rho * rho)",
        "lam=1.1 * params.lam * (1.0 - rho * rho)",
        ("tests/test_bayes.py::test_tpca_posterior_matches_full_density_oracle",),
    ),
    Mutant(
        "the PSP prior mean of the pairs at vertices 1 and 2 times 1.1",
        "src/plantedlab/models.py",
        "out[pair_ids(n)[1:3, 3:]] = p_end",
        "out[pair_ids(n)[1:3, 3:]] = 1.1 * p_end",
        ("tests/test_stability.py::test_psp_prior_mean_equals_path_enumeration",),
    ),
    Mutant(
        "the GSS stability bound times 1.25",
        LOWDEG,
        "return 2.0 * (1.0 - (1.0 - rho * rho) ** (degree / 2.0))",
        "return 2.5 * (1.0 - (1.0 - rho * rho) ** (degree / 2.0))",
        ("tests/test_lowdeg.py::test_gss_pure_hermite_term_sits_at_bound",),
    ),
    Mutant(
        "the ratio stderr from moments with ddof=0",
        "src/plantedlab/mc.py",
        "    var_n = num.var(ddof=1)\n    var_d = den.var(ddof=1)\n    cov = float(np.cov(num, den, ddof=1)[0, 1])\n",
        "    var_n = num.var(ddof=0)\n    var_d = den.var(ddof=0)\n    cov = float(np.cov(num, den, ddof=0)[0, 1])\n",
        ("tests/test_mc.py::test_ratio_stderr_is_the_delta_method_with_unbiased_moments",),
    ),
)
