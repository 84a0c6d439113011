"""Check that the tests still catch a table of known bugs (mutants).

Each mutant is an exact replacement of old text by new text in one
file, which must match exactly once, plus the tests that must catch it,
as pytest node ids.  For each mutant the tool copies ``src``, ``tests``,
``tools``, ``README.md`` and ``pyproject.toml`` to a temporary
directory, applies the replacement there and runs
``pytest -x -q -W error`` on the mutant's tests.  The mutant is caught
when a test in that run fails.  It prints one line per mutant, and
exits 1 when a mutant survives, its tests cannot run, or its old text
is stale, so that a refactor of the code a mutant names updates the
table on purpose.  Standard library only; run from anywhere:

    python tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str                 # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]    # pytest node ids, relative to the root


GPC, LINALG, EPC, ORACLE, FIELDS = (
    f"src/gpcodes/{m}.py"
    for m in ("gpc", "linalg", "epc", "oracle", "fields"))
ROW_PASS = "tests/test_row_pass.py::"
REFERENCE = ROW_PASS + "test_decoders_match_the_symbol_array_reference"
CENSUS = ROW_PASS + "test_every_erasure_pattern_of_the_smallest_codes"
ARCHIVE_FLIP = (ROW_PASS + "test_a_flipped_survivor_on_the_archive_loss_is_"
                "reported")
FLIP_BEHIND_LOCAL = ("tests/test_properties.py::test_a_flip_behind_local_"
                     "repairs_is_reported")
NO_ERASURE_FLIP = ("tests/test_properties.py::test_a_flip_in_a_row_with_no_"
                   "erasure_is_reported")
LEVEL_0_ONCE = (ROW_PASS + "test_each_row_pass_takes_the_level_0_syndrome_"
                "once")
LOCAL_FIRST = ("tests/test_properties.py::test_local_first_decode_equals_the_"
               "generic_fill_on_every_pattern")
BATCH_FILL = "tests/test_linalg.py::test_a_batch_fill_equals_per_row_fills"
GROUP_RAISES = ("tests/test_linalg.py::test_a_contradicting_group_leaves_the_"
                "groups_after_it_unwritten")
NO_TABLES = "tests/test_gpc.py::test_gpc_over_a_field_without_tables"
CLOSED_FORM = ("tests/test_gpc.py::test_closed_form_row_solves_equal_the_"
               "generic_solve")
GROUPED_ROWS = ("tests/test_gpc.py::test_grouped_row_repairs_match_scalar_"
                "reference")
BLOCK_RULE = "tests/test_linalg.py::test_wide_field_block_fill_raises"
FOLD = "tests/test_linalg.py::test_fold_equals_the_weighted_row_sums"
MEMBER_FOLDS = ("tests/test_gpc.py::test_membership_folds_equal_the_combined_"
                "rows")
CONTRACTS = ("tests/test_contracts.py::test_each_bad_count_or_position_raises_"
             "value_error")
REFUSALS = ("tests/test_contracts.py::test_each_bad_sequence_field_or_symbol_"
            "raises_value_error")
NEWTON = "tests/test_properties.py::test_the_triangulation_is_the_newton_basis"
VANDERMONDE = ("tests/test_linalg.py::test_vandermonde_solve_equals_the_"
               "generic_solve")
BATCH_FOLD = ("tests/test_properties.py::test_fold_batch_syndromes_equal_each_"
              "rows_syndrome")
RANK_REFERENCE = ("tests/test_oracle.py::test_correctable_equals_the_rank_of_"
                  "the_erased_columns")
CERTIFICATE = ("tests/test_oracle.py::test_information_set_certificate_"
               "matches_the_unpruned_search")

MUTANTS = (
    # gpc: the row pass, the decode driver, arrays and parameters
    Mutant("profile ties break toward larger rows", GPC,
           "sorted(range(m), key=lens.__getitem__,",
           "sorted(range(m - 1, -1, -1), key=lens.__getitem__,",
           (REFERENCE,)),
    Mutant("a peeled row keeps its erased columns", GPC,
           "        erased[row_idx] = ()\n", "", (REFERENCE,)),
    Mutant("erased cells keep what the caller wrote", GPC,
           "        for c in cols:\n            row[c] = 0\n",
           "        for c in cols:\n            pass\n",
           (ROW_PASS + "test_decoders_leave_input_untouched_and_return_"
            "fresh_rows",)),
    Mutant("the decode works on the caller's rows", GPC,
           "values = [vals[:] for vals in arr.values]",
           "values = arr.values",
           (ROW_PASS + "test_decoders_leave_input_untouched_and_return_"
            "fresh_rows",)),
    Mutant("decode_rows returns what it could not repair", GPC,
           "iterate=False)\n    if plan.left:",
           "iterate=False)\n    if False:", (CENSUS,)),
    Mutant("the row pass peels past the budgets", GPC,
           "    if any(map(gt, counts, view.budgets)):\n"
           "        passes.append(_Pass(params, groups, order, counts))\n"
           "        return left\n",
           "", (CENSUS,)),
    Mutant("the row pass returns once local repairs leave nothing erased",
           GPC, "    left = sum(lens)\n",
           "    left = sum(lens)\n    if not left:\n"
           "        passes.append(_Pass(params, groups))\n        return 0\n",
           (FLIP_BEHIND_LOCAL,)),
    Mutant("the row pass skips vanishing combinations whose pivot row has no "
           "erasure", GPC, "        cols = erased[row_idx]\n",
           "        cols = erased[row_idx]\n"
           "        if p < m - k and not cols:\n            continue\n",
           (ARCHIVE_FLIP, FLIP_BEHIND_LOCAL)),
    Mutant("a stall writes one wrong symbol", GPC,
           "    return SymbolArray._masked(values, list(map(list, plan.mask"
           ")),\n",
           "    if plan.left:\n"
           "        r, c = next((r, c) for r, flags in enumerate(plan.mask)\n"
           "                    for c, flag in enumerate(flags) if not flag)\n"
           "        values[r][c] ^= 1\n"
           "    return SymbolArray._masked(values, list(map(list, plan.mask"
           ")),\n", (CENSUS,)),
    Mutant("rows with no erasure skip the weakest row code", GPC,
           "        if len(cols) <= params.u[0]:\n",
           "        if 0 < len(cols) <= params.u[0]:\n",
           (NO_ERASURE_FLIP,
            "tests/test_gpc.py::test_clean_wide_field_decode_runs_no_solve")),
    Mutant("a pivot takes the next level up", GPC,
           "bisect_left(params.u, counts[p])",
           "bisect_left(params.u, counts[p] + 1)",
           (REFERENCE, "tests/test_acceptance.py::test_criterion_03_"
            "decoder_trace")),
    Mutant("membership checks each combination one level too weak", GPC,
           "level = bisect_left(params.u, view.budgets[r])",
           "level = bisect_left(params.u, view.budgets[r]) - 1",
           ("tests/test_gpc.py::test_each_combination_is_checked_in_its_"
            "deepest_level",)),
    Mutant("the parity layout reads the budgets top row first", GPC,
           "budgets[self.m - 1 - r]", "budgets[r]",
           ("tests/test_gpc.py::test_parity_positions_layout",)),
    Mutant("the column pass is skipped", GPC,
           "after = _plan_pass(_view(view.col_params), col_erased, passes)",
           "after = 0", (REFERENCE,)),
    Mutant("the plan key ignores the last row's mask", GPC,
           "tuple(map(bytes, mask))", "tuple(map(bytes, mask[:-1]))",
           ("tests/test_gpc.py::test_plan_cache_is_a_bounded_lru", CENSUS)),
    Mutant("a plan hit replans", GPC,
           "    return recall(_PLANS, (view.params, iterate,",
           "    return _plan(view, mask, iterate)\n"
           "    return recall(_PLANS, (view.params, iterate,",
           ("tests/test_gpc.py::test_a_repeated_loss_plans_once",)),
    Mutant("one-shot plans outlive four decodes", GPC,
           "_PLAN_LIMIT = 4", "_PLAN_LIMIT = 64",
           ("tests/test_gpc.py::test_a_plan_lives_while_four_new_patterns_"
            "pass",)),
    Mutant("a cached plan's vanishing comparison is skipped", GPC,
           "                if row != known:\n"
           "                    raise NoSolutionError("
           "\"inconsistent system\")\n",
           "                seen = _execute_pass.__dict__.setdefault(\"seen\","
           " set())\n"
           "                if row != known and (id(step), i) not in seen:\n"
           "                    raise NoSolutionError("
           "\"inconsistent system\")\n"
           "                seen.add((id(step), i))\n",
           ("tests/test_gpc.py::test_a_changed_survivor_under_a_cached_plan_"
            "raises",)),
    Mutant("codes have no column view", GPC,
           "params.transposed() if params.k < params.m else None,", "None,",
           ("tests/test_gpc.py::test_decode_iterative_staircase",)),
    Mutant("arrays keep junk in their erased cells", GPC,
           "                    vals[c] = 0\n", "                    pass\n",
           ("tests/test_gpc.py::test_symbol_array_copy_zeroes_erased_cells",)),
    Mutant("arrays take ragged rows", GPC,
           "for row in self.values):\n            raise ValueError(\"ragged "
           "rows\")", "for row in self.values):\n            pass",
           ("tests/test_gpc.py::test_symbol_array_mask_is_authoritative",)),
    Mutant("profile ties break toward larger rows, from counts", GPC,
           "key=lambda r: (-counts[r], r))", "key=lambda r: (-counts[r], -r))",
           ("tests/test_gpc.py::test_profile_ordering",)),
    Mutant("the column view's strengths are off by one", GPC,
           "u_new = tuple(self.s_hat(t - i) for i in range(t))",
           "u_new = tuple(self.s_hat(t - i) - (i == 0) for i in range(t))",
           ("tests/test_gpc.py::test_transpose_preserves_code",)),
    Mutant("the peel reads a row form that is not refreshed", GPC,
           "            if cols:\n"
           "                forms[row_idx] = form(row)\n", "", (REFERENCE,)),
    Mutant("a contradiction reports one peel step too many", GPC,
           "        exc.steps = i\n", "        exc.steps = i + 1\n",
           (REFERENCE,)),
    Mutant("a level pivot writes the filled word without the sum it added",
           GPC, "row[c] = word[c] ^ known[c]", "row[c] = word[c]",
           (REFERENCE,)),
    Mutant("a negative cell index wraps around to the end", GPC,
           "and 0 <= r < self.m and 0 <= c < self.n):",
           "and -self.m <= r < self.m and -self.n <= c < self.n):",
           ("tests/test_gpc.py::test_a_position_outside_the_array_raises_"
            "value_error",)),
    Mutant("GpcParams gets an instance dict", GPC,
           "    __slots__ = ()\n\n    def __new__", "    def __new__",
           ("tests/test_package.py::test_records_are_immutable_values",)),
    Mutant("GpcParams accepts a float count", GPC,
           "        out = _not_ints([*zip(\"mnk\", self), *(\n",
           "        out = [] and _not_ints([*zip(\"mnk\", self), *(\n",
           (CONTRACTS,)),
    Mutant("the view cache serves params it never validated", GPC,
           "    if params is not view.params and (bad := "
           "params._type_violations()):\n"
           "        raise ValueError(\"; \".join(bad))\n", "",
           (CONTRACTS,)),
    Mutant("SymbolArray.fill stores a negative symbol", GPC,
           "if not isinstance(value, int) or value < 0:",
           "if not isinstance(value, int):", (REFUSALS,)),
    Mutant("the triangulation clears above its pivots", GPC,
           "def _triangulated_system(",
           "def row_reduce(m):\n"
           "    from .linalg import _eliminate, _work_rows\n"
           "    work = _work_rows(m.field, m.data)\n"
           "    _eliminate(work, m.field, range(m.cols), full=True)\n"
           "    return Matrix._fresh(m.field, [list(row) for row in work])\n"
           "\n\ndef _triangulated_system(", (NEWTON,)),
    # fields
    Mutant("alpha's order is taken for x", FIELDS,
           "element_order(alpha)", "element_order(2)",
           ("tests/test_fields.py::test_a_field_is_built_whole",)),
    Mutant("the product tables step by g^2, not g", FIELDS,
           "self.mul(exp[1], x)", "self.mul(exp[2], x)",
           ("tests/test_fields.py::test_mul_tables_equal_the_field_product",)),
    # linalg
    Mutant("kron flattens columns column-major", LINALG,
           "for x in ar for y in br]", "for y in br for x in ar]",
           ("tests/test_linalg.py::test_kron_mixed_product",)),
    Mutant("identity fills its upper triangle", LINALG,
           "int(i == j)", "int(i <= j)",
           ("tests/test_linalg.py::test_identity_and_mul_vec",)),
    Mutant("rank is the smaller dimension", LINALG,
           "    return len(_eliminate(_work_rows(m.field, m.data), m.field,\n"
           "                          range(m.cols), full=False))\n",
           "    return min(m.rows, m.cols)\n",
           ("tests/test_linalg.py::test_rank",)),
    Mutant("row_reduce clears above its pivots too", LINALG,
           "    _eliminate(work, m.field, range(m.cols), full=False)\n"
           "    return Matrix._fresh(",
           "    _eliminate(work, m.field, range(m.cols), full=True)\n"
           "    return Matrix._fresh(",
           ("tests/test_linalg.py::test_row_reduce_keeps_triangular_"
            "structure",)),
    Mutant("the wide-field row update drops its zero test", LINALG,
           "rows[i] = [v ^ exp[lf + log[q]] if q else v",
           "rows[i] = [v ^ exp[lf + log[q]]",
           ("tests/test_linalg.py::test_eliminate_on_int_lists_equals_the_"
            "mul_reference",)),
    Mutant("the row solve skips its spare checks", LINALG,
           "        if s:\n"
           "            raise NoSolutionError(\"inconsistent system\")\n"
           "    return x\n", "    return x\n",
           (VANDERMONDE, CLOSED_FORM, NO_ERASURE_FLIP)),
    Mutant("the block and wide-field row solve skips its spare checks",
           LINALG, "            if s:\n"
           "                raise NoSolutionError(\"inconsistent system\")\n"
           "        return x\n", "        return x\n",
           (CLOSED_FORM, GROUPED_ROWS)),
    Mutant("stage 2 divides by the last node's difference", LINALG,
           "log[nodes[i] ^ nodes[i - k - 1]]",
           "log[nodes[e - 1] ^ nodes[i - k - 1]]",
           (VANDERMONDE, CLOSED_FORM, "tests/test_gpc.py::test_row_plans_"
            "match_scalar_solves", "tests/test_gpc.py::test_encode_is_"
            "systematic")),
    Mutant("stage 1 stops one step short", LINALG,
           "    for k in range(e - 1):\n        lz = log[nodes[k]]\n",
           "    for k in range(e - 2):\n        lz = log[nodes[k]]\n",
           (VANDERMONDE, CLOSED_FORM, "tests/test_gpc.py::test_decode_rows_"
            "roundtrip_random")),
    Mutant("the block and wide-field stage 2 divides by the last node's "
           "difference", LINALG, "inv(nodes[i] ^ nodes[i - k - 1])",
           "inv(nodes[e - 1] ^ nodes[i - k - 1])",
           (VANDERMONDE, CLOSED_FORM, GROUPED_ROWS)),
    Mutant("the block and wide-field stage 1 stops one step short", LINALG,
           "        for k in range(e - 1):\n"
           "            for i in range(e - 1, k, -1):\n"
           "                x[i] ^= mul(",
           "        for k in range(e - 2):\n"
           "            for i in range(e - 1, k, -1):\n"
           "                x[i] ^= mul(",
           (VANDERMONDE, CLOSED_FORM, GROUPED_ROWS)),
    Mutant("the level-0 fold drops the batch's last row", LINALG,
           'fold(from_bytes(b"".join(map(bytearray, rows)),',
           'fold(from_bytes(b"".join(map(bytearray, rows[:-1])),',
           (BATCH_FOLD, REFERENCE, LEVEL_0_ONCE)),
    Mutant("a block is multiplied by the wrong node", LINALG,
           "translate(tables[a])", "translate(tables[a ^ 1])",
           (CLOSED_FORM, GROUPED_ROWS)),
    Mutant("a block multiply reverses the bytes of its block", LINALG,
           'v.to_bytes(block, "little").translate(tables[a])',
           'v.to_bytes(block, "big").translate(tables[a])',
           (CLOSED_FORM, GROUPED_ROWS)),
    Mutant("the block rule lets GF(2^10) through", LINALG,
           "    if field.mul_tables is None:\n"
           "        raise ValueError(\"blocks",
           "    if field.w > 16:\n        raise ValueError(\"blocks",
           (BLOCK_RULE, "tests/test_gpc.py::test_blocks_over_a_wide_field_"
            "raise_before_any_work")),
    Mutant("maps compile on their third use", LINALG,
           "before <= 1 < self.uses", "before <= 2 < self.uses",
           ("tests/test_linalg.py::test_every_map_compiles_on_its_second_use",)),
    Mutant("caches evict one entry late", LINALG,
           "while len(cache) >= limit:", "while len(cache) > limit:",
           ("tests/test_gpc.py::test_encoder_cache_is_bounded",)),
    Mutant("a plan ignores its check symbols", LINALG,
           "        if any(missing[len(erased):]):\n",
           "        if False:\n",
           ("tests/test_epc.py::test_compiled_residual_plans_match_the_"
            "solve",)),
    Mutant("the fill of no erasures skips its syndrome test", LINALG,
           "            if any(syndrome):\n",
           "            if False:\n",
           ("tests/test_linalg.py::test_a_fill_of_no_erasures_is_its_"
            "syndrome_test",)),
    Mutant("the syndrome plan reads one residual check too few", LINALG,
           "any(missing[len(erased):])", "any(missing[len(erased) + 1:])",
           ("tests/test_epc.py::test_compiled_residual_plans_match_the_"
            "solve",)),
    Mutant("the block syndrome skips a coefficient", LINALG,
           "                    elif g:\n", "                    elif g > 2:\n",
           ("tests/test_linalg.py::test_block_syndrome_equals_per_word_"
            "syndromes", "tests/test_epc.py::test_compiled_residual_plans_"
            "match_the_solve")),
    Mutant("a row repair never writes its cells back", LINALG,
           "                    rows[r][c] = x\n",
           "                    pass\n",
           ("tests/test_gpc.py::test_decode_rows_roundtrip_random",
            BATCH_FILL)),
    Mutant("a group reads its neighbour row's syndrome", LINALG,
           "        shift = 0\n", "        shift = 8 * block\n",
           (REFERENCE, LEVEL_0_ONCE, BATCH_FILL)),
    Mutant("the clean rows skip the block syndrome test", LINALG,
           "            missing = self.solve_syndrome(\n",
           "            missing = [] if not cols else self.solve_syndrome(\n",
           (NO_ERASURE_FLIP,
            "tests/test_gpc.py::test_row_plan_cache_is_bounded_lru",
            GROUP_RAISES)),
    Mutant("wide fields skip the rows of no erasure", LINALG,
           "cols, block) for r in part]",
           "cols, block) for r in part if cols]",
           (NO_ERASURE_FLIP, NO_TABLES, GROUP_RAISES)),
    Mutant("a halving drops the odd top row", LINALG,
           "keep, top = (keep + 1) // 2, keep // 2",
           "keep, top = keep // 2, keep // 2",
           (FOLD, "tests/test_epc.py::test_grid_syndrome_equals_mul_vec",
            MEMBER_FOLDS)),
    Mutant("a halving multiplies by b^(keep - 1)", LINALG,
           "(g := field.pow(b, k))", "(g := field.pow(b, k - 1))",
           (FOLD, "tests/test_epc.py::test_grid_syndrome_equals_mul_vec",
            MEMBER_FOLDS)),
    Mutant("repeated groups skip their masks on the rows shifted down",
           LINALG, "* every if repeat > 1", "* every if repeat > 99",
           (FOLD, "tests/test_epc.py::test_grid_syndrome_equals_mul_vec")),
    Mutant("parity positions are scanned left to right", LINALG,
           "range(self.length - 1, -1, -1)", "range(self.length)",
           ("tests/test_epc.py::test_parity_positions_match_greedy_rank_"
            "scan",)),
    # epc: the flat codes' shape and their local-first decode
    Mutant("a flat code records one global parity too few", EPC,
           "EpcShape(m, 1, n, 1, len(steps))",
           "EpcShape(m, 1, n, 1, len(steps) - 1)",
           ("tests/test_cli.py::test_shapes_with_no_data_symbols_exit_2",)),
    Mutant("a peeled word skips its line sums", EPC,
           "    if any(syndrome):\n", "    if any(syndrome[m + n:]):\n",
           (LOCAL_FIRST,)),
    Mutant("a peeled word skips its power rows", EPC,
           "    if any(syndrome):\n", "    if any(syndrome[:m + n]):\n",
           (LOCAL_FIRST,)),
    Mutant("the peel leaves the power rows behind", EPC,
           "                syndrome[i] ^= mul(checks[i][j], v)\n",
           "                pass\n", (LOCAL_FIRST,)),
    Mutant("the power check runs Horner backwards", EPC,
           'for c in v.to_bytes(n, "big"):',
           'for c in v.to_bytes(n, "little"):',
           ("tests/test_epc.py::test_a_fully_peeled_decode_adds_no_plan_slot",)),
    Mutant("the stopping set's fill starts from a zero syndrome", EPC,
           "code.solve_syndrome(syndrome, stuck)",
           "code.solve_syndrome([0] * len(syndrome), stuck)",
           ("tests/test_epc.py::test_a_stopping_set_solves_from_the_syndrome_"
            "the_peel_tracked", "tests/test_properties.py::test_local_first_"
            "decode_equals_the_generic_fill_on_stopping_sets")),
    Mutant("the peel fills lines with two erasures", EPC,
           "if in_row[r] == 1:", "if in_row[r] <= 2:",
           ("tests/test_epc.py::test_lc_erasure_decode_small_patterns",)),
    # the distance oracle and the equivalence report
    Mutant("correctable compares its rank with the check rows", ORACLE,
           "for c in free])) == len(free)",
           "for c in free])) == check_matrix.rows", (RANK_REFERENCE,)),
    Mutant("correctable ranks the free columns over every row, the rows of "
           "erased pivots included", ORACLE,
           "[row[c] for row in kept] for c in free]",
           "[row[c] for row in rows] for c in free]", (RANK_REFERENCE,)),
    Mutant("correctable indexes with a float position", ORACLE,
           "if not all(isinstance(c, int) and 0 <= c < check_matrix.cols\n",
           "if not all(0 <= c < check_matrix.cols\n", (CONTRACTS,)),
    Mutant("the lane doubling lets the overflow bit into the next lane",
           ORACLE, "v = ((v & keep) << 1) ^", "v = (v << 1) ^",
           ("tests/test_oracle.py::test_lane_expansions_equal_the_mul_"
            "reference",)),
    Mutant("the frontier walk stops one column low", ORACLE,
           "return j - 1, walked", "return j - 2, walked",
           ("tests/test_oracle.py::test_frontier_prune_certifies_independent_"
            "prefix_at_the_root",)),
    Mutant("the certificate counts one more message weight than it "
           "enumerated", ORACLE, "depth = size // len(sets)\n",
           "depth = size // len(sets) - 1\n", (CERTIFICATE,)),
    Mutant("the weight test drops the last lane", ORACLE,
           "tops = ones << w - 1", "tops = ones - (1 << (n - 1) * w) << w - 1",
           (CERTIFICATE,)),
    Mutant("a dependent single column is reported as the last one", ORACLE,
           "                    examined += j + 1\n"
           "                    return (j,)\n",
           "                    examined += j + 1\n"
           "                    return (hi,)\n",
           ("tests/test_oracle.py::test_brute_min_distance_cap_and_budget",)),
    Mutant("the distance search takes a matrix with no columns", ORACLE,
           "    if n == 0:\n        raise DistanceCapError(\"empty matrix has "
           "no columns\")\n", "",
           ("tests/test_oracle.py::test_brute_min_distance_cap_and_budget",)),
    Mutant("a report starts with a mismatch", ORACLE,
           "self.mismatches: list[str] = []",
           "self.mismatches: list[str] = [\"spurious\"]",
           ("tests/test_oracle.py::test_equivalence_flagship",)),
    Mutant("the equivalence check returns an empty report", ORACLE,
           "                f\"{tag}: iterative decoder 'succeeded' on an "
           "ambiguous pattern\")\n    return report\n",
           "                f\"{tag}: iterative decoder 'succeeded' on an "
           "ambiguous pattern\")\n    return EquivalenceReport(trials, seed)\n",
           ("tests/test_oracle.py::test_equivalence_reports_every_kind_of_"
            "mismatch",)),
    # the codec
    Mutant("the codec decodes a mis-shaped array", "src/gpcodes/files.py",
           "        gpc._check_shape(arr, self.m, self.n)\n", "",
           ("tests/test_files.py::test_codec_refuses_an_array_of_another_"
            "shape",)),
    # the CLI's start-up
    Mutant("the CLI loads the oracle at start-up", "src/gpcodes/cli.py",
           "from . import epc, files, gpc\n",
           "from . import epc, files, gpc, oracle  # noqa: F401\n",
           ("tests/test_package.py::test_cli_import_skips_dataclasses_"
            "inspect_and_oracle",)),
)


def apply(root: Path, mutant: Mutant) -> str | None:
    """Apply ``mutant`` to the tree at ``root``: None, or why its old text
    is stale, with the tree left as it was."""
    path = root / mutant.path
    text = path.read_text() if path.is_file() else ""
    found = text.count(mutant.old)
    if found != 1:
        return f"old text found {found} times in {mutant.path}"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def tests_fail(root: Path, tests: Sequence[str]) -> bool:
    """Whether pytest, run in ``root`` on ``tests``, finds a failing
    test.  Raises RuntimeError when it could not run them, as on a
    collection error, a node id that matches no test or a timeout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-W", "error",
             "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"pytest ran past {exc.timeout} s") from exc
    if done.returncode in (0, 1):       # passed, or a test failed
        return done.returncode == 1
    raise RuntimeError(f"pytest exited {done.returncode}:\n"
                       + done.stdout[-1500:] + done.stderr[-1500:])


def check(mutant: Mutant,
          run: Callable[[Path, Sequence[str]], bool] = tests_fail) -> str:
    """The verdict on ``mutant``: ``caught``, ``SURVIVED``,
    ``STALE (<why>)`` or ``ERROR (<why>)``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, root / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, root / name)
        stale = apply(root, mutant)
        if stale:
            return f"STALE ({stale})"
        try:
            return "caught" if run(root, mutant.tests) else "SURVIVED"
        except RuntimeError as exc:
            return f"ERROR ({exc})"


def run_table(mutants: Sequence[Mutant],
              run: Callable[[Path, Sequence[str]], bool] = tests_fail) -> int:
    """Print each mutant's verdict, in table order; 0 when every one is
    caught, else 1.  Two mutants run at a time, each in its own copy."""
    start = time.perf_counter()
    bad = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        verdicts = pool.map(lambda m: check(m, run), mutants)
        for mutant, verdict in zip(mutants, verdicts):
            print(f"{verdict}: {mutant.name}", flush=True)
            bad += verdict != "caught"
    print(f"{len(mutants)} mutants, {len(mutants) - bad} caught, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


def main() -> int:
    return run_table(MUTANTS)


if __name__ == "__main__":
    sys.exit(main())
