#include "controlplane/model_builder.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/units.h"
#include "controlplane/placement_ledger.h"

namespace sfp::controlplane {
namespace {

// Branching order: physical layout first, then chain indicators, then
// the counting integers, then individual box placements.
constexpr int kPriorityX = 100;
constexpr int kPriorityY = 50;
constexpr int kPriorityPasses = 40;
constexpr int kPriorityBlocks = 30;
constexpr int kPriorityZ = 10;

/// Whole blocks needed by one logical NF under eq. 25.
std::int64_t PerLogicalBlocks(const PlacementInstance& instance, const NfBox& box) {
  const std::int64_t units = box.MemoryUnits(instance.sw.rule_width);
  return std::max<std::int64_t>(1, CeilDiv(units, instance.sw.entries_per_block));
}

}  // namespace

PlacementModel BuildPlacementModel(const PlacementInstance& instance,
                                   const ModelOptions& options) {
  instance.CheckValid();
  SFP_CHECK_GE(options.max_passes, 1);
  const int I = instance.num_types;
  const int S = instance.sw.stages;
  const int L = instance.NumSfcs();
  const int K = options.max_passes * S;

  PlacementModel pm;
  pm.K = K;
  pm.options = options;
  lp::Model& model = pm.model;
  model.SetMaximize(true);

  // ---- variables -----------------------------------------------------
  pm.x.assign(static_cast<std::size_t>(I), std::vector<lp::VarId>(static_cast<std::size_t>(S)));
  for (int i = 0; i < I; ++i) {
    for (int s = 0; s < S; ++s) {
      pm.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] = model.AddVar(
          0, 1, 0, /*is_integer=*/true, "x_" + std::to_string(i) + "_" + std::to_string(s));
      model.SetBranchPriority(pm.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)],
                              kPriorityX);
    }
  }

  pm.y.resize(static_cast<std::size_t>(L));
  pm.z.resize(static_cast<std::size_t>(L));
  pm.passes.resize(static_cast<std::size_t>(L));
  for (int l = 0; l < L; ++l) {
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    const int J = sfc.Length();
    pm.y[static_cast<std::size_t>(l)] = model.AddVar(
        0, 1, sfc.ObjectiveWeight(), /*is_integer=*/true, "y_" + std::to_string(l));
    model.SetBranchPriority(pm.y[static_cast<std::size_t>(l)], kPriorityY);

    pm.z[static_cast<std::size_t>(l)].assign(
        static_cast<std::size_t>(J), std::vector<lp::VarId>(static_cast<std::size_t>(K) + 1, -1));
    for (int j = 0; j < J; ++j) {
      // Order (eq. 8) confines box j to [j+1, K - (J-1-j)].
      const int k_lo = j + 1;
      const int k_hi = K - (J - 1 - j);
      for (int k = k_lo; k <= k_hi; ++k) {
        pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
            [static_cast<std::size_t>(k)] = model.AddVar(
                0, 1, 0, /*is_integer=*/true,
                "z_" + std::to_string(l) + "_" + std::to_string(j) + "_" + std::to_string(k));
        model.SetBranchPriority(
            pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                [static_cast<std::size_t>(k)],
            kPriorityZ);
      }
    }
    // The tiny negative coefficient is a tie-break only: among
    // placements of equal eq. 1 value the solver prefers fewer passes,
    // keeping backplane capacity (eq. 26) free for more chains.
    pm.passes[static_cast<std::size_t>(l)] = model.AddVar(
        0, options.max_passes, -1e-6 * (1.0 + sfc.bandwidth_gbps), /*is_integer=*/true,
        "P_" + std::to_string(l));
    model.SetBranchPriority(pm.passes[static_cast<std::size_t>(l)], kPriorityPasses);
  }

  if (options.memory_model == MemoryModel::kConsolidated) {
    pm.blocks.assign(static_cast<std::size_t>(I),
                     std::vector<lp::VarId>(static_cast<std::size_t>(S)));
    for (int i = 0; i < I; ++i) {
      for (int s = 0; s < S; ++s) {
        pm.blocks[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] = model.AddVar(
            0, instance.sw.blocks_per_stage, 0, /*is_integer=*/true,
            "blk_" + std::to_string(i) + "_" + std::to_string(s));
        model.SetBranchPriority(
            pm.blocks[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)],
            kPriorityBlocks);
      }
    }
  }

  // ---- assignment: sum_k z[l][j][k] = y[l]  (eqs. 5-7) ----------------
  for (int l = 0; l < L; ++l) {
    const int J = instance.sfcs[static_cast<std::size_t>(l)].Length();
    for (int j = 0; j < J; ++j) {
      std::vector<lp::VarId> vars;
      std::vector<double> coeffs;
      for (int k = 1; k <= K; ++k) {
        const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                [static_cast<std::size_t>(k)];
        if (v < 0) continue;
        vars.push_back(v);
        coeffs.push_back(1.0);
      }
      vars.push_back(pm.y[static_cast<std::size_t>(l)]);
      coeffs.push_back(-1.0);
      model.AddRow(std::move(vars), std::move(coeffs), lp::Sense::kEq, 0,
                   "assign_" + std::to_string(l) + "_" + std::to_string(j));
    }

    // ---- order: g[l][j+1] - g[l][j] >= y[l]  (eq. 8) ------------------
    for (int j = 0; j + 1 < J; ++j) {
      std::vector<lp::VarId> vars;
      std::vector<double> coeffs;
      for (int k = 1; k <= K; ++k) {
        const lp::VarId next = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j) + 1]
                                   [static_cast<std::size_t>(k)];
        if (next >= 0) {
          vars.push_back(next);
          coeffs.push_back(k);
        }
        const lp::VarId cur = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                  [static_cast<std::size_t>(k)];
        if (cur >= 0) {
          vars.push_back(cur);
          coeffs.push_back(-static_cast<double>(k));
        }
      }
      vars.push_back(pm.y[static_cast<std::size_t>(l)]);
      coeffs.push_back(-1.0);
      model.AddRow(std::move(vars), std::move(coeffs), lp::Sense::kGe, 0,
                   "order_" + std::to_string(l) + "_" + std::to_string(j));
    }

    // ---- passes: S * P[l] >= g[l][J-1]  (eq. 26 linearization) --------
    {
      std::vector<lp::VarId> vars{pm.passes[static_cast<std::size_t>(l)]};
      std::vector<double> coeffs{static_cast<double>(S)};
      for (int k = 1; k <= K; ++k) {
        const lp::VarId last = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(J) - 1]
                                   [static_cast<std::size_t>(k)];
        if (last < 0) continue;
        vars.push_back(last);
        coeffs.push_back(-static_cast<double>(k));
      }
      model.AddRow(std::move(vars), std::move(coeffs), lp::Sense::kGe, 0,
                   "passes_" + std::to_string(l));
    }
  }

  // ---- consistency (eq. 9) --------------------------------------------
  if (options.aggregated_consistency) {
    // Per (type, virtual stage): sum of that type's boxes at k <= N_i * x.
    std::vector<std::int64_t> type_box_count(static_cast<std::size_t>(I), 0);
    for (const auto& sfc : instance.sfcs) {
      for (const auto& box : sfc.boxes) ++type_box_count[static_cast<std::size_t>(box.type)];
    }
    for (int i = 0; i < I; ++i) {
      if (type_box_count[static_cast<std::size_t>(i)] == 0) continue;
      for (int k = 1; k <= K; ++k) {
        std::vector<lp::VarId> vars;
        std::vector<double> coeffs;
        for (int l = 0; l < L; ++l) {
          const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
          for (int j = 0; j < sfc.Length(); ++j) {
            if (sfc.boxes[static_cast<std::size_t>(j)].type != i) continue;
            const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                    [static_cast<std::size_t>(k)];
            if (v < 0) continue;
            vars.push_back(v);
            coeffs.push_back(1.0);
          }
        }
        if (vars.empty()) continue;
        vars.push_back(pm.x[static_cast<std::size_t>(i)][static_cast<std::size_t>((k - 1) % S)]);
        coeffs.push_back(-static_cast<double>(type_box_count[static_cast<std::size_t>(i)]));
        model.AddRow(std::move(vars), std::move(coeffs), lp::Sense::kLe, 0,
                     "agg_consist_" + std::to_string(i) + "_" + std::to_string(k));
      }
    }
  } else {
    for (int l = 0; l < L; ++l) {
      const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
      for (int j = 0; j < sfc.Length(); ++j) {
        const int type = sfc.boxes[static_cast<std::size_t>(j)].type;
        for (int k = 1; k <= K; ++k) {
          const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                  [static_cast<std::size_t>(k)];
          if (v < 0) continue;
          model.AddRow(
              {v, pm.x[static_cast<std::size_t>(type)][static_cast<std::size_t>((k - 1) % S)]},
              {1.0, -1.0}, lp::Sense::kLe, 0);
        }
      }
    }
  }

  // ---- coverage (eq. 4) ------------------------------------------------
  for (int i = 0; i < I; ++i) {
    std::vector<lp::VarId> vars;
    std::vector<double> coeffs;
    for (int s = 0; s < S; ++s) {
      vars.push_back(pm.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)]);
      coeffs.push_back(1.0);
    }
    model.AddRow(std::move(vars), std::move(coeffs), lp::Sense::kGe, 1,
                 "coverage_" + std::to_string(i));
  }

  // ---- memory (eq. 24 / eq. 25) ----------------------------------------
  if (options.memory_model == MemoryModel::kConsolidated) {
    for (int i = 0; i < I; ++i) {
      for (int s = 0; s < S; ++s) {
        std::vector<lp::VarId> vars;
        std::vector<double> coeffs;
        for (int l = 0; l < L; ++l) {
          const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
          for (int j = 0; j < sfc.Length(); ++j) {
            if (sfc.boxes[static_cast<std::size_t>(j)].type != i) continue;
            const double mem = static_cast<double>(
                sfc.boxes[static_cast<std::size_t>(j)].MemoryUnits(instance.sw.rule_width));
            if (mem == 0.0) continue;
            for (int k = s + 1; k <= K; k += S) {
              const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                      [static_cast<std::size_t>(k)];
              if (v < 0) continue;
              vars.push_back(v);
              coeffs.push_back(mem);
            }
          }
        }
        if (vars.empty()) continue;
        vars.push_back(pm.blocks[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)]);
        coeffs.push_back(-static_cast<double>(instance.sw.entries_per_block));
        model.AddRow(std::move(vars), std::move(coeffs), lp::Sense::kLe, 0,
                     "mem_" + std::to_string(i) + "_" + std::to_string(s));
      }
    }
    for (int s = 0; s < S; ++s) {
      std::vector<lp::VarId> vars;
      std::vector<double> coeffs;
      for (int i = 0; i < I; ++i) {
        vars.push_back(pm.blocks[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)]);
        coeffs.push_back(1.0);
      }
      model.AddRow(std::move(vars), std::move(coeffs), lp::Sense::kLe,
                   instance.sw.blocks_per_stage, "stage_mem_" + std::to_string(s));
    }
  } else {
    for (int s = 0; s < S; ++s) {
      std::vector<lp::VarId> vars;
      std::vector<double> coeffs;
      for (int l = 0; l < L; ++l) {
        const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
        for (int j = 0; j < sfc.Length(); ++j) {
          const double cost = static_cast<double>(
              PerLogicalBlocks(instance, sfc.boxes[static_cast<std::size_t>(j)]));
          for (int k = s + 1; k <= K; k += S) {
            const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                    [static_cast<std::size_t>(k)];
            if (v < 0) continue;
            vars.push_back(v);
            coeffs.push_back(cost);
          }
        }
      }
      if (vars.empty()) continue;
      model.AddRow(std::move(vars), std::move(coeffs), lp::Sense::kLe,
                   instance.sw.blocks_per_stage, "stage_mem_" + std::to_string(s));
    }
  }

  // ---- capacity (eq. 26) -----------------------------------------------
  {
    std::vector<lp::VarId> vars;
    std::vector<double> coeffs;
    for (int l = 0; l < L; ++l) {
      vars.push_back(pm.passes[static_cast<std::size_t>(l)]);
      coeffs.push_back(instance.sfcs[static_cast<std::size_t>(l)].bandwidth_gbps);
    }
    model.AddRow(std::move(vars), std::move(coeffs), lp::Sense::kLe,
                 instance.sw.capacity_gbps, "capacity");
  }

  // ---- pinned / excluded chains (§V-E runtime update) -------------------
  for (const auto& [l, stages] : options.pinned) {
    SFP_CHECK_GE(l, 0);
    SFP_CHECK_LT(l, L);
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    SFP_CHECK_EQ(static_cast<int>(stages.size()), sfc.Length());
    model.SetVarBounds(pm.y[static_cast<std::size_t>(l)], 1, 1);
    for (int j = 0; j < sfc.Length(); ++j) {
      for (int k = 1; k <= K; ++k) {
        const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                [static_cast<std::size_t>(k)];
        if (v < 0) {
          SFP_CHECK_MSG(k != stages[static_cast<std::size_t>(j)],
                        "pinned placement outside the feasible window");
          continue;
        }
        const double fixed = k == stages[static_cast<std::size_t>(j)] ? 1.0 : 0.0;
        model.SetVarBounds(v, fixed, fixed);
      }
      // The physical NF backing the pinned box must stay installed.
      const int type = sfc.boxes[static_cast<std::size_t>(j)].type;
      const int s = (stages[static_cast<std::size_t>(j)] - 1) % S;
      model.SetVarBounds(pm.x[static_cast<std::size_t>(type)][static_cast<std::size_t>(s)], 1,
                         1);
    }
  }
  for (int l : options.excluded) {
    SFP_CHECK_GE(l, 0);
    SFP_CHECK_LT(l, L);
    SFP_CHECK_MSG(!options.pinned.contains(l), "chain both pinned and excluded");
    model.SetVarBounds(pm.y[static_cast<std::size_t>(l)], 0, 0);
    for (auto& box : pm.z[static_cast<std::size_t>(l)]) {
      for (lp::VarId v : box) {
        if (v >= 0) model.SetVarBounds(v, 0, 0);
      }
    }
  }

  return pm;
}

PlacementSolution ExtractSolution(const PlacementInstance& instance,
                                  const PlacementModel& pm,
                                  const std::vector<double>& values) {
  const int I = instance.num_types;
  const int S = instance.sw.stages;
  PlacementSolution solution;
  solution.physical.assign(static_cast<std::size_t>(I),
                           std::vector<bool>(static_cast<std::size_t>(S), false));
  for (int i = 0; i < I; ++i) {
    for (int s = 0; s < S; ++s) {
      solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] =
          values[static_cast<std::size_t>(
              pm.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)])] > 0.5;
    }
  }
  solution.chains.resize(instance.sfcs.size());
  for (int l = 0; l < instance.NumSfcs(); ++l) {
    ChainPlacement& chain = solution.chains[static_cast<std::size_t>(l)];
    chain.placed = values[static_cast<std::size_t>(pm.y[static_cast<std::size_t>(l)])] > 0.5;
    if (!chain.placed) continue;
    const int J = instance.sfcs[static_cast<std::size_t>(l)].Length();
    for (int j = 0; j < J; ++j) {
      int best_k = -1;
      double best_v = 0.5;
      for (int k = 1; k <= pm.K; ++k) {
        const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                [static_cast<std::size_t>(k)];
        if (v < 0) continue;
        const double value = values[static_cast<std::size_t>(v)];
        if (value > best_v) {
          best_v = value;
          best_k = k;
        }
      }
      SFP_CHECK_MSG(best_k > 0, "placed chain has a box without a stage assignment");
      chain.virtual_stages.push_back(best_k);
    }
  }
  return solution;
}

std::vector<double> SolutionToValues(const PlacementInstance& instance,
                                     const PlacementModel& pm,
                                     const PlacementSolution& solution) {
  const int I = instance.num_types;
  const int S = instance.sw.stages;
  std::vector<double> values(static_cast<std::size_t>(pm.model.num_vars()), 0.0);

  for (int i = 0; i < I; ++i) {
    for (int s = 0; s < S; ++s) {
      values[static_cast<std::size_t>(
          pm.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)])] =
          solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] ? 1.0
                                                                                      : 0.0;
    }
  }

  // Exact per-(type, stage) entry loads for the blocks ceilings.
  std::vector<std::vector<std::int64_t>> entries(
      static_cast<std::size_t>(I), std::vector<std::int64_t>(static_cast<std::size_t>(S), 0));

  for (int l = 0; l < instance.NumSfcs(); ++l) {
    const ChainPlacement& chain = solution.chains[static_cast<std::size_t>(l)];
    if (!chain.placed) continue;
    values[static_cast<std::size_t>(pm.y[static_cast<std::size_t>(l)])] = 1.0;
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    for (int j = 0; j < sfc.Length(); ++j) {
      const int k = chain.virtual_stages[static_cast<std::size_t>(j)];
      const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                              [static_cast<std::size_t>(k)];
      SFP_CHECK_MSG(v >= 0, "placement outside the model's feasible window");
      values[static_cast<std::size_t>(v)] = 1.0;
      entries[static_cast<std::size_t>(sfc.boxes[static_cast<std::size_t>(j)].type)]
             [static_cast<std::size_t>((k - 1) % S)] +=
          sfc.boxes[static_cast<std::size_t>(j)].MemoryUnits(instance.sw.rule_width);
    }
    values[static_cast<std::size_t>(pm.passes[static_cast<std::size_t>(l)])] =
        chain.Passes(S);
  }

  if (pm.options.memory_model == MemoryModel::kConsolidated) {
    for (int i = 0; i < I; ++i) {
      for (int s = 0; s < S; ++s) {
        const std::int64_t blocks =
            CeilDiv(entries[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)],
                    instance.sw.entries_per_block);
        values[static_cast<std::size_t>(
            pm.blocks[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)])] =
            static_cast<double>(blocks);
      }
    }
  }
  return values;
}

PlacementSolution GreedyCompleteFromLp(const PlacementInstance& instance,
                                       const PlacementModel& pm,
                                       const std::vector<double>& lp_values) {
  const int I = instance.num_types;
  const int S = instance.sw.stages;
  const int K = pm.K;
  PlacementSolution solution;
  solution.physical.assign(static_cast<std::size_t>(I),
                           std::vector<bool>(static_cast<std::size_t>(S), false));
  // The layout follows the LP's z demand (under the aggregated eq. 9
  // the x values are scaled down by the box count and carry little
  // signal; installs are free under eq. 24 anyway).
  for (int l = 0; l < instance.NumSfcs(); ++l) {
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    for (int j = 0; j < sfc.Length(); ++j) {
      for (int k = 1; k <= K; ++k) {
        const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                [static_cast<std::size_t>(k)];
        if (v < 0) continue;
        if (lp_values[static_cast<std::size_t>(v)] > 1e-6) {
          solution.physical[static_cast<std::size_t>(sfc.boxes[static_cast<std::size_t>(j)].type)]
                           [static_cast<std::size_t>((k - 1) % S)] = true;
        }
      }
    }
  }
  for (int i = 0; i < I; ++i) {
    for (int s = 0; s < S; ++s) {
      if (lp_values[static_cast<std::size_t>(
              pm.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)])] > 0.5) {
        solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] = true;
      }
    }
  }
  solution.chains.resize(instance.sfcs.size());

  // Chains in descending y order; pinned chains go first unconditionally.
  std::vector<int> order;
  for (int l = 0; l < instance.NumSfcs(); ++l) order.push_back(l);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const bool pa = pm.options.pinned.contains(a), pb = pm.options.pinned.contains(b);
    if (pa != pb) return pa;
    return lp_values[static_cast<std::size_t>(pm.y[static_cast<std::size_t>(a)])] >
           lp_values[static_cast<std::size_t>(pm.y[static_cast<std::size_t>(b)])];
  });

  PlacementLedger ledger(instance, pm.options.memory_model, pm.K, std::move(solution.physical));
  for (int l : order) {
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    ChainPlacement& chain = solution.chains[static_cast<std::size_t>(l)];
    if (const auto pinned = pm.options.pinned.find(l); pinned != pm.options.pinned.end()) {
      ledger.Reserve(sfc, pinned->second);
      chain.placed = true;
      chain.virtual_stages = pinned->second;
      continue;
    }
    if (pm.options.excluded.contains(l)) continue;
    if (lp_values[static_cast<std::size_t>(pm.y[static_cast<std::size_t>(l)])] <= 0.5) continue;

    // Earliest-fit, preferring installed stages; a missing physical NF
    // is installed on demand (free under eq. 24).
    std::vector<int> stages = ledger.WalkEarliest(sfc, /*prefer_installed=*/true);
    if (!ledger.Admit(sfc, stages)) continue;
    chain.placed = true;
    chain.virtual_stages = std::move(stages);
  }

  // eq. 4 repair.
  solution.physical = ledger.layout();
  for (int i = 0; i < I; ++i) {
    bool any = false;
    for (int s = 0; s < S; ++s) {
      any |= solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)];
    }
    if (!any) solution.physical[static_cast<std::size_t>(i)][0] = true;
  }
  return solution;
}

std::optional<PlacementSolution> StructuredRound(const PlacementInstance& instance,
                                                 const PlacementModel& pm,
                                                 const std::vector<double>& lp_values,
                                                 Rng& rng, const std::set<int>& stripped) {
  const int I = instance.num_types;
  const int S = instance.sw.stages;
  PlacementSolution solution;
  solution.physical.assign(static_cast<std::size_t>(I),
                           std::vector<bool>(static_cast<std::size_t>(S), false));
  // Round the physical layout first; box placement below is conditioned
  // on it so eq. 9 consistency holds by construction (dependent
  // rounding). Under the aggregated eq. 9 the LP's x values are scaled
  // down by the box count and carry little signal, so the layout
  // follows the LP's *z demand* — a physical NF is installed wherever
  // the relaxation put any of that type's boxes (installs are free
  // under eq. 24) — and elsewhere x rounds with its LP probability.
  std::vector<std::vector<double>> demand(
      static_cast<std::size_t>(I), std::vector<double>(static_cast<std::size_t>(S), 0.0));
  for (int l = 0; l < instance.NumSfcs(); ++l) {
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    for (int j = 0; j < sfc.Length(); ++j) {
      for (int k = 1; k <= pm.K; ++k) {
        const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                [static_cast<std::size_t>(k)];
        if (v < 0) continue;
        demand[static_cast<std::size_t>(sfc.boxes[static_cast<std::size_t>(j)].type)]
              [static_cast<std::size_t>((k - 1) % S)] +=
            lp_values[static_cast<std::size_t>(v)];
      }
    }
  }
  for (int i = 0; i < I; ++i) {
    for (int s = 0; s < S; ++s) {
      const double x_lp = lp_values[static_cast<std::size_t>(
          pm.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)])];
      solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] =
          demand[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] > 1e-6 ||
          rng.Bernoulli(x_lp);
    }
  }
  // eq. 4 and pinned chains force their stages up regardless.
  for (const auto& [l, stages] : pm.options.pinned) {
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    for (int j = 0; j < sfc.Length(); ++j) {
      const int s = (stages[static_cast<std::size_t>(j)] - 1) % S;
      solution.physical[static_cast<std::size_t>(sfc.boxes[static_cast<std::size_t>(j)].type)]
                       [static_cast<std::size_t>(s)] = true;
    }
  }
  for (int i = 0; i < I; ++i) {
    bool any = false;
    for (int s = 0; s < S; ++s) {
      any |= solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)];
    }
    if (any) continue;
    int best_s = 0;
    double best_v = -1;
    for (int s = 0; s < S; ++s) {
      const double v = lp_values[static_cast<std::size_t>(
          pm.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)])];
      if (v > best_v) {
        best_v = v;
        best_s = s;
      }
    }
    solution.physical[static_cast<std::size_t>(i)][static_cast<std::size_t>(best_s)] = true;
  }

  // An exact ledger mirrors the verifier so sampled placements are
  // memory- and capacity-feasible by construction: a draw that would
  // overflow a stage leaves the chain in software instead of wasting
  // the whole rounding attempt.
  PlacementLedger ledger(instance, pm.options.memory_model, pm.K, std::move(solution.physical));
  solution.chains.resize(instance.sfcs.size());
  // Pinned residents consume their resources first (§V-E).
  for (const auto& [l, stages] : pm.options.pinned) {
    if (stripped.contains(l)) continue;
    ledger.Reserve(instance.sfcs[static_cast<std::size_t>(l)], stages);
    ChainPlacement& chain = solution.chains[static_cast<std::size_t>(l)];
    chain.placed = true;
    chain.virtual_stages = stages;
  }

  // Remaining chains in random order so resource ties don't
  // systematically starve high indices; each admitted with its LP
  // probability y.
  std::vector<int> order;
  for (int l = 0; l < instance.NumSfcs(); ++l) {
    if (!pm.options.pinned.contains(l) && !stripped.contains(l)) order.push_back(l);
  }
  rng.Shuffle(order);

  for (int l : order) {
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    const double y = lp_values[static_cast<std::size_t>(pm.y[static_cast<std::size_t>(l)])];
    if (!rng.Bernoulli(y)) continue;

    // Sample each box's stage from its z distribution restricted to
    // (a) stages after its predecessor (order, eq. 8), (b) stages whose
    // rounded layout hosts the box's type (consistency, eq. 9), and
    // (c) stages with memory headroom (eq. 24/25).
    std::vector<int> stages_chosen;
    int prev = 0;
    for (int j = 0; j < sfc.Length(); ++j) {
      const NfBox& box = sfc.boxes[static_cast<std::size_t>(j)];
      const std::int64_t mem = box.MemoryUnits(instance.sw.rule_width);
      std::vector<double> weights;
      std::vector<int> candidates;
      for (int k = prev + 1; k <= pm.K; ++k) {
        const int s = (k - 1) % S;
        if (!ledger.Installed(box.type, s)) continue;
        const lp::VarId v = pm.z[static_cast<std::size_t>(l)][static_cast<std::size_t>(j)]
                                [static_cast<std::size_t>(k)];
        if (v < 0) continue;
        if (!ledger.Fits(box.type, s, mem)) continue;
        candidates.push_back(k);
        // Consolidation bias: a stage already holding this type packs
        // the new rules into its partially-filled block (eq. 24), so
        // prefer it over opening a fresh (type, stage) pair.
        const double consolidation_bonus = ledger.Entries(box.type, s) > 0 ? 4.0 : 1.0;
        // Pass-compactness bias: later passes burn shared backplane
        // capacity (eq. 26), so prefer the earliest feasible pass.
        const double pass_decay = 1.0 / (1 << std::min(8, (k - 1) / S));
        weights.push_back((lp_values[static_cast<std::size_t>(v)] + 1e-9) *
                          consolidation_bonus * pass_decay);
      }
      if (candidates.empty()) {
        // Repair: install the type at the nearest later stage with
        // memory headroom (physical installs cost nothing under the
        // eq. 24 model) instead of abandoning the chain.
        const int k = ledger.EarliestFit(box.type, mem, prev, /*installed_only=*/false);
        if (k < 0) break;
        ledger.Install(box.type, (k - 1) % S);
        candidates.push_back(k);
        weights.push_back(1.0);
      }
      prev = candidates[rng.WeightedIndex(weights)];
      ledger.Charge(box.type, (prev - 1) % S, mem);
      stages_chosen.push_back(prev);
    }
    // A chain whose draw does not fit stays in software this draw.
    if (!ledger.Admit(sfc, stages_chosen)) continue;
    ChainPlacement& chain = solution.chains[static_cast<std::size_t>(l)];
    chain.placed = true;
    chain.virtual_stages = std::move(stages_chosen);
  }

  // Augment pass: chains the Bernoulli draw left out (or that failed
  // their sample) are offered the residual resources earliest-fit, in
  // eq. 13 metric order — rounding never leaves obviously-free
  // capacity on the table.
  std::vector<int> leftovers;
  for (int l = 0; l < instance.NumSfcs(); ++l) {
    if (!solution.chains[static_cast<std::size_t>(l)].placed && !stripped.contains(l)) {
      leftovers.push_back(l);
    }
  }
  std::stable_sort(leftovers.begin(), leftovers.end(), [&instance](int a, int b) {
    return instance.sfcs[static_cast<std::size_t>(a)].GreedyMetric() >
           instance.sfcs[static_cast<std::size_t>(b)].GreedyMetric();
  });
  for (int l : leftovers) {
    const SfcSpec& sfc = instance.sfcs[static_cast<std::size_t>(l)];
    std::vector<int> stages = ledger.WalkEarliest(sfc, /*prefer_installed=*/false);
    if (!ledger.Admit(sfc, stages)) continue;
    ChainPlacement& chain = solution.chains[static_cast<std::size_t>(l)];
    chain.placed = true;
    chain.virtual_stages = std::move(stages);
  }
  solution.physical = ledger.layout();
  return solution;
}

}  // namespace sfp::controlplane
