// Domain scenario: an HLS engineer tunes one kernel and compares every tool
// in the box — fixed -O3, greedy insertion, a genetic search, and the
// AutoPhase PPO agent — on equal footing (same simulator, same budget
// scale), then inspects the winning schedule per basic block.
//
//   $ ./build/examples/autotune_kernel [benchmark-name]
#include <cstdio>
#include <string>

#include "core/autophase.hpp"
#include "hls/scheduler.hpp"
#include "ir/clone.hpp"
#include "passes/pipelines.hpp"
#include "progen/chstone_like.hpp"
#include "search/search.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace autophase;
  const std::string name = argc > 1 ? argv[1] : "gsm";
  auto program = progen::build_chstone_like(name);
  std::printf("tuning '%s' (%zu IR instructions)\n\n", name.c_str(),
              program->instruction_count());

  const std::uint64_t o0 = core::o0_cycles(*program);
  const std::uint64_t o3 = core::o3_cycles(*program);

  search::SearchBudget budget;
  budget.max_samples = 400;
  const auto greedy = search::greedy_search(*program, budget);
  const auto genetic = search::genetic_search(*program, budget);

  core::AutoPhaseOptions options;
  options.ppo.iterations = 20;
  options.ppo.steps_per_iteration = 135;
  const auto rl = core::optimize_program(*program, options);

  auto impr = [o3](std::uint64_t c) {
    return strf("%+.1f%%", 100.0 * (static_cast<double>(o3) - static_cast<double>(c)) /
                               static_cast<double>(o3));
  };
  TextTable table({"method", "cycles", "vs -O3", "samples"});
  table.add_row({"-O0", std::to_string(o0), impr(o0), "1"});
  table.add_row({"-O3", std::to_string(o3), impr(o3), "1"});
  table.add_row({"greedy insertion", std::to_string(greedy.best_cycles),
                 impr(greedy.best_cycles), std::to_string(greedy.samples)});
  table.add_row({"genetic search", std::to_string(genetic.best_cycles),
                 impr(genetic.best_cycles), std::to_string(genetic.samples)});
  table.add_row({"AutoPhase (PPO)", std::to_string(rl.best_cycles), impr(rl.best_cycles),
                 std::to_string(rl.samples)});
  std::printf("%s\n", table.render().c_str());

  // Show the FSM the winning ordering produces.
  auto optimised = ir::clone_module(*program);
  passes::apply_pass_sequence(*optimised, rl.best_sequence);
  const auto sched = hls::schedule_module(*optimised);
  std::printf("FSM states per function after AutoPhase's ordering:\n");
  const auto functions = optimised->functions();
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const ir::Function* f = functions[i];
    std::printf("  %-12s %d states across %zu blocks\n", f->name().c_str(),
                sched.functions[i].total_states, f->block_count());
  }
  std::printf("\nwinning pass sequence:\n ");
  for (const auto& p : rl.pass_names) std::printf(" %s", p.c_str());
  std::printf("\n");
  return 0;
}
