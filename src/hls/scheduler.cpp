#include "hls/scheduler.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace autophase::hls {

namespace {

using ir::BasicBlock;
using ir::Instruction;
using ir::Opcode;

struct IssueState {
  int cycle = -1;         // issue cycle; -1 until the instruction is scheduled
  double finish = 0.0;    // in-cycle finish time for combinational results
  int available = 0;      // first cycle the result is usable
  bool combinational = true;
};

/// Per-cycle unit usage within a block.
class ResourceTracker {
 public:
  explicit ResourceTracker(const ResourceConstraints& rc)
      : limits_{rc.memory_ports, rc.multipliers, rc.dividers} {}

  /// Issues an op of `cls` at the earliest cycle >= `from` at which a unit is
  /// free for `initiation_interval` cycles, and returns that cycle.
  int issue(ResourceClass cls, int from, int initiation_interval) {
    if (cls == ResourceClass::kNone) return from;
    const auto unit = static_cast<std::size_t>(cls) - 1;  // kNone has no unit
    const auto interval = static_cast<std::size_t>(initiation_interval);
    std::vector<int>& usage = usage_[unit];
    const auto fits = [&](std::size_t cycle) {
      for (std::size_t c = cycle; c < cycle + interval; ++c) {
        if ((c < usage.size() ? usage[c] : 0) >= limits_[unit]) return false;
      }
      return true;
    };
    auto cycle = static_cast<std::size_t>(from);
    while (!fits(cycle)) ++cycle;
    usage.resize(std::max(usage.size(), cycle + interval), 0);
    for (std::size_t c = cycle; c < cycle + interval; ++c) ++usage[c];
    return static_cast<int>(cycle);
  }

 private:
  std::array<int, 3> limits_;
  std::array<std::vector<int>, 3> usage_;
};

/// Schedules `bb` and returns the FSM states it occupies per execution.
/// `issued` covers bb's function and receives the issue state of each of its
/// instructions.
int schedule_block(const BasicBlock& bb, const ResourceConstraints& rc,
                   ir::IdTable<Instruction, IssueState>& issued) {
  ResourceTracker resources(rc);
  int max_complete = 0;  // last cycle any op occupies
  bool needs_state = false;

  for (std::size_t i = 0; i < bb.size(); ++i) {
    const Instruction* inst = bb.inst(i);
    if (inst->is_phi()) continue;  // phis resolve on the state-transition edge

    const OpTiming t = op_timing(*inst);

    // Ready time: all same-block operands must have produced their results.
    int ready_cycle = 0;
    double ready_time = 0.0;
    for (const ir::Value* op : inst->operands()) {
      const Instruction* def = ir::as_instruction(op);
      if (def == nullptr || def->parent() != &bb || def->is_phi()) continue;
      const IssueState s = issued.find(def);
      if (s.cycle < 0) continue;  // defensive: non-SSA order
      if (s.combinational) {
        if (s.cycle > ready_cycle) {
          ready_cycle = s.cycle;
          ready_time = s.finish;
        } else if (s.cycle == ready_cycle) {
          ready_time = std::max(ready_time, s.finish);
        }
      } else {
        if (s.available > ready_cycle) {
          ready_cycle = s.available;
          ready_time = 0.0;
        }
      }
    }

    IssueState s;
    if (t.latency == 0) {
      // Combinational: chain into the current state if the delay fits.
      const double delay = std::min(t.delay_ns, rc.clock_period_ns);
      if (ready_time + delay <= rc.clock_period_ns) {
        s.cycle = ready_cycle;
        s.finish = ready_time + delay;
      } else {
        s.cycle = ready_cycle + 1;
        s.finish = delay;
      }
      s.available = s.cycle;
      s.combinational = true;
      max_complete = std::max(max_complete, s.cycle);
      // Pure zero-delay wiring (casts, unconditional br) does not force a
      // state by itself; anything with real delay or a return does.
      if (delay > 0.0 || inst->opcode() == Opcode::kRet) needs_state = true;
    } else {
      // Multi-cycle: issue at a cycle boundary with a free unit.
      const int min_cycle = ready_time > 0.0 ? ready_cycle + 1 : ready_cycle;
      const int cycle = resources.issue(t.resource, min_cycle, t.initiation_interval);
      s.cycle = cycle;
      s.available = cycle + t.latency;
      s.combinational = false;
      // The block's FSM must remain in flight until the op completes.
      max_complete = std::max(max_complete, cycle + t.latency - 1);
      needs_state = true;
    }
    issued[inst] = s;
  }

  // A block containing only phis, zero-delay wiring, and an unconditional
  // branch folds into the FSM transition (0 states). Anything with real
  // delay, a memory/unit op, a multi-way branch, or a return needs states.
  return needs_state ? std::max(1, max_complete + 1) : 0;
}

}  // namespace

FunctionSchedule schedule_function(const ir::Function& f, const ResourceConstraints& rc) {
  const ir::Function& body = *f.reading_body();
  FunctionSchedule out{ir::IdTable<BasicBlock, int>(body, 0), 0};
  ir::IdTable<Instruction, IssueState> issued(body, IssueState{});
  for (const BasicBlock* bb : body.blocks()) {
    out.states[bb] = schedule_block(*bb, rc, issued);
    out.total_states += out.states[bb];
  }
  return out;
}

ModuleSchedule schedule_module(const ir::Module& m, const ResourceConstraints& rc) {
  ModuleSchedule out;
  for (const ir::Function* f : m.functions()) out.functions.push_back(schedule_function(*f, rc));
  return out;
}

ModuleSchedule schedule_profile(const interp::Profile& profile, const ResourceConstraints& rc) {
  ModuleSchedule out;
  ir::IdTable<Instruction, IssueState> issued;
  const ir::Function* f = nullptr;
  for (const auto& [bb, count] : profile.block_counts) {
    if (bb->parent() != f) {  // the profile lists each function's blocks together
      f = bb->parent();
      out.functions.push_back({ir::IdTable<BasicBlock, int>(*f, 0), 0});
      issued.reset(*f, IssueState{});
    }
    FunctionSchedule& fs = out.functions.back();
    fs.states[bb] = schedule_block(*bb, rc, issued);
    fs.total_states += fs.states[bb];
  }
  return out;
}

ir::IdTable<Instruction, int> issue_cycles(const ir::Function& f, const ResourceConstraints& rc) {
  const ir::Function& body = *f.reading_body();
  ir::IdTable<Instruction, IssueState> issued(body, IssueState{});
  ir::IdTable<Instruction, int> out(body, -1);
  for (const BasicBlock* bb : body.blocks()) {
    (void)schedule_block(*bb, rc, issued);
    for (std::size_t i = 0; i < bb->size(); ++i) {
      const Instruction* inst = bb->inst(i);
      out[inst] = issued.find(inst).cycle;
    }
  }
  return out;
}

double estimate_area(const ir::Module& m) {
  double area = 0.0;
  for (const ir::Function* f : m.functions()) {
    const ir::Function* body = f->reading_body();
    for (std::size_t b = 0; b < body->block_count(); ++b) {
      const ir::BasicBlock* bb = body->block(b);
      for (std::size_t i = 0; i < bb->size(); ++i) {
        const Instruction* inst = bb->inst(i);
        area += op_area(*inst);
        if (inst->opcode() == Opcode::kAlloca) {
          area += 0.05 * static_cast<double>(inst->alloca_count() *
                                             inst->allocated_type()->size_in_bytes());
        }
      }
    }
  }
  for (std::size_t i = 0; i < m.global_count(); ++i) {
    area += 0.05 * static_cast<double>(m.global(i)->size_in_bytes());
  }
  return area;
}

}  // namespace autophase::hls
