#include "hls/verilog.hpp"

#include <map>
#include <sstream>

#include "ir/id_table.hpp"
#include "support/str.hpp"

namespace autophase::hls {

namespace {

using ir::BasicBlock;
using ir::Instruction;

std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_') ? c : '_';
  }
  return out.empty() ? "v" : out;
}

int width_of(const ir::Type* t) {
  if (t->is_int()) return t->bits();
  if (t->is_pointer()) return 32;  // BRAM address space
  return 1;
}

}  // namespace

std::string emit_verilog(const ir::Function& f, const FunctionSchedule& schedule,
                         const ResourceConstraints& rc) {
  const ir::Function& body = *f.reading_body();  // the blocks schedule_function covers
  std::ostringstream os;
  os << "// Generated by AutoPhase HLS backend (clock " << fmt_double(rc.frequency_mhz(), 0)
     << " MHz)\n";
  os << "module " << sanitize(f.name()) << " (\n";
  os << "  input  wire clk,\n  input  wire rst,\n  input  wire start,\n  output reg  done";
  for (std::size_t i = 0; i < f.arg_count(); ++i) {
    os << ",\n  input  wire [" << width_of(f.arg(i)->type()) - 1 << ":0] arg_"
       << sanitize(f.arg(i)->name());
  }
  if (!f.return_type()->is_void()) {
    os << ",\n  output reg  [" << width_of(f.return_type()) - 1 << ":0] ret";
  }
  os << "\n);\n\n";

  // State encoding: one FSM state per (block, cycle) with >=1 state blocks,
  // numbered in block order; zero-state blocks fold into their successor
  // transition and keep first state 0.
  const std::vector<BasicBlock*> blocks = body.blocks();
  int total_states = 1;  // state 0 = idle
  ir::IdTable<BasicBlock, int> first_state(body, 0);
  for (BasicBlock* bb : blocks) {
    const int states = schedule.states.find(bb);
    if (states > 0) {
      first_state[bb] = total_states;
      total_states += states;
    }
  }
  // `start` enters the entry block. A zero-state block has only an
  // unconditional branch to do, so follow those; a cycle of them (at most
  // one hop per block) leaves the machine idle.
  int start_state = 0;
  const BasicBlock* start = blocks.empty() ? nullptr : blocks.front();
  for (std::size_t hops = 0; start != nullptr && hops < blocks.size(); ++hops) {
    start_state = first_state.find(start);
    const Instruction* term = start->terminator();
    if (start_state > 0 || term == nullptr || term->opcode() != ir::Opcode::kBr) break;
    start = term->successor(0);
  }
  const int state_bits = total_states <= 2 ? 1 : 32 - __builtin_clz(total_states - 1);
  os << "  // " << total_states << " FSM states (" << state_bits << "-bit encoding)\n";
  os << "  reg [" << state_bits - 1 << ":0] state;\n";

  // Datapath registers: one per non-void instruction result.
  int reg_id = 0;
  std::map<const Instruction*, std::string> regs;
  for (BasicBlock* bb : blocks) {
    for (Instruction* inst : bb->instructions()) {
      if (inst->type()->is_void()) continue;
      const std::string r = strf("r%d_%s", reg_id++, ir::opcode_name(inst->opcode()));
      regs[inst] = r;
      os << "  reg [" << width_of(inst->type()) - 1 << ":0] " << r << ";\n";
    }
  }

  os << "\n  always @(posedge clk) begin\n";
  os << "    if (rst) begin\n      state <= 0;\n      done <= 1'b0;\n    end else begin\n";
  os << "      case (state)\n";
  os << "        0: if (start) begin done <= 1'b0; state <= " << start_state << "; end\n";
  const ir::IdTable<Instruction, int> issue_cycle = issue_cycles(f, rc);
  for (BasicBlock* bb : blocks) {
    const int base = first_state.find(bb);
    const int states = schedule.states.find(bb);
    for (int s = 0; s < states; ++s) {
      os << "        " << base + s << ": begin // " << sanitize(bb->name()) << " cycle " << s
         << "\n";
      for (Instruction* inst : bb->instructions()) {
        if (issue_cycle.find(inst) != s) continue;
        const auto rit = regs.find(inst);
        if (rit != regs.end()) {
          os << "          " << rit->second << " <= /* " << ir::opcode_name(inst->opcode())
             << " */ 0;\n";
        }
      }
      if (s + 1 < states) {
        os << "          state <= " << base + s + 1 << ";\n";
      } else {
        os << "          state <= 0; // next-block transition resolved by branch logic\n";
        if (bb->terminator()->opcode() == ir::Opcode::kRet) {
          os << "          done <= 1'b1;\n";
          if (!f.return_type()->is_void()) {
            const Instruction* term = bb->terminator();
            const auto rv = regs.find(ir::as_instruction(term->operand(0)));
            os << "          ret <= " << (rv != regs.end() ? rv->second : "0") << ";\n";
          }
        }
      }
      os << "        end\n";
    }
  }
  os << "        default: state <= 0;\n";
  os << "      endcase\n    end\n  end\nendmodule\n";
  return os.str();
}

std::string emit_verilog_module(const ir::Module& m, const ResourceConstraints& rc) {
  std::ostringstream os;
  os << "// AutoPhase HLS output for module '" << m.name() << "'\n\n";
  for (const ir::Function* f : m.functions()) {
    os << emit_verilog(*f, schedule_function(*f, rc), rc) << "\n";
  }
  return os.str();
}

}  // namespace autophase::hls
