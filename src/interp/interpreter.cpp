#include "interp/interpreter.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <vector>

#include "ir/id_table.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace autophase::interp {

namespace {

using ir::BasicBlock;
using ir::ConstantInt;
using ir::Function;
using ir::ICmpPred;
using ir::Instruction;
using ir::Opcode;
using ir::Type;
using ir::Value;

inline std::int64_t sext64(std::uint64_t v, int bits) noexcept {
  if (bits >= 64) return static_cast<std::int64_t>(v);
  const int s = 64 - bits;
  return static_cast<std::int64_t>(v << s) >> s;
}

inline std::uint64_t zmask(std::int64_t v, int bits) noexcept {
  if (bits >= 64) return static_cast<std::uint64_t>(v);
  return static_cast<std::uint64_t>(v) & ((1ULL << bits) - 1);
}

enum class OperandKind : std::uint8_t { kSlot, kImm };

struct OperandRef {
  OperandKind kind = OperandKind::kImm;
  int slot = -1;
  std::int64_t imm = 0;
};

struct DecodedPhi {
  int dest_slot = -1;
  std::vector<std::pair<int, OperandRef>> incoming;  // (pred block index, value)
};

struct DecodedInst {
  Opcode op = Opcode::kUnreachable;
  ICmpPred pred = ICmpPred::kEq;
  int bits = 64;       // result width for masking
  int src_bits = 64;   // operand width (icmp, casts)
  int dest_slot = -1;  // -1 for void results
  std::uint32_t elem_size = 1;
  std::size_t alloca_count = 0;
  int callee = -1;  // function index
  int succ0 = -1;
  int succ1 = -1;
  std::vector<OperandRef> ops;
  std::vector<std::pair<std::int64_t, int>> cases;  // switch
  const Instruction* src = nullptr;
  std::uint64_t elems = 0;  // memset/memcpy: elements processed this run
};

struct DecodedBlock {
  const BasicBlock* src = nullptr;
  std::uint64_t entries = 0;  // times entered this run
  std::vector<DecodedPhi> phis;
  std::vector<DecodedInst> insts;
};

struct DecodedFunction {
  std::vector<DecodedBlock> blocks;
  int slot_count = 0;
  int arg_count = 0;
};

struct Frame {
  int func = -1;
  int block = 0;
  std::size_t ip = 0;
  int ret_slot = -1;           // slot in the caller frame
  std::size_t stack_watermark = 0;
  std::vector<std::int64_t> slots;
};

/// The thread's interpreter memory, reused by every run on that thread. It is
/// calloc'd, so a page costs a fault only once a run touches it, and it
/// remembers how far the last run wrote (`dirty_end_`), so handing it to the
/// next run re-zeroes that prefix instead of the whole arena.
class ThreadArena {
 public:
  ThreadArena() = default;
  ThreadArena(const ThreadArena&) = delete;
  ThreadArena& operator=(const ThreadArena&) = delete;
  ~ThreadArena() { std::free(data_); }

  /// Returns `bytes` of all-zero memory. Every acquire must be paired with a
  /// release before the next acquire on this thread.
  std::uint8_t* acquire(std::size_t bytes) {
    assert(!in_use_ && "interpreter runs must not nest on one thread");
    if (bytes != size_) {
      std::free(data_);
      size_ = 0;  // stays 0 if calloc fails, so no later acquire trusts data_
      data_ = static_cast<std::uint8_t*>(std::calloc(bytes, 1));
      if (data_ == nullptr) throw std::bad_alloc();
      size_ = bytes;
    } else {
      std::memset(data_, 0, dirty_end_);
    }
    dirty_end_ = 0;
    in_use_ = true;
    return data_;
  }

  /// Ends a run that wrote nothing at or above `dirty_end`.
  void release(std::size_t dirty_end) noexcept {
    dirty_end_ = dirty_end;
    in_use_ = false;
  }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t dirty_end_ = 0;
  bool in_use_ = false;
};

thread_local ThreadArena t_arena;

}  // namespace

struct Interpreter::Impl {
  InterpreterOptions options;
  std::vector<DecodedFunction> functions;  // by Function::index()
  std::size_t globals_end = 8;  // address 0..7 reserved (null page)
  int main_index = -1;

  explicit Impl(const ir::Module& m, InterpreterOptions opts) : options(opts) {
    layout_globals(m);
    decode_module(m);
  }

  struct GlobalRegion {
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    const ir::GlobalVariable* global = nullptr;
    bool dirty = false;
  };
  std::vector<GlobalRegion> regions;  // by GlobalVariable::index(), so sorted by base

  void layout_globals(const ir::Module& m) {
    std::size_t cursor = 8;
    for (std::size_t i = 0; i < m.global_count(); ++i) {
      const ir::GlobalVariable* g = m.global(i);
      cursor = (cursor + 7) & ~std::size_t{7};
      regions.push_back({cursor, g->size_in_bytes(), g, false});
      cursor += g->size_in_bytes();
    }
    globals_end = (cursor + 7) & ~std::size_t{7};
  }

  /// Marks the global containing [addr, addr+size) dirty, if any.
  void mark_written(std::uint64_t addr, std::uint64_t size) noexcept {
    if (addr >= globals_end || regions.empty()) return;
    // Binary search for the region containing addr.
    std::size_t lo = 0;
    std::size_t hi = regions.size();
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (regions[mid].base <= addr) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    GlobalRegion& r = regions[lo];
    if (addr >= r.base && addr + size <= r.base + r.size) r.dirty = true;
  }

  void decode_module(const ir::Module& m) {
    functions.resize(m.function_count());
    for (std::size_t i = 0; i < m.function_count(); ++i) {
      if (m.function(i)->name() == "main") main_index = static_cast<int>(i);
      // A lazy rollout clone is read through its source, whose globals and
      // callees have the positions of m's.
      decode_function(*m.function(i)->reading_body(), functions[i]);
    }
  }

  void decode_function(const Function& f, DecodedFunction& out) {
    const ir::Module& module = *f.parent();
    out.arg_count = static_cast<int>(f.arg_count());
    // Slots: arguments first, then the non-void instructions in block order.
    // A foreign or void operand has no slot, and at() throws for it.
    ir::IdTable<Instruction, int> inst_slot(f, -1);
    ir::IdTable<BasicBlock, int> block_index(f, -1);
    int next_slot = static_cast<int>(f.arg_count());
    const auto blocks = f.blocks();
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      block_index[blocks[b]] = static_cast<int>(b);
      for (Instruction* inst : blocks[b]->instructions()) {
        if (!inst->type()->is_void()) inst_slot[inst] = next_slot++;
      }
    }
    out.slot_count = next_slot;
    const auto slot = [&](const Value* v) -> int {
      if (const Instruction* inst = ir::as_instruction(v)) return inst_slot.at(inst);
      const auto* arg = static_cast<const ir::Argument*>(v);
      if (arg->parent() != &f) throw std::out_of_range("interpreter: foreign argument");
      return static_cast<int>(arg->index());
    };

    auto make_ref = [&](Value* v) -> OperandRef {
      OperandRef r;
      if (const ConstantInt* ci = ir::as_constant_int(v)) {
        r.kind = OperandKind::kImm;
        r.imm = ci->value();
      } else if (v->value_kind() == ir::ValueKind::kUndef) {
        r.kind = OperandKind::kImm;
        r.imm = 0;
      } else if (const ir::GlobalVariable* g = ir::as_global(v)) {
        if (!module.owns(g)) throw std::out_of_range("interpreter: foreign global");
        r.kind = OperandKind::kImm;
        r.imm = static_cast<std::int64_t>(regions[g->index()].base);
      } else {
        r.kind = OperandKind::kSlot;
        r.slot = slot(v);
      }
      return r;
    };

    out.blocks.resize(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      BasicBlock* bb = blocks[b];
      DecodedBlock& dblock = out.blocks[b];
      dblock.src = bb;
      for (Instruction* inst : bb->instructions()) {
        if (inst->is_phi()) {
          DecodedPhi phi;
          phi.dest_slot = slot(inst);
          for (std::size_t i = 0; i < inst->incoming_count(); ++i) {
            phi.incoming.emplace_back(block_index.at(inst->incoming_block(i)),
                                      make_ref(inst->incoming_value(i)));
          }
          dblock.phis.push_back(std::move(phi));
          continue;
        }
        DecodedInst d;
        d.op = inst->opcode();
        d.src = inst;
        if (!inst->type()->is_void()) {
          d.dest_slot = slot(inst);
          if (inst->type()->is_int()) d.bits = inst->type()->bits();
        }
        for (Value* op : inst->operands()) d.ops.push_back(make_ref(op));
        switch (inst->opcode()) {
          case Opcode::kICmp:
            d.pred = inst->icmp_pred();
            [[fallthrough]];
          case Opcode::kZExt:
          case Opcode::kSExt:
          case Opcode::kTrunc:
            d.src_bits = inst->operand(0)->type()->is_int() ? inst->operand(0)->type()->bits() : 64;
            break;
          case Opcode::kAlloca:
            d.elem_size = static_cast<std::uint32_t>(inst->allocated_type()->size_in_bytes());
            d.alloca_count = inst->alloca_count();
            break;
          case Opcode::kLoad:
            d.elem_size = static_cast<std::uint32_t>(inst->type()->size_in_bytes());
            break;
          case Opcode::kStore:
            d.elem_size = static_cast<std::uint32_t>(inst->operand(0)->type()->size_in_bytes());
            break;
          case Opcode::kGep:
            d.elem_size =
                static_cast<std::uint32_t>(inst->type()->pointee()->size_in_bytes());
            break;
          case Opcode::kMemSet:
          case Opcode::kMemCpy:
            d.elem_size =
                static_cast<std::uint32_t>(inst->operand(0)->type()->pointee()->size_in_bytes());
            break;
          case Opcode::kCall:
            if (!module.owns(inst->callee())) {
              throw std::out_of_range("interpreter: foreign callee");
            }
            d.callee = static_cast<int>(inst->callee()->index());
            break;
          case Opcode::kBr: d.succ0 = block_index.at(inst->successor(0)); break;
          case Opcode::kCondBr:
            d.succ0 = block_index.at(inst->successor(0));
            d.succ1 = block_index.at(inst->successor(1));
            break;
          case Opcode::kSwitch: {
            d.succ0 = block_index.at(inst->successor(0));  // default
            for (std::size_t c = 0; c < inst->switch_case_count(); ++c) {
              const auto* cv = ir::as_constant_int(inst->operand(1 + c));
              d.cases.emplace_back(cv->value(), block_index.at(inst->successor(1 + c)));
            }
            break;
          }
          default: break;
        }
        dblock.insts.push_back(std::move(d));
      }
    }
  }

  // ---- Execution ----

  std::uint8_t* memory = nullptr;  // the thread arena, during run() only
  std::size_t dirty_end = 0;       // no byte at or above this was written
  std::size_t stack_ptr = 0;
  std::uint64_t executed = 0;
  std::vector<std::int64_t> phi_buffer;

  [[nodiscard]] bool mem_ok(std::uint64_t addr, std::uint64_t size) const noexcept {
    return addr >= 8 && size <= options.memory_bytes && addr <= options.memory_bytes - size;
  }

  /// Byte size of `count` elements of `elem_size`, computed without
  /// overflow: false when it would exceed the arena (so no access fits).
  [[nodiscard]] bool byte_size(std::uint64_t count, std::uint64_t elem_size,
                               std::uint64_t& bytes) const noexcept {
    if (elem_size != 0 && count > options.memory_bytes / elem_size) return false;
    bytes = count * elem_size;
    return true;
  }

  std::int64_t mem_read(std::uint64_t addr, std::uint32_t size, int bits) const noexcept {
    std::uint64_t raw = 0;
    std::memcpy(&raw, memory + addr, size);  // little-endian host assumed
    return sext64(raw, bits);
  }

  /// The one store path into the arena (stores, memset, global initialisers);
  /// the caller has bounds-checked [addr, addr + size).
  void mem_write(std::uint64_t addr, std::uint32_t size, std::int64_t value) noexcept {
    const auto raw = static_cast<std::uint64_t>(value);
    std::memcpy(memory + addr, &raw, size);
    dirty_end = std::max<std::size_t>(dirty_end, addr + size);
  }

  static std::int64_t eval_binary(Opcode op, std::int64_t a, std::int64_t b, int bits) noexcept {
    const std::uint64_t ua = static_cast<std::uint64_t>(a);
    const std::uint64_t ub = static_cast<std::uint64_t>(b);
    const std::uint64_t za = zmask(a, bits);
    const std::uint64_t zb = zmask(b, bits);
    const std::uint64_t sh = bits > 0 ? zb % static_cast<std::uint64_t>(bits) : 0;
    switch (op) {
      case Opcode::kAdd: return sext64(ua + ub, bits);
      case Opcode::kSub: return sext64(ua - ub, bits);
      case Opcode::kMul: return sext64(ua * ub, bits);
      case Opcode::kSDiv: {
        if (b == 0) return 0;
        if (b == -1) return sext64(static_cast<std::uint64_t>(-a), bits);  // min/-1 wraps
        return sext64(static_cast<std::uint64_t>(a / b), bits);
      }
      case Opcode::kUDiv: return zb == 0 ? 0 : sext64(za / zb, bits);
      case Opcode::kSRem: {
        if (b == 0 || b == -1) return 0;
        return sext64(static_cast<std::uint64_t>(a % b), bits);
      }
      case Opcode::kURem: return zb == 0 ? 0 : sext64(za % zb, bits);
      case Opcode::kAnd: return a & b;
      case Opcode::kOr: return a | b;
      case Opcode::kXor: return a ^ b;
      case Opcode::kShl: return sext64(za << sh, bits);
      case Opcode::kLShr: return sext64(za >> sh, bits);
      case Opcode::kAShr: return sext64(static_cast<std::uint64_t>(a >> sh), bits);
      default: return 0;
    }
  }

  static bool eval_icmp(ICmpPred pred, std::int64_t a, std::int64_t b, int bits) noexcept {
    const std::uint64_t za = zmask(a, bits);
    const std::uint64_t zb = zmask(b, bits);
    switch (pred) {
      case ICmpPred::kEq: return a == b;
      case ICmpPred::kNe: return a != b;
      case ICmpPred::kSlt: return a < b;
      case ICmpPred::kSle: return a <= b;
      case ICmpPred::kSgt: return a > b;
      case ICmpPred::kSge: return a >= b;
      case ICmpPred::kUlt: return za < zb;
      case ICmpPred::kUle: return za <= zb;
      case ICmpPred::kUgt: return za > zb;
      case ICmpPred::kUge: return za >= zb;
    }
    return false;
  }

  Result<ExecutionResult> run() {
    if (main_index < 0) return Status::error("interpreter: module has no 'main' function");
    if (globals_end > options.memory_bytes) {
      return Status::error("interpreter: globals do not fit in the memory arena");
    }
    // Reset state. The arena arrives all-zero; however this run ends, the
    // lease hands back how far it wrote so the next run re-zeroes that much.
    struct ArenaLease {
      Impl& impl;
      ~ArenaLease() {
        t_arena.release(impl.dirty_end);
        impl.memory = nullptr;
      }
    };
    memory = t_arena.acquire(options.memory_bytes);
    dirty_end = 0;
    const ArenaLease lease{*this};
    for (const GlobalRegion& r : regions) {
      const auto& init = r.global->init();
      const auto esz = static_cast<std::uint32_t>(r.global->element_type()->size_in_bytes());
      for (std::size_t e = 0; e < init.size() && e < r.global->element_count(); ++e) {
        mem_write(r.base + e * esz, esz, init[e]);
      }
    }
    stack_ptr = globals_end;
    executed = 0;
    (void)take_profile();  // drops the counts of a run that failed
    for (GlobalRegion& r : regions) r.dirty = false;

    std::vector<Frame> frames;
    frames.reserve(64);
    {
      Frame main_frame;
      main_frame.func = main_index;
      main_frame.stack_watermark = stack_ptr;
      main_frame.slots.assign(static_cast<std::size_t>(functions[main_index].slot_count), 0);
      frames.push_back(std::move(main_frame));
    }
    if (functions[main_index].arg_count != 0) {
      return Status::error("interpreter: 'main' must take no arguments");
    }
    ++functions[main_index].blocks[0].entries;  // a new frame starts in block 0

    std::int64_t final_return = 0;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      DecodedFunction& fn = functions[static_cast<std::size_t>(fr.func)];
      DecodedBlock& blk = fn.blocks[static_cast<std::size_t>(fr.block)];
      if (fr.ip >= blk.insts.size()) {
        return Status::error("interpreter: fell off the end of a block");
      }
      DecodedInst& d = blk.insts[fr.ip];
      if (++executed > options.max_instructions) {
        return Status::error("interpreter: instruction budget exceeded");
      }

      auto value_of = [&fr](const OperandRef& r) -> std::int64_t {
        return r.kind == OperandKind::kImm ? r.imm
                                           : fr.slots[static_cast<std::size_t>(r.slot)];
      };

      switch (d.op) {
        case Opcode::kICmp:
          fr.slots[static_cast<std::size_t>(d.dest_slot)] =
              eval_icmp(d.pred, value_of(d.ops[0]), value_of(d.ops[1]), d.src_bits) ? 1 : 0;
          ++fr.ip;
          break;
        case Opcode::kZExt:
          fr.slots[static_cast<std::size_t>(d.dest_slot)] =
              static_cast<std::int64_t>(zmask(value_of(d.ops[0]), d.src_bits));
          ++fr.ip;
          break;
        case Opcode::kSExt:
          // Slots already hold sign-extended values at source width.
          fr.slots[static_cast<std::size_t>(d.dest_slot)] = value_of(d.ops[0]);
          ++fr.ip;
          break;
        case Opcode::kTrunc:
          fr.slots[static_cast<std::size_t>(d.dest_slot)] =
              sext64(static_cast<std::uint64_t>(value_of(d.ops[0])), d.bits);
          ++fr.ip;
          break;
        case Opcode::kBitCast:
          fr.slots[static_cast<std::size_t>(d.dest_slot)] = value_of(d.ops[0]);
          ++fr.ip;
          break;
        case Opcode::kSelect:
          fr.slots[static_cast<std::size_t>(d.dest_slot)] =
              value_of(d.ops[0]) != 0 ? value_of(d.ops[1]) : value_of(d.ops[2]);
          ++fr.ip;
          break;
        case Opcode::kAlloca: {
          const std::size_t sp = (stack_ptr + 7) & ~std::size_t{7};
          std::uint64_t bytes = 0;
          if (!byte_size(d.alloca_count, d.elem_size, bytes) || sp > options.memory_bytes ||
              bytes > options.memory_bytes - sp) {
            return Status::error("interpreter: stack overflow");
          }
          fr.slots[static_cast<std::size_t>(d.dest_slot)] = static_cast<std::int64_t>(sp);
          // Arena already zeroed at run start; freed regions re-zeroed on pop.
          stack_ptr = sp + bytes;
          ++fr.ip;
          break;
        }
        case Opcode::kLoad: {
          const auto addr = static_cast<std::uint64_t>(value_of(d.ops[0]));
          if (!mem_ok(addr, d.elem_size)) {
            return Status::error(strf("interpreter: out-of-bounds load at %llu",
                                      static_cast<unsigned long long>(addr)));
          }
          fr.slots[static_cast<std::size_t>(d.dest_slot)] = mem_read(addr, d.elem_size, d.bits);
          ++fr.ip;
          break;
        }
        case Opcode::kStore: {
          const auto addr = static_cast<std::uint64_t>(value_of(d.ops[1]));
          if (!mem_ok(addr, d.elem_size)) {
            return Status::error(strf("interpreter: out-of-bounds store at %llu",
                                      static_cast<unsigned long long>(addr)));
          }
          mem_write(addr, d.elem_size, value_of(d.ops[0]));
          mark_written(addr, d.elem_size);
          ++fr.ip;
          break;
        }
        case Opcode::kGep:
          fr.slots[static_cast<std::size_t>(d.dest_slot)] = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(value_of(d.ops[0])) +
              static_cast<std::uint64_t>(value_of(d.ops[1])) * d.elem_size);
          ++fr.ip;
          break;
        case Opcode::kMemSet: {
          const auto addr = static_cast<std::uint64_t>(value_of(d.ops[0]));
          const std::int64_t count_signed = value_of(d.ops[2]);
          const std::uint64_t count =
              count_signed <= 0 ? 0 : static_cast<std::uint64_t>(count_signed);
          std::uint64_t bytes = 0;
          if (count > 0 && (!byte_size(count, d.elem_size, bytes) || !mem_ok(addr, bytes))) {
            return Status::error("interpreter: out-of-bounds memset");
          }
          const std::int64_t v = value_of(d.ops[1]);
          // A zero-size element (void*) writes nothing: don't spin `count` times.
          for (std::uint64_t i = 0; d.elem_size != 0 && i < count; ++i) {
            mem_write(addr + i * d.elem_size, d.elem_size, v);
          }
          if (count > 0) mark_written(addr, bytes);
          d.elems += count;
          executed += count;  // budget scales with work
          ++fr.ip;
          break;
        }
        case Opcode::kMemCpy: {
          const auto dst = static_cast<std::uint64_t>(value_of(d.ops[0]));
          const auto src = static_cast<std::uint64_t>(value_of(d.ops[1]));
          const std::int64_t count_signed = value_of(d.ops[2]);
          const std::uint64_t count =
              count_signed <= 0 ? 0 : static_cast<std::uint64_t>(count_signed);
          std::uint64_t bytes = 0;
          if (count > 0 && (!byte_size(count, d.elem_size, bytes) || !mem_ok(dst, bytes) ||
                            !mem_ok(src, bytes))) {
            return Status::error("interpreter: out-of-bounds memcpy");
          }
          if (count > 0) {
            std::memmove(memory + dst, memory + src, bytes);
            dirty_end = std::max<std::size_t>(dirty_end, dst + bytes);
            mark_written(dst, bytes);
          }
          d.elems += count;
          executed += count;
          ++fr.ip;
          break;
        }
        case Opcode::kCall: {
          if (frames.size() >= options.max_call_depth) {
            return Status::error("interpreter: call depth limit exceeded");
          }
          Frame callee_frame;
          callee_frame.func = d.callee;
          callee_frame.ret_slot = d.dest_slot;
          callee_frame.stack_watermark = stack_ptr;
          DecodedFunction& callee_fn = functions[static_cast<std::size_t>(d.callee)];
          callee_frame.slots.assign(static_cast<std::size_t>(callee_fn.slot_count), 0);
          for (std::size_t a = 0; a < d.ops.size(); ++a) callee_frame.slots[a] = value_of(d.ops[a]);
          ++fr.ip;  // resume after the call upon return
          frames.push_back(std::move(callee_frame));
          ++callee_fn.blocks[0].entries;
          break;
        }
        case Opcode::kBr:
          jump(fr, d.succ0);
          break;
        case Opcode::kCondBr:
          jump(fr, value_of(d.ops[0]) != 0 ? d.succ0 : d.succ1);
          break;
        case Opcode::kSwitch: {
          const std::int64_t v = value_of(d.ops[0]);
          int target = d.succ0;
          for (const auto& [cv, bidx] : d.cases) {
            if (cv == v) {
              target = bidx;
              break;
            }
          }
          jump(fr, target);
          break;
        }
        case Opcode::kRet: {
          const std::int64_t rv = d.ops.empty() ? 0 : value_of(d.ops[0]);
          // Re-zero the frame's stack region so later allocas observe
          // deterministic zeroed memory.
          if (stack_ptr > fr.stack_watermark) {
            std::memset(memory + fr.stack_watermark, 0, stack_ptr - fr.stack_watermark);
          }
          stack_ptr = fr.stack_watermark;
          const int ret_slot = fr.ret_slot;
          frames.pop_back();
          if (frames.empty()) {
            final_return = rv;
          } else if (ret_slot >= 0) {
            frames.back().slots[static_cast<std::size_t>(ret_slot)] = rv;
          }
          break;
        }
        case Opcode::kUnreachable: return Status::error("interpreter: executed unreachable");
        default:
          if (ir::opcode_is_binary(d.op)) {
            fr.slots[static_cast<std::size_t>(d.dest_slot)] =
                eval_binary(d.op, value_of(d.ops[0]), value_of(d.ops[1]), d.bits);
            ++fr.ip;
          } else {
            return Status::error("interpreter: unhandled opcode");
          }
          break;
      }
    }

    ExecutionResult result;
    result.return_value = final_return;
    result.instructions_executed = executed;
    result.profile = take_profile();
    // Checksum over (name, final contents) of every written global: the
    // observable final state (see the header for why only written globals).
    std::uint64_t h = kFnvOffset;
    for (const GlobalRegion& r : regions) {
      if (!r.dirty) continue;
      h = fnv1a(r.global->name(), h);
      for (std::uint64_t i = 0; i < r.size; ++i) {
        h ^= memory[r.base + i];
        h *= kFnvPrime;
      }
    }
    result.memory_checksum = h;
    return result;
  }

  /// Takes (and zeroes) the counts in the decoded blocks and mem intrinsics.
  /// Only an entered block holds any; if the run returned, all of it ran.
  Profile take_profile() {
    Profile p;
    for (DecodedFunction& fn : functions) {
      for (DecodedBlock& blk : fn.blocks) {
        if (blk.entries == 0) continue;
        p.block_counts.emplace_back(blk.src, std::exchange(blk.entries, 0));
        for (DecodedInst& d : blk.insts) {
          if (d.op == Opcode::kMemSet || d.op == Opcode::kMemCpy) {
            p.mem_intrinsic_elems.emplace_back(d.src, std::exchange(d.elems, 0));
          }
        }
      }
    }
    return p;
  }

  void jump(Frame& fr, int target) {
    DecodedFunction& fn = functions[static_cast<std::size_t>(fr.func)];
    DecodedBlock& next = fn.blocks[static_cast<std::size_t>(target)];
    // Parallel phi assignment keyed on the edge we arrive through.
    if (!next.phis.empty()) {
      const int from = fr.block;
      phi_buffer.clear();
      for (const DecodedPhi& phi : next.phis) {
        std::int64_t v = 0;
        for (const auto& [pred_idx, ref] : phi.incoming) {
          if (pred_idx == from) {
            v = ref.kind == OperandKind::kImm ? ref.imm
                                              : fr.slots[static_cast<std::size_t>(ref.slot)];
            break;
          }
        }
        phi_buffer.push_back(v);
      }
      for (std::size_t i = 0; i < next.phis.size(); ++i) {
        fr.slots[static_cast<std::size_t>(next.phis[i].dest_slot)] = phi_buffer[i];
      }
      executed += next.phis.size();
    }
    fr.block = target;
    fr.ip = 0;
    ++next.entries;
  }
};

Interpreter::Interpreter(const ir::Module& module, InterpreterOptions options)
    : impl_(std::make_unique<Impl>(module, options)) {}

Interpreter::~Interpreter() = default;

Result<ExecutionResult> Interpreter::run() { return impl_->run(); }

Result<ExecutionResult> run_module(const ir::Module& module, InterpreterOptions options) {
  Interpreter interp(module, options);
  return interp.run();
}

}  // namespace autophase::interp
