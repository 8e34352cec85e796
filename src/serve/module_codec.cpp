#include "serve/module_codec.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/id_table.hpp"
#include "ir/verifier.hpp"
#include "support/str.hpp"

namespace autophase::serve {

namespace {

constexpr char kModuleMagic[4] = {'A', 'P', 'M', 'B'};  // AutoPhase Module Blob
constexpr std::uint32_t kModuleFormatVersion = 1;

// The numeric values of ir::Opcode / ir::ICmpPred are part of the wire
// format; reordering either enum requires a kModuleFormatVersion bump.
constexpr std::uint8_t kMaxOpcode = static_cast<std::uint8_t>(ir::Opcode::kUnreachable);
constexpr std::uint8_t kMaxPred = static_cast<std::uint8_t>(ir::ICmpPred::kUge);

enum RefTag : std::uint8_t {
  kRefConst = 0,
  kRefUndef = 1,
  kRefArg = 2,
  kRefGlobal = 3,
  kRefInst = 4,
};
constexpr std::uint8_t kMaxRefTag = kRefInst;

constexpr int kMaxTypeDepth = 16;

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

void write_type(ByteWriter& w, const ir::Type* type) {
  w.u8(static_cast<std::uint8_t>(type->kind()));
  switch (type->kind()) {
    case ir::TypeKind::kVoid: break;
    case ir::TypeKind::kInt: w.u8(static_cast<std::uint8_t>(type->bits())); break;
    case ir::TypeKind::kPointer: write_type(w, type->pointee()); break;
  }
}

ir::Type* read_type(ByteReader& r, int depth = 0) {
  if (depth > kMaxTypeDepth) return nullptr;
  switch (r.u8()) {
    case static_cast<std::uint8_t>(ir::TypeKind::kVoid): return ir::Type::void_ty();
    case static_cast<std::uint8_t>(ir::TypeKind::kInt): {
      const std::uint8_t bits = r.u8();
      if (bits != 1 && bits != 8 && bits != 16 && bits != 32 && bits != 64) return nullptr;
      return ir::Type::int_ty(bits);
    }
    case static_cast<std::uint8_t>(ir::TypeKind::kPointer): {
      // The IR has no void*: a void pointee is hostile bytes, not a type.
      ir::Type* pointee = read_type(r, depth + 1);
      return pointee == nullptr || pointee->is_void() ? nullptr : ir::Type::pointer_to(pointee);
    }
    default: return nullptr;
  }
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Per-function numbering: arguments, instructions and blocks by position.
/// A lookup of a node of another function throws std::out_of_range.
class FunctionIndex {
 public:
  explicit FunctionIndex(const ir::Function& f)
      : function_(&f), insts_(f, kMissing), blocks_(f, kMissing) {
    std::uint32_t inst_index = 0;
    for (std::size_t b = 0; b < f.block_count(); ++b) {
      const ir::BasicBlock* bb = f.block(b);
      blocks_[bb] = static_cast<std::uint32_t>(b);
      for (std::size_t i = 0; i < bb->size(); ++i) insts_[bb->inst(i)] = inst_index++;
    }
  }

  [[nodiscard]] std::uint32_t arg(const ir::Value* v) const {
    const auto* a = static_cast<const ir::Argument*>(v);
    if (a->parent() != function_) throw std::out_of_range("module codec: foreign argument");
    return a->index();
  }
  [[nodiscard]] std::uint32_t inst(const ir::Value* v) const {
    return insts_.at(static_cast<const ir::Instruction*>(v));
  }
  [[nodiscard]] std::uint32_t block(const ir::BasicBlock* bb) const { return blocks_.at(bb); }

 private:
  static constexpr std::uint32_t kMissing = ~std::uint32_t{0};

  const ir::Function* function_;
  ir::IdTable<ir::Instruction, std::uint32_t> insts_;
  ir::IdTable<ir::BasicBlock, std::uint32_t> blocks_;
};

void write_ref(ByteWriter& w, const ir::Value* v,
               const std::unordered_map<const ir::Value*, std::uint32_t>& globals,
               const FunctionIndex& index) {
  switch (v->value_kind()) {
    case ir::ValueKind::kConstantInt: {
      w.u8(kRefConst);
      write_type(w, v->type());
      w.u64(std::bit_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<const ir::ConstantInt*>(v)->value())));
      return;
    }
    case ir::ValueKind::kUndef:
      w.u8(kRefUndef);
      write_type(w, v->type());
      return;
    case ir::ValueKind::kArgument:
      w.u8(kRefArg);
      w.u32(index.arg(v));
      return;
    case ir::ValueKind::kGlobalVariable:
      w.u8(kRefGlobal);
      w.u32(globals.at(v));
      return;
    case ir::ValueKind::kInstruction:
      w.u8(kRefInst);
      w.u32(index.inst(v));
      return;
  }
}

void write_instruction(ByteWriter& w, const ir::Instruction* inst,
                       const std::unordered_map<const ir::Value*, std::uint32_t>& globals,
                       const std::unordered_map<const ir::Function*, std::uint32_t>& functions,
                       const FunctionIndex& index) {
  const auto ref = [&](const ir::Value* v) { write_ref(w, v, globals, index); };
  w.u8(static_cast<std::uint8_t>(inst->opcode()));
  w.str(inst->name());
  write_type(w, inst->type());
  switch (inst->opcode()) {
    case ir::Opcode::kICmp:
      w.u8(static_cast<std::uint8_t>(inst->icmp_pred()));
      ref(inst->operand(0));
      ref(inst->operand(1));
      break;
    case ir::Opcode::kZExt:
    case ir::Opcode::kSExt:
    case ir::Opcode::kTrunc:
    case ir::Opcode::kBitCast:
    case ir::Opcode::kLoad:
      ref(inst->operand(0));
      break;
    case ir::Opcode::kPhi:
      w.u64(inst->incoming_count());
      for (std::size_t i = 0; i < inst->incoming_count(); ++i) {
        ref(inst->incoming_value(i));
        w.u32(index.block(inst->incoming_block(i)));
      }
      break;
    case ir::Opcode::kAlloca:
      write_type(w, inst->allocated_type());
      w.u64(inst->alloca_count());
      break;
    case ir::Opcode::kCall:
      w.u32(functions.at(inst->callee()));
      w.u64(inst->operand_count());
      for (const ir::Value* arg : inst->operands()) ref(arg);
      break;
    case ir::Opcode::kBr: w.u32(index.block(inst->successor(0))); break;
    case ir::Opcode::kCondBr:
      ref(inst->operand(0));
      w.u32(index.block(inst->successor(0)));
      w.u32(index.block(inst->successor(1)));
      break;
    case ir::Opcode::kSwitch:
      ref(inst->operand(0));
      w.u32(index.block(inst->successor(0)));
      w.u64(inst->switch_case_count());
      for (std::size_t c = 0; c < inst->switch_case_count(); ++c) {
        const auto* value = static_cast<const ir::ConstantInt*>(inst->operand(1 + c));
        write_type(w, value->type());
        w.u64(std::bit_cast<std::uint64_t>(value->value()));
        w.u32(index.block(inst->successor(1 + c)));
      }
      break;
    case ir::Opcode::kRet:
      w.u8(inst->operand_count() > 0 ? 1 : 0);
      if (inst->operand_count() > 0) ref(inst->operand(0));
      break;
    case ir::Opcode::kUnreachable: break;
    default:
      // Binary ops, select, store, gep, memset, memcpy: a plain operand list
      // whose length is fixed by the opcode.
      for (const ir::Value* operand : inst->operands()) ref(operand);
      break;
  }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

struct RefRec {
  std::uint8_t tag = kRefUndef;
  ir::Type* type = nullptr;    // const / undef
  std::int64_t value = 0;      // const
  std::uint32_t index = 0;     // arg / global / inst
};

struct CaseRec {
  ir::Type* type = nullptr;
  std::int64_t value = 0;
  std::uint32_t block = 0;
};

struct InstRec {
  ir::Opcode op = ir::Opcode::kUnreachable;
  std::string name;
  ir::Type* type = nullptr;  // result type (placeholder type for forward refs)
  std::uint32_t block = 0;   // owning block index
  std::vector<RefRec> operands;
  std::vector<std::pair<RefRec, std::uint32_t>> incoming;  // phi
  std::vector<CaseRec> cases;                              // switch
  std::vector<std::uint32_t> successors;                   // br/condbr/switch default
  ir::ICmpPred pred = ir::ICmpPred::kEq;
  std::uint32_t callee = 0;
  ir::Type* alloca_type = nullptr;
  std::uint64_t alloca_count = 0;
  bool has_ret_value = false;
};

/// How many fixed operand refs each non-special opcode carries.
int plain_operand_count(ir::Opcode op) {
  if (ir::opcode_is_binary(op)) return 2;
  switch (op) {
    case ir::Opcode::kSelect: return 3;
    case ir::Opcode::kStore: return 2;
    case ir::Opcode::kGep: return 2;
    case ir::Opcode::kMemSet: return 3;
    case ir::Opcode::kMemCpy: return 3;
    default: return -1;
  }
}

/// Opcodes that may have a void result. Every other opcode defines a value,
/// and a void-typed one would give the interpreter no register to write.
bool may_be_void(ir::Opcode op) {
  switch (op) {
    case ir::Opcode::kStore:
    case ir::Opcode::kMemSet:
    case ir::Opcode::kMemCpy:
    case ir::Opcode::kCall:
    case ir::Opcode::kBr:
    case ir::Opcode::kCondBr:
    case ir::Opcode::kSwitch:
    case ir::Opcode::kRet:
    case ir::Opcode::kUnreachable: return true;
    default: return false;
  }
}

class ModuleDecoder {
 public:
  explicit ModuleDecoder(ByteReader& r) : r_(r) {}

  Result<std::unique_ptr<ir::Module>> run() {
    auto module = std::make_unique<ir::Module>(r_.str());

    const std::uint64_t nglobals = r_.count(1);
    if (!r_.ok()) return corrupt("global count");
    for (std::uint64_t g = 0; g < nglobals; ++g) {
      if (const Status s = read_global(*module); !s.is_ok()) return s;
    }
    globals_cache_ = module->globals();

    const std::uint64_t nfuncs = r_.count(1);
    if (!r_.ok()) return corrupt("function count");
    for (std::uint64_t f = 0; f < nfuncs; ++f) {
      if (const Status s = read_signature(*module); !s.is_ok()) return s;
    }
    for (std::uint64_t f = 0; f < nfuncs; ++f) {
      if (const Status s = read_body(module->function(f)); !s.is_ok()) return s;
    }
    if (!r_.ok()) return corrupt("truncated payload");
    if (const Status s = ir::verify_module(*module); !s.is_ok()) {
      return Status::error("module blob decodes to ill-formed IR: " + s.message());
    }
    return module;
  }

 private:
  static Status corrupt(const char* what) {
    return Status::error(strf("module blob: corrupt %s", what));
  }

  Status read_global(ir::Module& module) {
    std::string name = r_.str();
    ir::Type* element = read_type(r_);
    const std::uint64_t count = r_.u64();
    const bool constant_data = r_.u8() != 0;
    const std::uint64_t ninit = r_.count(8);
    if (!r_.ok() || element == nullptr || element->is_void() || count == 0 ||
        count > (1u << 28) || ninit > count) {
      return corrupt("global");
    }
    std::vector<std::int64_t> init;
    init.reserve(ninit);
    for (std::uint64_t i = 0; i < ninit; ++i) {
      init.push_back(std::bit_cast<std::int64_t>(r_.u64()));
    }
    module.create_global(element, count, std::move(name), std::move(init), constant_data);
    return Status::ok();
  }

  Status read_signature(ir::Module& module) {
    std::string name = r_.str();
    ir::Type* ret = read_type(r_);
    const std::uint64_t nargs = r_.u64();
    if (!r_.ok() || ret == nullptr || nargs > (1u << 16)) return corrupt("function signature");
    std::vector<ir::Type*> param_types;
    std::vector<std::string> param_names;
    for (std::uint64_t a = 0; a < nargs; ++a) {
      ir::Type* t = read_type(r_);
      if (t == nullptr || t->is_void()) return corrupt("parameter type");
      param_types.push_back(t);
      param_names.push_back(r_.str());
    }
    const std::uint8_t attrs = r_.u8();
    if (!r_.ok() || attrs > 0b111) return corrupt("function attributes");
    ir::Function* f = module.create_function(std::move(name), ret, param_types, param_names);
    f->attrs().readnone = (attrs & 1) != 0;
    f->attrs().readonly = (attrs & 2) != 0;
    f->attrs().nounwind = (attrs & 4) != 0;
    return Status::ok();
  }

  RefRec read_ref() {
    RefRec ref;
    ref.tag = r_.u8();
    if (ref.tag > kMaxRefTag) {
      r_ok_ = false;
      return ref;
    }
    switch (ref.tag) {
      case kRefConst:
        ref.type = read_type(r_);
        ref.value = std::bit_cast<std::int64_t>(r_.u64());
        if (ref.type == nullptr || !ref.type->is_int()) r_ok_ = false;
        break;
      case kRefUndef:
        ref.type = read_type(r_);
        if (ref.type == nullptr) r_ok_ = false;
        break;
      default: ref.index = r_.u32(); break;
    }
    return ref;
  }

  Status read_body(ir::Function* func) {
    const std::uint64_t nblocks = r_.count(1);
    if (!r_.ok()) return corrupt("block count");

    // Pass A: read every record first — forward references (phis, branches
    // to later blocks, uses of later definitions) need the full table before
    // any instruction object exists.
    std::vector<std::string> block_names;
    std::vector<InstRec> recs;
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      block_names.push_back(r_.str());
      const std::uint64_t ninsts = r_.count(1);
      if (!r_.ok()) return corrupt("instruction count");
      for (std::uint64_t i = 0; i < ninsts; ++i) {
        InstRec rec;
        rec.block = static_cast<std::uint32_t>(b);
        if (const Status s = read_record(rec); !s.is_ok()) return s;
        recs.push_back(std::move(rec));
      }
    }
    // Pass B: create blocks, then instructions in order. Operands referencing
    // a later instruction get a typed undef placeholder; everything else
    // resolves directly. Factory type preconditions are re-validated here
    // because asserts are compiled out of release servers.
    std::vector<ir::BasicBlock*> blocks;
    for (auto& name : block_names) blocks.push_back(func->create_block(std::move(name)));
    std::vector<ir::Instruction*> created(recs.size(), nullptr);
    // (instruction, operand slot, record index) triples to rebind in pass C.
    std::vector<std::tuple<std::size_t, std::size_t, std::uint32_t>> fixups;

    for (std::size_t i = 0; i < recs.size(); ++i) {
      const InstRec& rec = recs[i];
      auto owned = build_instruction(func, rec, recs, blocks, created, i, fixups);
      if (owned == nullptr) return corrupt(strf("instruction %zu", i).c_str());
      if (owned->type() != rec.type) return corrupt("instruction result type");
      created[i] = blocks[rec.block]->push_back(std::move(owned));
    }

    // Pass C: swap placeholders for the real (now existing) definitions and
    // attach phi incomings.
    for (const auto& [inst, slot, target] : fixups) {
      created[inst]->set_operand(slot, created[target]);
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].op != ir::Opcode::kPhi) continue;
      for (const auto& [ref, block] : recs[i].incoming) {
        ir::Value* value = resolve_final(ref, func, recs, created);
        if (value == nullptr || value->type() != created[i]->type()) {
          return corrupt("phi incoming");
        }
        created[i]->add_incoming(value, blocks[block]);
      }
    }
    return Status::ok();
  }

  Status read_record(InstRec& rec) {
    const std::uint8_t op = r_.u8();
    if (!r_.ok() || op > kMaxOpcode) return corrupt("opcode");
    rec.op = static_cast<ir::Opcode>(op);
    rec.name = r_.str();
    rec.type = read_type(r_);
    if (!r_.ok() || rec.type == nullptr || (rec.type->is_void() && !may_be_void(rec.op))) {
      return corrupt("instruction type");
    }
    // Every loop below both divides the count guard by the smallest possible
    // element encoding and stops on a failed reader: a corrupt count must
    // cost at most the payload's own bytes, never count-many iterations or
    // a count-sized allocation (the reader returns zeros without consuming
    // once exhausted, so "the reads will fail eventually" bounds nothing).
    const auto take_refs = [&](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n && r_.ok() && r_ok_; ++i) {
        rec.operands.push_back(read_ref());
      }
    };
    switch (rec.op) {
      case ir::Opcode::kICmp: {
        const std::uint8_t pred = r_.u8();
        if (pred > kMaxPred) return corrupt("icmp predicate");
        rec.pred = static_cast<ir::ICmpPred>(pred);
        take_refs(2);
        break;
      }
      case ir::Opcode::kZExt:
      case ir::Opcode::kSExt:
      case ir::Opcode::kTrunc:
      case ir::Opcode::kBitCast:
      case ir::Opcode::kLoad: take_refs(1); break;
      case ir::Opcode::kPhi: {
        // Each incoming is at least a 2-byte ref + 4-byte block index.
        const std::uint64_t n = r_.count(6);
        if (!r_.ok()) return corrupt("phi arity");
        for (std::uint64_t k = 0; k < n && r_.ok() && r_ok_; ++k) {
          RefRec ref = read_ref();
          rec.incoming.emplace_back(ref, r_.u32());
        }
        break;
      }
      case ir::Opcode::kAlloca:
        rec.alloca_type = read_type(r_);
        rec.alloca_count = r_.u64();
        if (rec.alloca_type == nullptr || rec.alloca_type->is_void() || rec.alloca_count == 0 ||
            rec.alloca_count > (1u << 28)) {
          return corrupt("alloca");
        }
        break;
      case ir::Opcode::kCall: {
        rec.callee = r_.u32();
        // The smallest encodable ref (undef + one-byte type) is 2 bytes.
        const std::uint64_t n = r_.count(2);
        if (!r_.ok()) return corrupt("call arity");
        take_refs(n);
        break;
      }
      case ir::Opcode::kBr: rec.successors.push_back(r_.u32()); break;
      case ir::Opcode::kCondBr:
        take_refs(1);
        rec.successors.push_back(r_.u32());
        rec.successors.push_back(r_.u32());
        break;
      case ir::Opcode::kSwitch: {
        take_refs(1);
        rec.successors.push_back(r_.u32());
        // Each case is a type (>= 2 bytes for int), an i64, and a block u32.
        const std::uint64_t n = r_.count(14);
        if (!r_.ok()) return corrupt("switch cases");
        for (std::uint64_t k = 0; k < n && r_.ok(); ++k) {
          CaseRec c;
          c.type = read_type(r_);
          c.value = std::bit_cast<std::int64_t>(r_.u64());
          c.block = r_.u32();
          if (c.type == nullptr || !c.type->is_int()) return corrupt("switch case");
          rec.cases.push_back(c);
        }
        break;
      }
      case ir::Opcode::kRet:
        rec.has_ret_value = r_.u8() != 0;
        if (rec.has_ret_value) take_refs(1);
        break;
      case ir::Opcode::kUnreachable: break;
      default: {
        const int n = plain_operand_count(rec.op);
        if (n < 0) return corrupt("opcode");
        take_refs(n);
        break;
      }
    }
    if (!r_.ok() || !r_ok_) return corrupt("instruction record");
    return Status::ok();
  }

  /// Type a reference will have once resolved (placeholders included).
  ir::Type* ref_type(const RefRec& ref, const ir::Function* func,
                     const std::vector<InstRec>& recs) const {
    switch (ref.tag) {
      case kRefConst:
      case kRefUndef: return ref.type;
      case kRefArg: return ref.index < func->arg_count() ? func->arg(ref.index)->type() : nullptr;
      case kRefGlobal:
        return ref.index < globals_().size() ? globals_()[ref.index]->type() : nullptr;
      case kRefInst: return ref.index < recs.size() ? recs[ref.index].type : nullptr;
      default: return nullptr;
    }
  }

  /// Resolves a reference during pass B. Forward instruction references
  /// yield a typed undef placeholder and log a fixup.
  ir::Value* resolve(const RefRec& ref, ir::Function* func, const std::vector<InstRec>& recs,
                     const std::vector<ir::Instruction*>& created, std::size_t self,
                     std::size_t slot,
                     std::vector<std::tuple<std::size_t, std::size_t, std::uint32_t>>& fixups) {
    switch (ref.tag) {
      case kRefConst: return func->parent()->get_int(ref.type, ref.value);
      case kRefUndef: return func->parent()->get_undef(ref.type);
      case kRefArg: return ref.index < func->arg_count() ? func->arg(ref.index) : nullptr;
      case kRefGlobal:
        return ref.index < globals_().size() ? globals_()[ref.index] : nullptr;
      case kRefInst:
        if (ref.index >= recs.size()) return nullptr;
        if (created[ref.index] != nullptr) return created[ref.index];
        fixups.emplace_back(self, slot, ref.index);
        return func->parent()->get_undef(recs[ref.index].type);
      default: return nullptr;
    }
  }

  /// Resolution after every instruction exists (phi incomings).
  static ir::Value* resolve_final(const RefRec& ref, ir::Function* func,
                                  const std::vector<InstRec>& recs,
                                  const std::vector<ir::Instruction*>& created) {
    switch (ref.tag) {
      case kRefConst: return func->parent()->get_int(ref.type, ref.value);
      case kRefUndef: return func->parent()->get_undef(ref.type);
      case kRefArg: return ref.index < func->arg_count() ? func->arg(ref.index) : nullptr;
      case kRefGlobal: {
        const ir::Module* m = func->parent();
        return ref.index < m->global_count() ? m->global(ref.index) : nullptr;
      }
      case kRefInst: return ref.index < recs.size() ? created[ref.index] : nullptr;
      default: return nullptr;
    }
  }

  std::unique_ptr<ir::Instruction> build_instruction(
      ir::Function* func, const InstRec& rec, const std::vector<InstRec>& recs,
      const std::vector<ir::BasicBlock*>& blocks, const std::vector<ir::Instruction*>& created,
      std::size_t self,
      std::vector<std::tuple<std::size_t, std::size_t, std::uint32_t>>& fixups) {
    const auto operand = [&](std::size_t slot) -> ir::Value* {
      return slot < rec.operands.size()
                 ? resolve(rec.operands[slot], func, recs, created, self, slot, fixups)
                 : nullptr;
    };
    const auto otype = [&](std::size_t slot) -> ir::Type* {
      return slot < rec.operands.size() ? ref_type(rec.operands[slot], func, recs) : nullptr;
    };
    const auto block = [&](std::size_t i) -> ir::BasicBlock* {
      return i < rec.successors.size() && rec.successors[i] < blocks.size()
                 ? blocks[rec.successors[i]]
                 : nullptr;
    };

    if (ir::opcode_is_binary(rec.op)) {
      ir::Type* t = otype(0);
      if (t == nullptr || !t->is_int() || t != otype(1) || t != rec.type) return nullptr;
      return ir::Instruction::binary(rec.op, operand(0), operand(1), rec.name);
    }
    switch (rec.op) {
      case ir::Opcode::kICmp: {
        ir::Type* t = otype(0);
        if (t == nullptr || t != otype(1) || rec.type != ir::Type::i1()) return nullptr;
        return ir::Instruction::icmp(rec.pred, operand(0), operand(1), rec.name);
      }
      case ir::Opcode::kZExt:
      case ir::Opcode::kSExt:
      case ir::Opcode::kTrunc:
      case ir::Opcode::kBitCast: {
        if (otype(0) == nullptr) return nullptr;
        return ir::Instruction::cast(rec.op, operand(0), rec.type, rec.name);
      }
      case ir::Opcode::kSelect: {
        if (otype(0) != ir::Type::i1() || otype(1) == nullptr || otype(1) != otype(2) ||
            otype(1) != rec.type) {
          return nullptr;
        }
        return ir::Instruction::select(operand(0), operand(1), operand(2), rec.name);
      }
      case ir::Opcode::kPhi: return ir::Instruction::phi(rec.type, rec.name);
      case ir::Opcode::kAlloca:
        return ir::Instruction::alloca_inst(rec.alloca_type,
                                            static_cast<std::size_t>(rec.alloca_count), rec.name);
      case ir::Opcode::kLoad: {
        ir::Type* t = otype(0);
        if (t == nullptr || !t->is_pointer() || t->pointee() != rec.type) return nullptr;
        return ir::Instruction::load(operand(0), rec.name);
      }
      case ir::Opcode::kStore: {
        ir::Type* p = otype(1);
        if (otype(0) == nullptr || p == nullptr || !p->is_pointer() ||
            p->pointee() != otype(0)) {
          return nullptr;
        }
        return ir::Instruction::store(operand(0), operand(1));
      }
      case ir::Opcode::kGep: {
        ir::Type* p = otype(0);
        ir::Type* idx = otype(1);
        if (p == nullptr || !p->is_pointer() || idx == nullptr || !idx->is_int()) return nullptr;
        return ir::Instruction::gep(operand(0), operand(1), rec.name);
      }
      case ir::Opcode::kMemSet: {
        ir::Type* d = otype(0);
        if (d == nullptr || !d->is_pointer() || otype(1) == nullptr || otype(2) == nullptr) {
          return nullptr;
        }
        return ir::Instruction::mem_set(operand(0), operand(1), operand(2));
      }
      case ir::Opcode::kMemCpy: {
        ir::Type* d = otype(0);
        ir::Type* s = otype(1);
        if (d == nullptr || !d->is_pointer() || s == nullptr || !s->is_pointer() ||
            otype(2) == nullptr) {
          return nullptr;
        }
        return ir::Instruction::mem_cpy(operand(0), operand(1), operand(2));
      }
      case ir::Opcode::kCall: {
        const ir::Module* m = func->parent();
        if (rec.callee >= m->function_count()) return nullptr;
        ir::Function* callee = m->function(rec.callee);
        if (rec.operands.size() != callee->arg_count()) return nullptr;
        std::vector<ir::Value*> args;
        for (std::size_t a = 0; a < rec.operands.size(); ++a) {
          ir::Value* v = operand(a);
          if (v == nullptr) return nullptr;
          args.push_back(v);
        }
        return ir::Instruction::call(callee, std::move(args), rec.name);
      }
      case ir::Opcode::kBr: {
        if (block(0) == nullptr) return nullptr;
        return ir::Instruction::br(block(0));
      }
      case ir::Opcode::kCondBr: {
        if (otype(0) != ir::Type::i1() || block(0) == nullptr || block(1) == nullptr) {
          return nullptr;
        }
        return ir::Instruction::cond_br(operand(0), block(0), block(1));
      }
      case ir::Opcode::kSwitch: {
        ir::Type* t = otype(0);
        if (t == nullptr || !t->is_int() || block(0) == nullptr) return nullptr;
        auto inst = ir::Instruction::switch_inst(operand(0), block(0));
        for (const CaseRec& c : rec.cases) {
          if (c.block >= blocks.size()) return nullptr;
          inst->add_switch_case(func->parent()->get_int(c.type, c.value), blocks[c.block]);
        }
        return inst;
      }
      case ir::Opcode::kRet: {
        if (!rec.has_ret_value) return ir::Instruction::ret(nullptr);
        if (otype(0) == nullptr) return nullptr;
        return ir::Instruction::ret(operand(0));
      }
      case ir::Opcode::kUnreachable: return ir::Instruction::unreachable();
      default: return nullptr;
    }
  }

  [[nodiscard]] const std::vector<ir::GlobalVariable*>& globals_() const {
    return globals_cache_;
  }

  ByteReader& r_;
  bool r_ok_ = true;
  std::vector<ir::GlobalVariable*> globals_cache_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

void write_module(ByteWriter& w, const ir::Module& module) {
  w.str(module.name());

  std::unordered_map<const ir::Value*, std::uint32_t> globals;
  w.u64(module.global_count());
  for (std::size_t g = 0; g < module.global_count(); ++g) {
    const ir::GlobalVariable* global = module.global(g);
    globals[global] = static_cast<std::uint32_t>(g);
    w.str(global->name());
    write_type(w, global->element_type());
    w.u64(global->element_count());
    w.u8(global->is_constant_data() ? 1 : 0);
    w.u64(global->init().size());
    for (const std::int64_t v : global->init()) w.u64(std::bit_cast<std::uint64_t>(v));
  }

  std::unordered_map<const ir::Function*, std::uint32_t> functions;
  w.u64(module.function_count());
  for (std::size_t f = 0; f < module.function_count(); ++f) {
    const ir::Function* func = module.function(f);
    functions[func] = static_cast<std::uint32_t>(f);
    w.str(func->name());
    write_type(w, func->return_type());
    w.u64(func->arg_count());
    for (std::size_t a = 0; a < func->arg_count(); ++a) {
      write_type(w, func->arg(a)->type());
      w.str(func->arg(a)->name());
    }
    const ir::FunctionAttrs& attrs = func->attrs();
    w.u8(static_cast<std::uint8_t>((attrs.readnone ? 1 : 0) | (attrs.readonly ? 2 : 0) |
                                   (attrs.nounwind ? 4 : 0)));
  }

  for (std::size_t f = 0; f < module.function_count(); ++f) {
    const ir::Function* func = module.function(f);
    const FunctionIndex index(*func);
    w.u64(func->block_count());
    for (ir::BasicBlock* bb : func->blocks()) {
      w.str(bb->name());
      w.u64(bb->size());
      for (ir::Instruction* inst : bb->instructions()) {
        write_instruction(w, inst, globals, functions, index);
      }
    }
  }
}

Result<std::unique_ptr<ir::Module>> read_module(ByteReader& r) {
  ModuleDecoder decoder(r);
  return decoder.run();
}

void serialize_module(ByteWriter& w, const ir::Module& module) {
  write_envelope(w, kModuleMagic, kModuleFormatVersion,
                 [&](ByteWriter& payload) { write_module(payload, module); });
}

std::string serialize_module(const ir::Module& module) {
  ByteWriter w;
  serialize_module(w, module);
  return w.take();
}

Result<std::unique_ptr<ir::Module>> deserialize_module(std::string_view bytes) {
  auto envelope = read_envelope(bytes, kModuleMagic, kModuleFormatVersion, "module blob");
  if (!envelope.is_ok()) return envelope.status();
  ByteReader p(envelope.value().payload);
  auto result = read_module(p);
  if (!result.is_ok()) return result;
  if (!p.ok() || !p.at_end()) return Status::error("module blob: trailing garbage in payload");
  return result;
}

}  // namespace autophase::serve
