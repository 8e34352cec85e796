#include "ir/printer.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <string_view>
#include <vector>

#include "ir/id_table.hpp"
#include "support/hash.hpp"

namespace autophase::ir {

namespace {

// One printer body writes every byte into a sink. print_module hands it a
// StringSink, which keeps the bytes; module_fingerprint hands it an
// FnvSink, which folds each byte into FNV-1a as it arrives. So the
// fingerprint is the hash of the printed text by construction, and the
// text never exists on the fingerprint path.

class StringSink {
 public:
  explicit StringSink(std::string& out) noexcept : out_(out) {}
  void put(char c) { out_.push_back(c); }
  void put(std::string_view s) { out_.append(s); }

 private:
  std::string& out_;
};

class FnvSink {
 public:
  void put(char c) noexcept { hash_ = (hash_ ^ static_cast<std::uint8_t>(c)) * kFnvPrime; }
  void put(std::string_view s) noexcept { hash_ = fnv1a(s, hash_); }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

template <typename Sink, typename Int>
void put_int(Sink& sink, Int value) {
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  sink.put(std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

/// Instructions and blocks in `f`'s body: its share of module_ir_size.
std::size_t body_size(const Function& f) {
  std::size_t size = 0;
  for (std::size_t b = 0; b < f.block_count(); ++b) size += 1 + f.block(b)->size();
  return size;
}

template <typename Sink>
class Printer {
 public:
  explicit Printer(Sink& out) noexcept : out_(out) {}

  void print(const Module& module) {
    emit("; module '", module.name(), "'\n");
    for (std::size_t i = 0; i < module.global_count(); ++i) {
      const GlobalVariable* g = module.global(i);
      emit('@', g->name(), " = global [", g->element_count(), " x ", g->element_type(), ']');
      if (g->is_constant_data()) emit(" constant");
      const auto& init = g->init();
      for (std::size_t j = 0; j < init.size(); ++j) emit(j == 0 ? " {" : ",", init[j]);
      if (!init.empty()) emit('}');
      emit('\n');
    }
    for (std::size_t i = 0; i < module.function_count(); ++i) {
      emit('\n');
      // While a rollout clone's body is CoW-lazy its blocks still live in
      // the source function; name, signature, attributes and body are all
      // bit-identical by construction, so printing the source *is* printing
      // this function, without forcing a deep copy. This keeps
      // fingerprinting an unmutated clone (the EvalService cache-hit path)
      // allocation-free on the IR side.
      function(*module.function(i)->reading_body());
    }
  }

 private:
  /// Writes each part in turn: text and integers as text, a Type* as its
  /// name, a Value* as a typed operand ("i32 %x.4", "i32 -5", "i16* @t"),
  /// and a BasicBlock* as "%label".
  template <typename... Parts>
  void emit(const Parts&... parts) {
    (part(parts), ...);
  }
  void part(char c) { out_.put(c); }
  void part(std::string_view s) { out_.put(s); }
  template <std::integral Int>
  void part(Int value) {
    put_int(out_, value);
  }
  void part(const Type* type) {  // Type::to_string, written in place
    switch (type->kind()) {
      case TypeKind::kVoid: emit("void"); return;
      case TypeKind::kInt: emit('i', type->bits()); return;
      case TypeKind::kPointer: emit(type->pointee(), '*'); return;
    }
    emit('?');
  }
  void part(const BasicBlock* bb) {
    out_.put('%');
    label(out_, bb->name(), slot(bb));
  }
  void part(const Value* v) {
    switch (v->value_kind()) {
      case ValueKind::kConstantInt:
        emit(v->type(), ' ', static_cast<const ConstantInt*>(v)->value());
        return;
      case ValueKind::kUndef: emit(v->type(), " undef"); return;
      case ValueKind::kGlobalVariable: emit(v->type(), " @", v->name()); return;
      default: break;
    }
    emit(v->type(), " %");
    label(out_, v->name(), slot(v));
  }

  /// Per-function slot numbers. The printed label of a node is its user
  /// name suffixed with its slot (names are kept but need not be unique
  /// after name-mangling passes), or the bare slot when unnamed. Arguments
  /// take the first slots, then the non-void instructions in block order;
  /// blocks count separately, by position.
  void number(const Function& f) {
    function_ = &f;
    inst_slots_.reset(f, kMissing);
    block_slots_.reset(f, kMissing);
    auto slot = static_cast<std::uint32_t>(f.arg_count());
    for (std::size_t b = 0; b < f.block_count(); ++b) {
      const BasicBlock* bb = f.block(b);
      block_slots_[bb] = static_cast<std::uint32_t>(b);
      for (std::size_t i = 0; i < bb->size(); ++i) {
        const Instruction* inst = bb->inst(i);
        if (!inst->type()->is_void()) inst_slots_[inst] = slot++;
      }
    }
  }

  /// The slot of an argument or instruction operand; kMissing for one of
  /// another function or an unlinked instruction.
  [[nodiscard]] std::uint32_t slot(const Value* v) const {
    if (const Instruction* inst = as_instruction(v)) return inst_slots_.find(inst);
    const auto* arg = static_cast<const Argument*>(v);
    return arg->parent() == function_ ? arg->index() : kMissing;
  }
  [[nodiscard]] std::uint32_t slot(const BasicBlock* bb) const { return block_slots_.find(bb); }

  template <typename To>
  void label(To& to, const std::string& name, std::uint32_t slot) const {
    if (slot == kMissing) {
      to.put('?');
      return;
    }
    if (!name.empty()) {
      to.put(name);
      to.put('.');
    }
    put_int(to, slot);
  }

  void function(const Function& f) {
    number(f);
    emit("define ", f.return_type(), " @", f.name(), '(');
    for (std::size_t i = 0; i < f.arg_count(); ++i) emit(i == 0 ? "" : ", ", f.arg(i));
    emit(')');
    const auto& attrs = f.attrs();
    if (attrs.readnone) emit(" readnone");
    if (attrs.readonly) emit(" readonly");
    if (attrs.nounwind) emit(" nounwind");
    emit(" {\n");
    for (std::size_t b = 0; b < f.block_count(); ++b) {
      const BasicBlock* bb = f.block(b);
      label(out_, bb->name(), slot(bb));
      emit(':');
      predecessors(*bb);
      emit('\n');
      for (std::size_t i = 0; i < bb->size(); ++i) instruction(*bb->inst(i));
    }
    emit("}\n");
  }

  void predecessors(const BasicBlock& bb) {
    const auto& preds = bb.predecessors();
    if (preds.empty()) return;
    emit("  ; preds:");
    // Sorted by label text so the print (and hence the module fingerprint)
    // does not depend on predecessor-list bookkeeping order, which cloning
    // and edge rewiring legitimately permute.
    pred_text_.clear();
    pred_ends_.clear();
    StringSink text(pred_text_);
    for (const BasicBlock* p : preds) {
      label(text, p->name(), slot(p));
      pred_ends_.push_back(pred_text_.size());
    }
    pred_labels_.clear();
    std::size_t begin = 0;
    for (const std::size_t end : pred_ends_) {
      pred_labels_.emplace_back(pred_text_.data() + begin, end - begin);
      begin = end;
    }
    std::sort(pred_labels_.begin(), pred_labels_.end());
    for (const std::string_view p : pred_labels_) emit(' ', p);
  }

  void instruction(const Instruction& inst) {
    emit("  ");
    if (!inst.type()->is_void()) {
      emit('%');
      label(out_, inst.name(), slot(&inst));
      emit(" = ");
    }
    switch (inst.opcode()) {
      case Opcode::kICmp:
        emit("icmp ", icmp_pred_name(inst.icmp_pred()), ' ', inst.operand(0), ", ",
             inst.operand(1));
        break;
      case Opcode::kAlloca:
        emit("alloca ", inst.allocated_type(), ", count ", inst.alloca_count());
        break;
      case Opcode::kPhi:
        emit("phi ", inst.type());
        for (std::size_t i = 0; i < inst.incoming_count(); ++i) {
          emit(i == 0 ? " [ " : ", [ ", inst.incoming_value(i), ", ", inst.incoming_block(i),
               " ]");
        }
        break;
      case Opcode::kCall:
        emit("call @", inst.callee()->name(), '(');
        for (std::size_t i = 0; i < inst.operand_count(); ++i) {
          emit(i == 0 ? "" : ", ", inst.operand(i));
        }
        emit(')');
        break;
      case Opcode::kBr: emit("br label ", inst.successor(0)); break;
      case Opcode::kCondBr:
        emit("condbr ", inst.operand(0), ", label ", inst.successor(0), ", label ",
             inst.successor(1));
        break;
      case Opcode::kSwitch:
        emit("switch ", inst.operand(0), ", default ", inst.successor(0), " [");
        for (std::size_t c = 0; c < inst.switch_case_count(); ++c) {
          emit(c == 0 ? "" : ", ", static_cast<const ConstantInt*>(inst.operand(1 + c))->value(),
               " -> ", inst.successor(1 + c));
        }
        emit(']');
        break;
      case Opcode::kRet:
        emit("ret");
        if (inst.operand_count() > 0) emit(' ', inst.operand(0));
        break;
      default:
        emit(opcode_name(inst.opcode()));
        if (inst.is_cast()) emit(" to ", inst.type());
        for (std::size_t i = 0; i < inst.operand_count(); ++i) {
          emit(i == 0 ? " " : ", ", inst.operand(i));
        }
        break;
    }
    emit('\n');
  }

  static constexpr std::uint32_t kMissing = ~std::uint32_t{0};

  Sink& out_;
  const Function* function_ = nullptr;
  IdTable<Instruction, std::uint32_t> inst_slots_;
  IdTable<BasicBlock, std::uint32_t> block_slots_;
  // Scratch for sorting one block's predecessor labels, reused across blocks.
  std::string pred_text_;
  std::vector<std::size_t> pred_ends_;
  std::vector<std::string_view> pred_labels_;
};

}  // namespace

std::string print_module(const Module& module) {
  std::string text;
  StringSink sink(text);
  Printer<StringSink>(sink).print(module);
  return text;
}

std::uint64_t module_fingerprint(const Module& module) {
  FnvSink sink;
  Printer<FnvSink>(sink).print(module);
  return sink.hash();
}

std::uint64_t module_ir_size(const Module& module) {
  std::uint64_t size = 0;
  for (std::size_t i = 0; i < module.function_count(); ++i) {
    // Same CoW read-through as the printer: sizing an unmutated rollout
    // clone walks the source body instead of materializing a copy.
    size += body_size(*module.function(i)->reading_body());
  }
  return size;
}

}  // namespace autophase::ir
