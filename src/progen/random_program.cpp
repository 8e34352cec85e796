#include "progen/random_program.hpp"

#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "ir/verifier.hpp"
#include "progen/codegen.hpp"
#include "support/rng.hpp"

namespace autophase::progen {

namespace {

// Shape limits of a generated program.
constexpr int kMaxHelpers = 3;        ///< helper functions besides main
constexpr int kMaxLoopDepth = 3;      ///< loop nesting cap
constexpr int kMaxStmtsPerBlock = 6;  ///< statements per structured region
constexpr int kMaxExprDepth = 3;
constexpr std::int64_t kMaxTripCount = 16;        ///< per-loop bound
constexpr std::int64_t kMaxDynamicWeight = 4096;  ///< product of enclosing trip counts

using ir::Function;
using ir::ICmpPred;
using ir::Opcode;
using ir::Type;
using ir::Value;

/// `prefix` followed by `n` in decimal. Appending, unlike
/// `"x" + std::to_string(n)`, keeps GCC 12's -O3 -Wrestrict false positive
/// on the inlined std::string insert away.
template <typename Int>
std::string numbered(std::string prefix, Int n) {
  prefix += std::to_string(n);
  return prefix;
}

class ProgramGenerator {
 public:
  ProgramGenerator(const GeneratorConfig& config)
      : rng_(config.seed),
        module_(std::make_unique<ir::Module>(numbered("rand", config.seed))) {}

  std::unique_ptr<ir::Module> generate() {
    // Optional constant lookup table (ROM), used by some expressions.
    if (rng_.chance(0.6)) {
      std::vector<std::int64_t> init;
      const std::size_t n = 1u << rng_.uniform_int(3, 5);  // 8..32 entries
      for (std::size_t i = 0; i < n; ++i) init.push_back(rng_.uniform_int(-128, 127));
      rom_ = module_->create_global(Type::i32(), n, "lut", std::move(init),
                                    /*is_constant_data=*/true);
      rom_size_ = n;
    }

    const int helper_count = static_cast<int>(rng_.uniform_int(0, kMaxHelpers));
    for (int i = 0; i < helper_count; ++i) emit_helper(i);
    emit_main();
    return std::move(module_);
  }

 private:
  struct Scope {
    std::vector<Value*> scalars;                        // i32* allocas
    std::vector<std::pair<Value*, std::size_t>> arrays; // (i32* alloca, pow2 size)
  };

  Rng rng_;
  std::unique_ptr<ir::Module> module_;
  std::vector<Function*> helpers_;
  ir::GlobalVariable* rom_ = nullptr;
  std::size_t rom_size_ = 0;

  // Per-function generation state.
  CodeGen* g_ = nullptr;
  Scope scope_;
  int loop_depth_ = 0;
  std::int64_t dynamic_weight_ = 1;
  int var_id_ = 0;

  Value* c32(std::int64_t v) { return module_->get_i32(v); }

  Value* random_constant() {
    switch (rng_.uniform_int(0, 4)) {
      case 0: return c32(0);
      case 1: return c32(1);
      case 2: return c32(1LL << rng_.uniform_int(1, 6));
      case 3: return c32(rng_.uniform_int(-16, 16));
      default: return c32(rng_.uniform_int(-1024, 1024));
    }
  }

  Value* gen_expr(int depth) {
    auto& b = g_->b();
    if (depth <= 0 || rng_.chance(0.3)) {
      // Leaf.
      const int kind = static_cast<int>(rng_.uniform_int(0, 3));
      if (kind == 0 && !scope_.scalars.empty()) {
        return g_->get(rng_.pick(scope_.scalars));
      }
      if (kind == 1 && !scope_.arrays.empty()) {
        const auto& [arr, size] = rng_.pick(scope_.arrays);
        return g_->get(g_->elem_masked(arr, gen_expr(0), size));
      }
      if (kind == 2 && rom_ != nullptr) {
        return g_->get(g_->elem_masked(rom_, gen_expr(0), rom_size_));
      }
      return random_constant();
    }
    switch (rng_.uniform_int(0, 9)) {
      case 0: return b.add(gen_expr(depth - 1), gen_expr(depth - 1));
      case 1: return b.sub(gen_expr(depth - 1), gen_expr(depth - 1));
      case 2: return b.mul(gen_expr(depth - 1), gen_expr(depth - 1));
      case 3: return b.and_(gen_expr(depth - 1), gen_expr(depth - 1));
      case 4: return b.or_(gen_expr(depth - 1), gen_expr(depth - 1));
      case 5: return b.xor_(gen_expr(depth - 1), gen_expr(depth - 1));
      case 6: {
        // Bounded shift amount.
        Value* amount = b.and_(gen_expr(depth - 1), c32(15));
        return rng_.chance(0.5) ? b.shl(gen_expr(depth - 1), amount)
                                : b.lshr(gen_expr(depth - 1), amount);
      }
      case 7: {
        // Division / remainder (defined semantics even for zero divisors).
        Value* divisor = gen_expr(depth - 1);
        return rng_.chance(0.5) ? b.sdiv(gen_expr(depth - 1), divisor)
                                : b.urem(gen_expr(depth - 1), divisor);
      }
      case 8: {
        Value* cond = b.icmp(random_pred(), gen_expr(depth - 1), gen_expr(depth - 1));
        return b.select(cond, gen_expr(depth - 1), gen_expr(depth - 1));
      }
      default: {
        // Width round-trip (exercises cast features and combine rules).
        Type* narrow = rng_.chance(0.5) ? Type::i8() : Type::i16();
        Value* t = b.trunc(gen_expr(depth - 1), narrow);
        return rng_.chance(0.5) ? b.sext(t, Type::i32()) : b.zext(t, Type::i32());
      }
    }
  }

  ICmpPred random_pred() {
    static constexpr ICmpPred kPreds[] = {ICmpPred::kEq,  ICmpPred::kNe,  ICmpPred::kSlt,
                                          ICmpPred::kSle, ICmpPred::kSgt, ICmpPred::kSge,
                                          ICmpPred::kUlt, ICmpPred::kUgt};
      return kPreds[rng_.uniform_int(0, 7)];
  }

  Value* call_helper() {
    Function* callee = rng_.pick(helpers_);
    std::vector<Value*> args;
    for (std::size_t i = 0; i < callee->arg_count(); ++i) args.push_back(gen_expr(1));
    return g_->b().call(callee, std::move(args));
  }

  void gen_stmt(int depth) {
    auto& b = g_->b();
    const int choice = static_cast<int>(rng_.uniform_int(0, 9));
    switch (choice) {
      case 0:
      case 1: {  // scalar assignment
        if (scope_.scalars.empty()) break;
        g_->set(rng_.pick(scope_.scalars), gen_expr(kMaxExprDepth));
        break;
      }
      case 2: {  // array store
        if (scope_.arrays.empty()) break;
        const auto& [arr, size] = rng_.pick(scope_.arrays);
        g_->set(g_->elem_masked(arr, gen_expr(1), size), gen_expr(kMaxExprDepth));
        break;
      }
      case 3: {  // if-then
        Value* cond = b.icmp(random_pred(), gen_expr(1), gen_expr(1));
        g_->if_then(cond, [&] { gen_block(depth - 1); });
        break;
      }
      case 4: {  // if-then-else
        Value* cond = b.icmp(random_pred(), gen_expr(1), gen_expr(1));
        g_->if_then_else(cond, [&] { gen_block(depth - 1); }, [&] { gen_block(depth - 1); });
        break;
      }
      case 5:
      case 6: {  // bounded loop
        if (loop_depth_ >= kMaxLoopDepth) break;
        const std::int64_t trips = rng_.uniform_int(2, kMaxTripCount);
        if (dynamic_weight_ * trips > kMaxDynamicWeight) break;
        Value* iv = g_->local_i32(numbered("i", var_id_++));
        scope_.scalars.push_back(iv);
        ++loop_depth_;
        dynamic_weight_ *= trips;
        g_->count_loop(iv, 0, trips, [&] { gen_block(depth - 1); });
        dynamic_weight_ /= trips;
        --loop_depth_;
        break;
      }
      case 7: {  // switch
        std::vector<std::pair<std::int64_t, CodeGen::BodyFn>> cases;
        const int n = static_cast<int>(rng_.uniform_int(2, 4));
        for (int i = 0; i < n; ++i) {
          cases.emplace_back(i, [this, depth] { gen_block(depth - 1); });
        }
        Value* sel = b.and_(gen_expr(1), c32(7));
        g_->switch_cases(sel, cases, [this, depth] { gen_block(depth - 1); });
        break;
      }
      case 8: {  // helper call
        if (helpers_.empty() || scope_.scalars.empty()) break;
        g_->set(rng_.pick(scope_.scalars), call_helper());
        break;
      }
      default: {  // accumulate into a scalar
        if (scope_.scalars.empty()) break;
        Value* ptr = rng_.pick(scope_.scalars);
        g_->set(ptr, b.add(g_->get(ptr), gen_expr(2)));
        break;
      }
    }
  }

  void gen_block(int depth) {
    if (depth < 0) return;
    const int stmts = static_cast<int>(rng_.uniform_int(1, kMaxStmtsPerBlock));
    for (int i = 0; i < stmts; ++i) gen_stmt(depth);
  }

  void setup_scope(int scalars, int arrays) {
    scope_ = Scope{};
    var_id_ = 0;
    for (int i = 0; i < scalars; ++i) {
      Value* v = g_->local_i32(numbered("v", var_id_++));
      g_->set(v, rng_.uniform_int(-64, 64));
      scope_.scalars.push_back(v);
    }
    for (int i = 0; i < arrays; ++i) {
      const std::size_t size = 1u << rng_.uniform_int(3, 6);  // 8..64
      Value* a = g_->array(Type::i32(), size, numbered("a", var_id_++));
      scope_.arrays.emplace_back(a, size);
      // Initialise with a tiny fill loop so reads are deterministic even
      // before any optimisation.
      Value* iv = g_->local_i32(numbered("ii", var_id_++));
      g_->count_loop(iv, 0, static_cast<std::int64_t>(size), [&] {
        Value* i_val = g_->get(iv);
        g_->set(g_->elem_masked(scope_.arrays.back().first, i_val, size),
                g_->b().mul(i_val, c32(rng_.uniform_int(1, 9))));
      });
    }
  }

  void emit_helper(int index) {
    const int params = static_cast<int>(rng_.uniform_int(1, 3));
    std::vector<Type*> param_types(static_cast<std::size_t>(params), Type::i32());
    Function* f = module_->create_function(numbered("helper", index), Type::i32(), param_types);
    CodeGen g(*module_, *f);
    g_ = &g;
    loop_depth_ = 0;
    dynamic_weight_ = 4;  // helpers may be called from loops; keep them lean
    setup_scope(static_cast<int>(rng_.uniform_int(1, 3)), rng_.chance(0.3) ? 1 : 0);

    // Copy parameters into locals (the O0 way).
    std::vector<Value*> param_ptrs;
    for (int i = 0; i < params; ++i) {
      Value* p = g.local_i32(numbered("p", i));
      g.set(p, f->arg(static_cast<std::size_t>(i)));
      param_ptrs.push_back(p);
      scope_.scalars.push_back(p);
    }

    // Early-return guard pattern (partial-inliner / branch-folding bait).
    if (rng_.chance(0.4)) {
      Value* cond = g.b().icmp_eq(g.get(param_ptrs[0]), c32(0));
      g.if_then(cond, [&] { /* fallthrough guard: result stays initial */ });
      // Re-written as an explicit early return shape:
    }

    gen_block(2);

    Value* acc = scope_.scalars.front();
    for (Value* s : scope_.scalars) {
      g.set(acc, g.b().xor_(g.get(acc), g.get(s)));
    }
    g.ret(g.get(acc));
    helpers_.push_back(f);
    g_ = nullptr;
  }

  void emit_main() {
    Function* f = module_->create_function("main", Type::i32(), {});
    CodeGen g(*module_, *f);
    g_ = &g;
    loop_depth_ = 0;
    dynamic_weight_ = 1;
    setup_scope(static_cast<int>(rng_.uniform_int(3, 7)),
                static_cast<int>(rng_.uniform_int(1, 3)));

    gen_block(3);

    // Checksum: mix all scalars and array contents into the return value.
    Value* sum = g.local_i32("checksum");
    g.set(sum, 0);
    for (Value* s : scope_.scalars) {
      g.set(sum, g.b().add(g.b().mul(g.get(sum), c32(31)), g.get(s)));
    }
    for (const auto& [arr, size] : scope_.arrays) {
      Value* iv = g.local_i32(numbered("ci", var_id_++));
      g.count_loop(iv, 0, static_cast<std::int64_t>(size), [&] {
        Value* v = g.get(g.elem_masked(arr, g.get(iv), size));
        g.set(sum, g.b().xor_(g.b().add(g.get(sum), g.get(sum)), v));
      });
    }
    g.ret(g.get(sum));
    g_ = nullptr;
  }
};

}  // namespace

std::unique_ptr<ir::Module> generate_random_program(const GeneratorConfig& config) {
  ProgramGenerator gen(config);
  return gen.generate();
}

std::unique_ptr<ir::Module> generate_filtered_program(std::uint64_t seed) {
  SplitMix64 reseeder(seed);
  for (int attempt = 0; attempt < 64; ++attempt) {
    GeneratorConfig config;
    config.seed = attempt == 0 ? seed : reseeder.next();
    auto module = generate_random_program(config);
    if (!ir::verify_module(*module).is_ok()) continue;
    interp::InterpreterOptions opts;
    opts.max_instructions = 2'000'000;  // the paper's "five minutes on CPU" filter
    auto run = interp::run_module(*module, opts);
    if (!run.is_ok()) continue;
    return module;
  }
  // Fall back to a minimal safe program (cannot fail).
  auto module = std::make_unique<ir::Module>(numbered("fallback", seed));
  Function* f = module->create_function("main", Type::i32(), {});
  CodeGen g(*module, *f);
  Value* v = g.local_i32("v");
  g.set(v, static_cast<std::int64_t>(seed & 0xff));
  Value* iv = g.local_i32("i");
  g.count_loop(iv, 0, 8, [&] { g.set(v, g.b().add(g.get(v), g.get(iv))); });
  g.ret(g.get(v));
  return module;
}

}  // namespace autophase::progen
