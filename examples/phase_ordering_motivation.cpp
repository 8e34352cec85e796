// The paper's motivating example (Figs. 1-3): applying LICM before inlining
// keeps the O(n) form — the call to the pure `mag` function is hoisted out
// of the loop — while inlining first buries the reduction loop inside the
// caller's loop where LICM can no longer rescue it, leaving O(n^2).
//
// This example builds `norm`/`mag` in IR, applies the two orders, and shows
// the cycle counts diverging, i.e. phase ordering changing the asymptotics
// of the generated circuit.
#include <cstdio>

#include "core/autophase.hpp"
#include "ir/builder.hpp"
#include "ir/clone.hpp"
#include "passes/pass.hpp"
#include "progen/codegen.hpp"
#include "runtime/eval_service.hpp"

namespace {

using namespace autophase;
using ir::Type;
using ir::Value;

/// mag(n) = sum of A[i]*A[i] over a constant (ROM) input vector — the
/// paper's `__attribute__((const))` mag; -functionattrs can prove it pure.
/// norm: out[i] = in[i] / mag(n) for each i.
std::unique_ptr<ir::Module> build_norm_program(std::int64_t n) {
  auto m = std::make_unique<ir::Module>("norm");
  Type* i32 = Type::i32();

  std::vector<std::int64_t> rom;
  for (std::int64_t i = 0; i < 64; ++i) rom.push_back((i * 7 + 3) % 23);
  ir::GlobalVariable* vec = m->create_global(i32, 64, "A", std::move(rom), true);

  ir::Function* mag = m->create_function("mag", i32, {i32}, {"n"});
  {
    progen::CodeGen g(*m, *mag);
    Value* sum = g.local_i32("sum");
    Value* i = g.local_i32("i");
    g.set(sum, 0);
    g.count_loop(i, m->get_i32(0), mag->arg(0), 1, [&] {
      Value* a = g.get(g.elem_masked(vec, g.get(i), 64));
      g.set(sum, g.b().add(g.get(sum), g.b().mul(a, a)));
    });
    g.ret(g.b().or_(g.get(sum), m->get_i32(1)));  // avoid div-by-zero
  }

  ir::Function* main_fn = m->create_function("main", i32, {});
  {
    progen::CodeGen g(*m, *main_fn);
    Value* in = g.array(i32, 64, "in");
    Value* out = g.array(i32, 64, "out");
    Value* i = g.local_i32("i");
    g.count_loop(i, 0, n, [&] {
      g.set(g.elem(in, g.get(i)), g.b().add(g.get(i), m->get_i32(3)));
    });
    // norm loop: out[i] = in[i] / mag(n) — the mag() call is loop-invariant!
    g.count_loop(i, 0, n, [&] {
      Value* magnitude = g.b().call(mag, {m->get_i32(n)});
      Value* x = g.get(g.elem(in, g.get(i)));
      g.set(g.elem(out, g.get(i)), g.b().sdiv(x, magnitude));
    });
    Value* acc = g.local_i32("acc");
    g.set(acc, 0);
    g.count_loop(i, 0, n, [&] {
      g.set(acc, g.b().add(g.get(acc), g.get(g.elem(out, g.get(i)))));
    });
    g.ret(g.get(acc));
  }
  return m;
}

std::uint64_t cycles_after(const ir::Module& program, const std::vector<const char*>& names) {
  auto working = ir::clone_module(program);
  for (const char* name : names) {
    passes::apply_pass(*working, passes::PassRegistry::instance().index_of(name));
  }
  return runtime::EvalService().measure(*working).cycles;
}

}  // namespace

int main() {
  auto program = build_norm_program(48);
  std::printf("vector-normalisation program (paper Figs. 1-3), n = 48\n\n");

  const std::uint64_t o0 = cycles_after(*program, {});
  // Order A: functionattrs marks mag() readnone -> LICM hoists the call out
  // of the norm loop -> THEN inline the (now once-executed) call.
  const std::uint64_t licm_first = cycles_after(
      *program,
      {"-mem2reg", "-loop-simplify", "-functionattrs", "-licm", "-inline", "-simplifycfg"});
  // Order B: inline first buries mag's loop inside the norm loop; LICM can
  // only hoist scalars, not the whole inner reduction -> O(n^2) remains.
  const std::uint64_t inline_first = cycles_after(
      *program,
      {"-mem2reg", "-loop-simplify", "-inline", "-functionattrs", "-licm", "-simplifycfg"});

  std::printf("  -O0 (no passes):              %8llu cycles\n",
              static_cast<unsigned long long>(o0));
  std::printf("  LICM before inline (Fig. 2):  %8llu cycles   <- call hoisted, O(n)\n",
              static_cast<unsigned long long>(licm_first));
  std::printf("  inline before LICM (Fig. 3):  %8llu cycles   <- loop buried, O(n^2)\n",
              static_cast<unsigned long long>(inline_first));
  std::printf("\nsame passes, different order: %.1fx difference in circuit speed.\n",
              static_cast<double>(inline_first) / static_cast<double>(licm_first));
  return 0;
}
