#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "progen/chstone_like.hpp"
#include "progen/codegen.hpp"
#include "serve/module_codec.hpp"
#include "support/rng.hpp"

namespace autophase {
namespace {

using interp::run_module;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Type;
using ir::Value;

std::unique_ptr<Module> straightline(std::function<Value*(IRBuilder&, Module&)> body) {
  auto m = std::make_unique<Module>("t");
  Function* f = m->create_function("main", Type::i32(), {});
  ir::BasicBlock* bb = f->create_block("entry");
  IRBuilder b(*m);
  b.set_insert_point(bb);
  Value* result = body(b, *m);
  b.ret(result);
  return m;
}

TEST(Interp, Arithmetic) {
  auto m = straightline([](IRBuilder& b, Module& m) {
    Value* x = b.add(m.get_i32(20), m.get_i32(22));
    return b.mul(x, m.get_i32(2));
  });
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok()) << r.message();
  EXPECT_EQ(r.value().return_value, 84);
}

TEST(Interp, DivisionByZeroIsZero) {
  auto m = straightline([](IRBuilder& b, Module& m) {
    Value* d = b.sdiv(m.get_i32(5), m.get_i32(0));
    Value* r = b.srem(m.get_i32(5), m.get_i32(0));
    return b.add(d, r);
  });
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().return_value, 0);
}

TEST(Interp, NarrowWidthWraps) {
  auto m = straightline([](IRBuilder& b, Module& m) {
    Value* t = b.trunc(m.get_i32(200), Type::i8());
    Value* doubled = b.add(t, t);  // 400 wraps in i8 -> -112
    return b.sext(doubled, Type::i32());
  });
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().return_value, static_cast<std::int8_t>(400));
}

TEST(Interp, ZextVsSext) {
  auto m = straightline([](IRBuilder& b, Module& m) {
    Value* t = b.trunc(m.get_i32(-1), Type::i8());
    Value* z = b.zext(t, Type::i32());  // 255
    Value* s = b.sext(t, Type::i32());  // -1
    return b.add(z, s);
  });
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().return_value, 254);
}

TEST(Interp, MemoryRoundTrip) {
  auto m = std::make_unique<Module>("mem");
  Function* f = m->create_function("main", Type::i32(), {});
  progen::CodeGen g(*m, *f);
  Value* arr = g.array(Type::i16(), 8, "a");
  Value* i = g.local_i32("i");
  g.count_loop(i, 0, 8, [&] {
    Value* v = g.b().trunc(g.b().mul(g.get(i), m->get_i32(3)), Type::i16());
    g.b().store(v, g.b().gep(arr, g.get(i)));
  });
  Value* sum = g.local_i32("sum");
  g.set(sum, 0);
  g.count_loop(i, 0, 8, [&] {
    Value* v = g.b().sext(g.b().load(g.b().gep(arr, g.get(i))), Type::i32());
    g.set(sum, g.b().add(g.get(sum), v));
  });
  g.ret(g.get(sum));
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok()) << r.message();
  EXPECT_EQ(r.value().return_value, 3 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(Interp, GlobalInitAndChecksumChange) {
  auto m = std::make_unique<Module>("g");
  ir::GlobalVariable* glob = m->create_global(Type::i32(), 4, "g", {10, 20, 30, 40}, false);
  Function* f = m->create_function("main", Type::i32(), {});
  progen::CodeGen g(*m, *f);
  Value* v0 = g.get(g.elem(glob, 0));
  Value* v3 = g.get(g.elem(glob, 3));
  g.set(g.elem(glob, 1), g.b().add(v0, v3));
  g.ret(g.b().add(v0, v3));
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().return_value, 50);

  // A module that stores a different value must produce a different
  // global-memory checksum.
  auto m2 = std::make_unique<Module>("g2");
  ir::GlobalVariable* glob2 = m2->create_global(Type::i32(), 4, "g", {10, 20, 30, 40}, false);
  Function* f2 = m2->create_function("main", Type::i32(), {});
  progen::CodeGen g2(*m2, *f2);
  Value* w0 = g2.get(g2.elem(glob2, 0));
  Value* w3 = g2.get(g2.elem(glob2, 3));
  g2.set(g2.elem(glob2, 1), g2.b().mul(w0, w3));
  g2.ret(g2.b().add(w0, w3));
  auto r2 = run_module(*m2);
  ASSERT_TRUE(r2.is_ok());
  EXPECT_NE(r.value().memory_checksum, r2.value().memory_checksum);
}

TEST(Interp, CallsAndProfile) {
  auto m = std::make_unique<Module>("call");
  Function* callee = m->create_function("sq", Type::i32(), {Type::i32()}, {"x"});
  {
    ir::BasicBlock* bb = callee->create_block("entry");
    IRBuilder b(*m);
    b.set_insert_point(bb);
    b.ret(b.mul(callee->arg(0), callee->arg(0)));
  }
  Function* f = m->create_function("main", Type::i32(), {});
  progen::CodeGen g(*m, *f);
  Value* acc = g.local_i32("acc");
  Value* i = g.local_i32("i");
  g.set(acc, 0);
  g.count_loop(i, 0, 5, [&] {
    g.set(acc, g.b().add(g.get(acc), g.b().call(callee, {g.get(i)})));
  });
  g.ret(g.get(acc));
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().return_value, 0 + 1 + 4 + 9 + 16);
  // Callee entry executed 5 times, once per call.
  const auto& counts = r.value().profile.block_counts;
  const auto entry = std::find_if(counts.begin(), counts.end(),
                                  [&](const auto& bc) { return bc.first == callee->entry(); });
  ASSERT_NE(entry, counts.end());
  EXPECT_EQ(entry->second, 5u);
}

TEST(Interp, BudgetAborts) {
  // while(true) loop.
  auto m = std::make_unique<Module>("inf");
  Function* f = m->create_function("main", Type::i32(), {});
  ir::BasicBlock* entry = f->create_block("entry");
  ir::BasicBlock* loop = f->create_block("loop");
  IRBuilder b(*m);
  b.set_insert_point(entry);
  b.br(loop);
  b.set_insert_point(loop);
  b.br(loop);
  interp::InterpreterOptions opts;
  opts.max_instructions = 10'000;
  auto r = run_module(*m, opts);
  EXPECT_FALSE(r.is_ok());
}

TEST(Interp, OutOfBoundsAborts) {
  auto m = std::make_unique<Module>("oob");
  Function* f = m->create_function("main", Type::i32(), {});
  progen::CodeGen g(*m, *f);
  Value* arr = g.array(Type::i32(), 4, "a");
  // Store far outside the arena.
  Value* bad = g.b().gep(arr, m->get_i64(1 << 30));
  g.b().store(m->get_i32(1), bad);
  g.ret(0);
  auto r = run_module(*m);
  EXPECT_FALSE(r.is_ok());
}

TEST(Interp, MemSetAndMemCpy) {
  auto m = std::make_unique<Module>("memops");
  Function* f = m->create_function("main", Type::i32(), {});
  progen::CodeGen g(*m, *f);
  Value* a = g.array(Type::i32(), 8, "a");
  Value* c = g.array(Type::i32(), 8, "c");
  g.b().mem_set(a, m->get_i32(7), m->get_i64(8));
  g.b().mem_cpy(c, a, m->get_i64(8));
  Value* sum = g.local_i32("sum");
  Value* i = g.local_i32("i");
  g.set(sum, 0);
  g.count_loop(i, 0, 8, [&] {
    g.set(sum, g.b().add(g.get(sum), g.get(g.elem(c, g.get(i)))));
  });
  g.ret(g.get(sum));
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok()) << r.message();
  EXPECT_EQ(r.value().return_value, 56);
  EXPECT_EQ(r.value().profile.mem_intrinsic_elems.size(), 2u);
}

TEST(Interp, SwitchDispatch) {
  auto m = std::make_unique<Module>("sw");
  Function* f = m->create_function("main", Type::i32(), {});
  progen::CodeGen g(*m, *f);
  Value* out = g.local_i32("out");
  Value* i = g.local_i32("i");
  g.set(out, 0);
  g.count_loop(i, 0, 6, [&] {
    g.switch_cases(g.get(i),
                   {{0, [&] { g.set(out, g.b().add(g.get(out), m->get_i32(1))); }},
                    {1, [&] { g.set(out, g.b().add(g.get(out), m->get_i32(10))); }},
                    {3, [&] { g.set(out, g.b().add(g.get(out), m->get_i32(100))); }}},
                   [&] { g.set(out, g.b().add(g.get(out), m->get_i32(1000))); });
  });
  g.ret(g.get(out));
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().return_value, 1 + 10 + 1000 + 100 + 1000 + 1000);
}

TEST(Interp, KernelsAllRunDeterministically) {
  for (const auto& name : progen::chstone_benchmark_names()) {
    auto m1 = progen::build_chstone_like(name);
    auto m2 = progen::build_chstone_like(name);
    auto r1 = run_module(*m1);
    auto r2 = run_module(*m2);
    ASSERT_TRUE(r1.is_ok()) << name << ": " << r1.message();
    ASSERT_TRUE(r2.is_ok()) << name;
    EXPECT_EQ(r1.value().return_value, r2.value().return_value) << name;
    EXPECT_EQ(r1.value().memory_checksum, r2.value().memory_checksum) << name;
    EXPECT_GT(r1.value().instructions_executed, 100u) << name << " looks trivial";
  }
}

TEST(Interp, QsortActuallySorts) {
  auto m = progen::build_chstone_like("qsort");
  auto r = run_module(*m);
  ASSERT_TRUE(r.is_ok());
  // main returns ok * 1000003 + checksum with ok==1 when sorted.
  EXPECT_GE(r.value().return_value, 1000003);
}

// ---------------------------------------------------------------------------
// Hostile sizes. Every byte size the interpreter bounds-checks is computed
// without overflow, so a huge count is out of bounds, never a product that
// wrapped to something small.
// ---------------------------------------------------------------------------

std::unique_ptr<Module> mem_intrinsic_on_small_array(ir::Opcode op, std::int64_t count) {
  return straightline([&](IRBuilder& b, Module& m) {
    Value* p = b.alloca_array(Type::i64(), 4, "p");
    if (op == ir::Opcode::kMemSet) {
      b.mem_set(p, m.get_i64(7), m.get_i64(count));
    } else {
      b.mem_cpy(p, p, m.get_i64(count));
    }
    return m.get_i32(0);
  });
}

TEST(Interp, MemSetByteSizeOverflowIsOutOfBounds) {
  // 2^62 i64 elements is 2^65 bytes, which wraps to 0 if multiplied first.
  auto r = run_module(*mem_intrinsic_on_small_array(ir::Opcode::kMemSet, std::int64_t{1} << 62));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.message(), "interpreter: out-of-bounds memset");
}

TEST(Interp, MemCpyByteSizeOverflowIsOutOfBounds) {
  auto r = run_module(*mem_intrinsic_on_small_array(ir::Opcode::kMemCpy, std::int64_t{1} << 62));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.message(), "interpreter: out-of-bounds memcpy");
}

TEST(Interp, AllocaByteSizeOverflowIsStackOverflow) {
  // 2^61 i64 elements is 2^64 bytes: 0 once wrapped.
  auto m = straightline([](IRBuilder& b, Module& m) {
    Value* p = b.alloca_array(Type::i64(), std::size_t{1} << 61, "p");
    b.store(m.get_i64(1), p);
    return m.get_i32(0);
  });
  auto r = run_module(*m);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.message(), "interpreter: stack overflow");
}

TEST(Interp, GlobalsPastTheArenaAreAnErrorNotAWrite) {
  // The module codec admits 2^28-element globals, so a remote compile
  // request can lay a global out past the 4 MiB arena; its initialiser must
  // never be written there.
  for (const std::size_t first_count : {std::size_t{5} << 20, std::size_t{1} << 28}) {
    auto m = std::make_unique<Module>("far");
    m->create_global(Type::i8(), first_count, "pad", {}, false);
    ir::GlobalVariable* far = m->create_global(Type::i64(), 1, "far", {42}, false);
    Function* f = m->create_function("main", Type::i32(), {});
    IRBuilder b(*m);
    b.set_insert_point(f->create_block("entry"));
    b.ret(b.trunc(b.load(far), Type::i32()));

    auto decoded = serve::deserialize_module(serve::serialize_module(*m));
    ASSERT_TRUE(decoded.is_ok()) << decoded.message();
    auto r = run_module(*decoded.value());
    ASSERT_FALSE(r.is_ok()) << first_count;
    EXPECT_EQ(r.message(), "interpreter: globals do not fit in the memory arena");
  }
}

TEST(Interp, VoidTypedValuesAreRejectedByTheCodec) {
  // The IR cannot build a void-typed load, so the hostile bytes are a
  // serialised i8 load through an i8* with one type byte patched to void.
  // A void-typed load defines a value with no register, which the
  // interpreter would write before its frame's slots; a void* is a type the
  // IR forbids. Either must be a clean rejection, never an abort.
  auto m = straightline([](IRBuilder& b, Module& m) {
    Value* p = b.bitcast(m.get_i64(100), Type::pointer_to(Type::i8()), "p");
    b.load(p, "v");
    return m.get_i32(0);
  });
  serve::ByteWriter payload;
  serve::write_module(payload, *m);
  const std::string bytes = payload.bytes();
  const auto type_byte_after = [&](ir::Opcode op, const std::string& name) {
    // Opcode, name, then the instruction's type; `name` is unique here.
    serve::ByteWriter head;
    head.u8(static_cast<std::uint8_t>(op));
    head.str(name);
    const std::size_t at = bytes.find(head.bytes());
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(bytes.find(head.bytes(), at + 1), std::string::npos);
    return at + head.bytes().size();
  };
  const std::size_t load_type = type_byte_after(ir::Opcode::kLoad, "v");
  const std::size_t cast_type = type_byte_after(ir::Opcode::kBitCast, "p");
  ASSERT_EQ(bytes[load_type], static_cast<char>(ir::TypeKind::kInt));
  ASSERT_EQ(bytes[cast_type], static_cast<char>(ir::TypeKind::kPointer));
  ASSERT_EQ(bytes[cast_type + 1], static_cast<char>(ir::TypeKind::kInt));

  for (const std::size_t patch : {load_type, cast_type + 1}) {
    std::string hostile = bytes;
    hostile[patch] = static_cast<char>(ir::TypeKind::kVoid);
    serve::ByteReader r(hostile);
    auto decoded = serve::read_module(r);
    ASSERT_FALSE(decoded.is_ok()) << "patched byte " << patch;
    EXPECT_NE(decoded.message().find("corrupt instruction type"), std::string::npos)
        << decoded.message();
  }
}

// Seeded hostile-module fuzz. Each case builds a small program whose sizes
// are drawn from the edges of every bounds check: memset/memcpy counts,
// alloca counts, GEP offsets and global element counts. The case crosses the
// module codec (the remote-compile trust boundary) and, if the codec admits
// it, is interpreted twice on this thread. Either run must yield a result or
// an error Status, never a crash (the sanitizer legs run this suite), and the
// two runs must agree, so a failed run cannot leak memory into the next.
// Each draw is an edge value a quarter to a third of the time and a benign
// one otherwise, so whole programs still run to completion often enough.
std::int64_t hostile_count(Rng& rng, std::size_t arena, std::size_t elem_size) {
  switch (rng.uniform_int(0, 15)) {
    case 0: return 0;
    case 1: return -1;
    case 2: return std::int64_t{1} << 62;
    case 3: return std::numeric_limits<std::int64_t>::max();
    // The smallest count whose byte size wraps past 2^64.
    case 4: return static_cast<std::int64_t>(~std::uint64_t{0} / elem_size + 1);
    case 5: return static_cast<std::int64_t>(arena / elem_size) + rng.uniform_int(-16, 1);
    case 6: return static_cast<std::int64_t>(rng.next());
    default: return rng.uniform_int(1, 64);
  }
}

std::int64_t hostile_offset(Rng& rng, std::size_t arena) {
  switch (rng.uniform_int(0, 15)) {
    case 0: return std::numeric_limits<std::int64_t>::min();
    case 1: return std::numeric_limits<std::int64_t>::max();
    case 2: return std::int64_t{1} << 61;
    case 3: return static_cast<std::int64_t>(arena) + rng.uniform_int(-16, 16);
    case 4: return static_cast<std::int64_t>(rng.next());
    default: return rng.uniform_int(-8, 64);
  }
}

std::size_t hostile_element_count(Rng& rng) {
  switch (rng.uniform_int(0, 11)) {
    case 0: return std::size_t{1} << 28;        // the codec's cap
    case 1: return (std::size_t{1} << 28) + 1;  // just past it
    case 2: return std::size_t{1} << 19;
    default: return static_cast<std::size_t>(rng.uniform_int(1, 64));
  }
}

std::unique_ptr<Module> hostile_module(Rng& rng, std::size_t arena) {
  static Type* const kTypes[] = {Type::i8(), Type::i16(), Type::i32(), Type::i64()};
  auto pick_type = [&] { return kTypes[rng.uniform_int(0, 3)]; };
  auto m = std::make_unique<Module>("hostile");
  auto widen = [&](IRBuilder& b, Value* v) {
    return v->type() == Type::i64() ? v : b.sext(v, Type::i64());
  };
  Type* gt = pick_type();
  const std::size_t g_count = hostile_element_count(rng);
  std::vector<std::int64_t> g_init = {1, 2, 3, 4};
  g_init.resize(std::min<std::size_t>(g_count, g_init.size()));
  ir::GlobalVariable* g = m->create_global(gt, g_count, "g", std::move(g_init), false);
  ir::GlobalVariable* h = m->create_global(Type::i64(), 1, "h", {42}, false);

  // A helper whose frame allocas, writes, and is re-zeroed on return.
  Function* helper = m->create_function("helper", Type::i64(), {Type::i64()}, {"n"});
  IRBuilder b(*m);
  b.set_insert_point(helper->create_block("entry"));
  Type* ht = pick_type();
  Value* scratch = b.alloca_array(ht, hostile_element_count(rng), "scratch");
  b.mem_set(scratch, m->get_int(ht, 0x5a), helper->arg(0));
  b.ret(b.load(b.gep(h, m->get_i64(0))));

  Function* f = m->create_function("main", Type::i32(), {});
  b.set_insert_point(f->create_block("entry"));
  Type* at = pick_type();
  Value* p = b.alloca_array(at, hostile_element_count(rng), "p");
  Value* q = b.gep(p, m->get_i64(hostile_offset(rng, arena)));
  if (rng.uniform_int(0, 1) == 0) b.store(m->get_int(at, -1), q);
  b.mem_set(rng.uniform_int(0, 1) == 0 ? p : q, m->get_int(at, 0x7f),
            m->get_i64(hostile_count(rng, arena, at->size_in_bytes())));
  Value* g_at = b.gep(g, m->get_i64(hostile_offset(rng, arena)));
  if (rng.uniform_int(0, 1) == 0) {
    b.mem_cpy(g_at, p, m->get_i64(hostile_count(rng, arena, gt->size_in_bytes())));
  } else {
    b.mem_cpy(p, g_at, m->get_i64(hostile_count(rng, arena, at->size_in_bytes())));
  }
  Value* n = m->get_i64(hostile_count(rng, arena, ht->size_in_bytes()));
  Value* sum = b.add(widen(b, b.load(q)), b.call(helper, {n}));
  sum = b.add(sum, widen(b, b.load(g_at)));
  b.ret(b.trunc(sum, Type::i32()));
  return m;
}

TEST(InterpFuzz, HostileModulesYieldAResultOrAnError) {
  constexpr std::uint64_t kSeed = 20261017;
  constexpr int kCases = 2000;
  std::printf("interp fuzz: seed %llu, %d cases\n", static_cast<unsigned long long>(kSeed),
              kCases);
  Rng rng(kSeed);
  int rejected_by_codec = 0;
  int ran_ok = 0;
  int ran_error = 0;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE(testing::Message() << "seed " << kSeed << " case " << c);
    interp::InterpreterOptions opts;
    // Alternate arena sizes so the per-thread arena is also reallocated.
    if (c % 4 != 0) opts.memory_bytes = std::size_t{1} << 16;
    const auto original = hostile_module(rng, opts.memory_bytes);
    auto decoded = serve::deserialize_module(serve::serialize_module(*original));
    if (!decoded.is_ok()) {
      ++rejected_by_codec;
      continue;
    }
    const auto first = run_module(*decoded.value(), opts);
    const auto second = run_module(*decoded.value(), opts);
    ASSERT_EQ(first.is_ok(), second.is_ok());
    if (!first.is_ok()) {
      ++ran_error;
      EXPECT_EQ(first.message(), second.message());
      EXPECT_EQ(first.message().rfind("interpreter: ", 0), 0u) << first.message();
      continue;
    }
    ++ran_ok;
    EXPECT_EQ(first.value().return_value, second.value().return_value);
    EXPECT_EQ(first.value().memory_checksum, second.value().memory_checksum);
    EXPECT_EQ(first.value().instructions_executed, second.value().instructions_executed);
  }
  std::printf("interp fuzz: %d rejected by the codec, %d ran, %d errored\n", rejected_by_codec,
              ran_ok, ran_error);
  // The campaign must reach every outcome to mean anything.
  EXPECT_GT(rejected_by_codec, 100);
  EXPECT_GT(ran_ok, 50);
  EXPECT_GT(ran_error, 500);
}

}  // namespace
}  // namespace autophase
