// IdTable: a flat table over the blocks or the instructions of one function,
// indexed by their dense ids. It replaces the pointer-keyed hash maps that
// the analyses, the printer, the module codec and the interpreter would
// otherwise each keep.
//
// Ids: a Function numbers its blocks and instructions from two counters
// (block_id_bound(), inst_id_bound()). A block gets its id when it is
// created; an instruction gets a fresh one each time it is linked into a
// block (new, cloned, or re-linked after take()). Ids are never reused and
// never renumbered, so reading a function never writes it: the CoW source
// of many rollout clones stays read-only while threads walk it. Ids only
// index tables. Everything printed, encoded or counted is still numbered by
// position in a walk, so no output depends on a function's edit history.
//
// A table covers the nodes its function had when the table was made. A node
// of another function, an unlinked instruction, or a node created later is
// not in it: find() answers the table's `missing` value for them, exactly as
// a lookup in a pointer map made at the same time would fail.
#pragma once

#include <cassert>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "ir/function.hpp"

namespace autophase::ir {

template <typename Node, typename T>
class IdTable {
  static_assert(std::is_same_v<Node, BasicBlock> || std::is_same_v<Node, Instruction>);

 public:
  IdTable() = default;
  IdTable(const Function& f, T missing) { reset(f, missing); }

  /// Covers `f`'s current nodes, each entry `missing`.
  void reset(const Function& f, T missing) {
    function_ = &f;
    missing_ = missing;
    if constexpr (std::is_same_v<Node, BasicBlock>) {
      values_.assign(f.block_id_bound(), missing);
    } else {
      values_.assign(f.inst_id_bound(), missing);
    }
  }

  /// One past the largest id the table covers.
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  /// The entry of `node`, which the table must cover.
  [[nodiscard]] auto& operator[](const Node* node) {
    assert(covers(node) && "node outside the id table");
    return values_[node->id()];
  }

  /// The entry of `node`, or `missing` when the table does not cover it.
  [[nodiscard]] T find(const Node* node) const noexcept {
    return covers(node) ? values_[node->id()] : missing_;
  }

  /// Like find(), but throws std::out_of_range where find() would answer
  /// `missing` (the std::unordered_map::at contract).
  [[nodiscard]] T at(const Node* node) const {
    const T value = find(node);
    if (value == missing_) throw std::out_of_range("IdTable::at: node not in table");
    return value;
  }

 private:
  [[nodiscard]] bool covers(const Node* node) const noexcept {
    const Function* owner = nullptr;
    if constexpr (std::is_same_v<Node, BasicBlock>) {
      owner = node->parent();
    } else if (node->parent() != nullptr) {
      owner = node->parent()->parent();
    }
    return owner == function_ && node->id() < values_.size();
  }

  // std::vector<bool> hands out bit proxies, not references: keep bools as
  // bytes.
  using Slot = std::conditional_t<std::is_same_v<T, bool>, unsigned char, T>;

  const Function* function_ = nullptr;
  T missing_{};
  std::vector<Slot> values_;
};

}  // namespace autophase::ir
