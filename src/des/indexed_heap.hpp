#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pushpull::des {

/// An indexed binary heap: small nodes, each naming one slot of a slab the
/// caller owns, kept in heap order, plus a slot -> heap position array, so
/// the caller can find, erase or rekey a slot's node in O(log n). The event
/// queue (earliest (time, id) first) and the γ pull queue (the selection
/// scan's fold order) are its two instances.
///
/// `Node` has a `Slot slot` member naming its slot; `Outranks` is a
/// stateless strict order, `Outranks{}(a, b)` true when `a` belongs above
/// `b`. The position of a slot with no node is stale. Every array keeps its
/// capacity across erase() and clear(), so a warm heap never allocates.
template <typename Node, typename Outranks>
class IndexedHeap {
 public:
  using Slot = std::uint32_t;

  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  /// The node at heap position `pos`; position 0 is the root.
  [[nodiscard]] const Node& operator[](std::size_t pos) const noexcept {
    return nodes_[pos];
  }
  [[nodiscard]] const Node& top() const noexcept { return nodes_.front(); }
  /// Heap position of the node naming `slot`.
  [[nodiscard]] std::size_t position(Slot slot) const noexcept {
    return pos_[slot];
  }

  /// Adds `node`, whose slot has no node yet.
  void push(const Node& node) {
    track(node.slot);
    nodes_.emplace_back();
    sift_up(nodes_.size() - 1, node);
  }

  /// Removes and returns the node at `pos`. The heap's last node refills
  /// the hole and sifts whichever way it belongs: it may outrank the hole's
  /// parent.
  Node erase(std::size_t pos) noexcept {
    const Node gone = nodes_[pos];
    const Node last = nodes_.back();
    nodes_.pop_back();
    if (pos < nodes_.size()) sift(pos, last);
    return gone;
  }

  /// Replaces the node at `pos` by `node`, the same slot under a new key,
  /// and sifts it whichever way it belongs.
  void rekey(std::size_t pos, const Node& node) noexcept { sift(pos, node); }

  /// The node naming slot `from` names slot `to` from now on (the caller
  /// moved the slot's payload); `to` has no node of its own.
  void repoint(Slot from, Slot to) {
    track(to);
    pos_[to] = pos_[from];
    nodes_[pos_[to]].slot = to;
  }

  /// Replaces every node by node_of(0), ..., node_of(n - 1) and heapifies
  /// them bottom-up in O(n). An array that must grow is sized for n in
  /// one allocation, not grown node by node through powers of two.
  template <typename NodeOf>
  void build(std::size_t n, NodeOf&& node_of) {
    nodes_.resize(n);
    pos_.reserve(n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      const Node node = node_of(pos);
      track(node.slot);
      place(pos, node);
    }
    for (std::size_t pos = n / 2; pos-- > 0;) sift_down(pos, nodes_[pos]);
  }

  void clear() noexcept {
    nodes_.clear();
    pos_.clear();
  }

 private:
  /// Grows the position array to cover `slot`.
  void track(Slot slot) {
    if (slot >= pos_.size()) pos_.resize(std::size_t{slot} + 1);
  }
  /// Writes `node` at heap position `pos` and records the position.
  void place(std::size_t pos, const Node& node) noexcept {
    nodes_[pos] = node;
    pos_[node.slot] = static_cast<Slot>(pos);
  }
  void sift_up(std::size_t pos, Node node) noexcept {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!Outranks{}(node, nodes_[parent])) break;
      place(pos, nodes_[parent]);
      pos = parent;
    }
    place(pos, node);
  }
  void sift_down(std::size_t pos, Node node) noexcept {
    const std::size_t n = nodes_.size();
    for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
      if (child + 1 < n && Outranks{}(nodes_[child + 1], nodes_[child])) {
        ++child;
      }
      if (!Outranks{}(nodes_[child], node)) break;
      place(pos, nodes_[child]);
      pos = child;
    }
    place(pos, node);
  }
  /// Puts `node` at `pos`, then sifts it whichever way it belongs.
  void sift(std::size_t pos, Node node) noexcept {
    if (pos > 0 && Outranks{}(node, nodes_[(pos - 1) / 2])) {
      sift_up(pos, node);
    } else {
      sift_down(pos, node);
    }
  }

  std::vector<Node> nodes_;  // binary heap under Outranks
  std::vector<Slot> pos_;    // slot -> index of its node in nodes_
};

}  // namespace pushpull::des
