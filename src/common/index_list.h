// Intrusive index-linked lists over a shared link arena.
//
// The scheduler keeps its live job records (dense record ids) in FIFO
// queues and running pools. std::deque/vector give O(queued) mid-erase and
// O(running) erase(remove(...)) per completion — ~1.09 M times per six-month
// replay. An IndexList is a doubly-linked list whose prev/next pointers live
// in one shared IndexLinks arena indexed by element id, so membership moves are
// O(1) unlinks with zero allocation, while iteration order stays exactly
// insertion order (FCFS heads and youngest-victim selection depend on it, and
// test_determinism pins the resulting digests).
//
// Invariant required of callers: an element is in AT MOST ONE list per arena
// at a time (the scheduler's jobs are queued xor running, never both).
// erase() on an element that is not in the list is undefined — guard with an
// explicit membership bit where needed (the scheduler's placement emptiness
// already encodes it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace acme::common {

inline constexpr std::uint32_t kIndexNpos = 0xffffffffu;

// The shared prev/next arrays. Several IndexLists may thread through one
// arena as long as each element belongs to at most one of them.
struct IndexLinks {
  std::vector<std::uint32_t> prev;
  std::vector<std::uint32_t> next;

  void assign(std::size_t n) {
    prev.assign(n, kIndexNpos);
    next.assign(n, kIndexNpos);
  }
  // Room for `n` ids without touching it; add() then grows one id at a time,
  // so an arena sized for the worst case costs memory only up to the ids
  // actually handed out.
  void reserve(std::size_t n) {
    prev.reserve(n);
    next.reserve(n);
  }
  // Appends one unlinked id and returns it.
  std::uint32_t add() {
    prev.push_back(kIndexNpos);
    next.push_back(kIndexNpos);
    return static_cast<std::uint32_t>(prev.size() - 1);
  }
  std::size_t size() const { return prev.size(); }
};

class IndexList {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::uint32_t front() const { return head_; }
  std::uint32_t back() const { return tail_; }

  void clear(IndexLinks& links) {
    // Unthread every member so the arena can be reused by later inserts.
    for (std::uint32_t i = head_; i != kIndexNpos;) {
      const std::uint32_t nxt = links.next[i];
      links.prev[i] = links.next[i] = kIndexNpos;
      i = nxt;
    }
    head_ = tail_ = kIndexNpos;
    size_ = 0;
  }

  void push_back(IndexLinks& links, std::uint32_t i) {
    ACME_CHECK_MSG(i < links.size(), "index outside the link arena");
    links.prev[i] = tail_;
    links.next[i] = kIndexNpos;
    if (tail_ != kIndexNpos)
      links.next[tail_] = i;
    else
      head_ = i;
    tail_ = i;
    ++size_;
  }

  // O(1) unlink. `i` must currently be in THIS list.
  void erase(IndexLinks& links, std::uint32_t i) {
    ACME_CHECK_MSG(size_ > 0, "erase from an empty IndexList");
    const std::uint32_t p = links.prev[i];
    const std::uint32_t n = links.next[i];
    if (p != kIndexNpos)
      links.next[p] = n;
    else
      head_ = n;
    if (n != kIndexNpos)
      links.prev[n] = p;
    else
      tail_ = p;
    links.prev[i] = links.next[i] = kIndexNpos;
    --size_;
  }

  std::uint32_t pop_front(IndexLinks& links) {
    const std::uint32_t i = head_;
    ACME_CHECK_MSG(i != kIndexNpos, "pop_front from an empty IndexList");
    erase(links, i);
    return i;
  }

  // Successor in iteration (insertion) order; kIndexNpos past the tail.
  // Capture the successor BEFORE unlinking the current element: the pattern
  //   for (u32 i = list.front(); i != kIndexNpos;) {
  //     u32 nxt = links.next[i];  // survives erase(i) and push_back at tail
  //     ...maybe erase(i)...
  //     i = nxt;
  //   }
  // stays valid under erase-current and under appends during iteration.
  static std::uint32_t next_of(const IndexLinks& links, std::uint32_t i) {
    return links.next[i];
  }

  // Copies the list front-to-back into `out` (cleared first, capacity kept).
  template <typename Vec>
  void copy_to(const IndexLinks& links, Vec& out) const {
    out.clear();
    for (std::uint32_t i = head_; i != kIndexNpos; i = links.next[i])
      out.push_back(i);
  }

 private:
  std::uint32_t head_ = kIndexNpos;
  std::uint32_t tail_ = kIndexNpos;
  std::size_t size_ = 0;
};

}  // namespace acme::common
