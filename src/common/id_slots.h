#ifndef PARDB_COMMON_ID_SLOTS_H_
#define PARDB_COMMON_ID_SLOTS_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace pardb {

// Recycled dense rows for ids that are live only for a while (DESIGN D23).
// Transaction ids are monotone and never reused, but a table indexed by id
// grows with the run; IdSlots hands each live id a row, takes it back when
// the id retires and gives it to the next id, so a per-transaction table
// is as large as the most ids ever live at once. A retired id is simply
// absent: it can never alias the row its successor holds.
//
// The map is open addressing with Robin Hood linear probing (an entry
// never sits further from its home than the one it passed) and
// backward-shift deletion, at most half full; rows come from a free
// stack. Neither shrinks, so once both have reached the peak live count no
// call allocates.
class IdSlots {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // Row of `id`, or kNone when it holds none.
  std::uint32_t Find(std::uint64_t id) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = Home(id);; i = (i + 1) & mask_) {
      if (keys_[i] == id) return rows_[i];
      if (keys_[i] == kEmpty) return kNone;
    }
  }

  // Gives `id` (which must hold no row) a row: the most recently released
  // one, else a fresh one.
  std::uint32_t Insert(std::uint64_t id) {
    if (2 * (size_ + 1) > keys_.size()) Rehash(2 * (size_ + 1));
    std::uint32_t row;
    if (free_.empty()) {
      row = high_water_++;
    } else {
      row = free_.back();
      free_.pop_back();
    }
    Place(id, row);
    ++size_;
    return row;
  }

  // Retires `id`: its row goes back to the free stack. Returns the row, or
  // kNone when the id held none.
  std::uint32_t Erase(std::uint64_t id) {
    if (size_ == 0) return kNone;
    std::size_t i = Home(id);
    while (keys_[i] != id) {
      if (keys_[i] == kEmpty) return kNone;
      i = (i + 1) & mask_;
    }
    const std::uint32_t row = rows_[i];
    // Backward shift: under Robin Hood order the displaced entries after
    // the hole are exactly those up to the first empty slot or entry at
    // its home; each moves back one. (Consecutive ids all sit at home, so
    // this usually stops at once.)
    for (std::size_t j = (i + 1) & mask_;
         keys_[j] != kEmpty && Distance(j) != 0; j = (j + 1) & mask_) {
      keys_[i] = keys_[j];
      rows_[i] = rows_[j];
      i = j;
    }
    keys_[i] = kEmpty;
    --size_;
    free_.push_back(row);
    return row;
  }

  // Pre-sizes the free stack for `n` ids live at once. The table itself
  // grows with the live count only: kept small, its probes stay in cache.
  void Reserve(std::size_t n) { free_.reserve(n); }

  std::size_t size() const { return size_; }  // ids holding a row
  // Rows ever handed out: the peak number of ids live at once.
  std::uint32_t rows() const { return high_water_; }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  // How far the entry in slot i sits past its home.
  std::size_t Distance(std::size_t i) const {
    return (i - Home(keys_[i])) & mask_;
  }

  // Robin Hood insertion: an entry further from its home takes the slot of
  // one nearer to its own, which then moves on.
  void Place(std::uint64_t id, std::uint32_t row) {
    for (std::size_t i = Home(id), dist = 0;; i = (i + 1) & mask_, ++dist) {
      if (keys_[i] == kEmpty) {
        keys_[i] = id;
        rows_[i] = row;
        return;
      }
      const std::size_t d = Distance(i);
      if (d < dist) {
        std::swap(keys_[i], id);
        std::swap(rows_[i], row);
        dist = d;
      }
    }
  }

  std::size_t Home(std::uint64_t id) const {
    // Identity: the live ids of an engine are a near-consecutive run, so
    // they take neighbouring buckets (as a dense array would) and collide
    // only where the run wraps the table. Strided ids cluster, which costs
    // probes, never correctness.
    return static_cast<std::size_t>(id) & mask_;
  }

  void Rehash(std::size_t want) {
    std::size_t cap = 16;
    while (cap < want) cap *= 2;
    if (cap <= keys_.size()) return;
    std::vector<std::uint64_t> keys(cap, kEmpty);
    std::vector<std::uint32_t> rows(cap, kNone);
    keys.swap(keys_);
    rows.swap(rows_);
    mask_ = cap - 1;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (keys[k] != kEmpty) Place(keys[k], rows[k]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> rows_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::vector<std::uint32_t> free_;
  std::uint32_t high_water_ = 0;
};

}  // namespace pardb

#endif  // PARDB_COMMON_ID_SLOTS_H_
