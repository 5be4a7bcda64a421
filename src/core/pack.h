// The pack: a sorted run of key-value pairs that is compressed and encrypted
// as one unit (paper §2.5). The pack is entirely a client-side concept — the
// server only ever sees its sealed envelope.
//
// Storage layout: entries are string_view slices over an internal arena
// rather than per-entry heap strings. The decode (FromSerialized) adopts the
// decompressed buffer wholesale and points the views straight into it —
// opening a pack allocates the entry index and nothing else. Arena blocks
// have stable addresses, so views never dangle across mutations; copying a
// Pack deep-copies into a fresh arena.
//
// Point decode: entries serialize in key order, so a point read needs the
// serialization only up to the first key >= its own. PointScan tells the
// inflate loop when it has that much, and FromSerialized with the same stop
// key builds a pack of just those entries.

#ifndef MINICRYPT_SRC_CORE_PACK_H_
#define MINICRYPT_SRC_CORE_PACK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace minicrypt {

class Pack {
 public:
  // Owned input type for builders (FromSorted callers construct these from
  // loop-local strings; the pack copies them into its arena).
  struct Entry {
    std::string key;    // order-preserving encoded key bytes
    std::string value;
  };

  // Stored entry: slices into the pack's arena. Valid for the lifetime of
  // the owning Pack; a Pack copy re-anchors them into its own arena.
  struct EntryView {
    std::string_view key;
    std::string_view value;
  };

  Pack() = default;

  Pack(const Pack& other);
  Pack& operator=(const Pack& other);
  Pack(Pack&&) noexcept = default;
  Pack& operator=(Pack&&) noexcept = default;

  // Builds a pack from entries that must already be sorted by key, unique.
  static Result<Pack> FromSorted(std::vector<Entry> entries);

  // --- Serialization ----------------------------------------------------------

  // [n varint] then n x (key len-prefixed, value len-prefixed), sorted.
  std::string Serialize() const;

  // Zero-copy decode: adopts the buffer (the decompressor's output moves in
  // here) and slices entries out of it without copying a byte.
  //
  // With `stop`, `bytes` may be a prefix of the serialization that runs at
  // least through the entry holding the first key >= *stop, and the pack
  // holds the entries up to and including that one. Such a pack answers
  // Find(*stop) as the whole pack would, but it is not the pack: it must
  // never be cached, mutated or sealed.
  static Result<Pack> FromSerialized(std::string&& bytes,
                                     std::optional<std::string_view> stop = std::nullopt);

  // Tells a point read's inflate loop when its output suffices (below).
  class PointScan;

  // --- Queries ----------------------------------------------------------------

  // Value for an exact key.
  std::optional<std::string_view> Find(std::string_view key) const;

  // Smallest key (the packID, paper §2.5). Empty pack -> nullopt.
  std::optional<std::string_view> MinKey() const;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<EntryView>& entries() const { return entries_; }

  // Bytes held by the arena (adopted buffers + copied fields), for cache
  // accounting. Overwritten values keep their arena bytes until the pack is
  // destroyed, so this tracks retained memory, not live payload.
  size_t ArenaBytes() const { return arena_.TotalBytes(); }

  // --- Mutations --------------------------------------------------------------

  // Inserts or overwrites; keeps order. Returns true when the key was new.
  bool Upsert(std::string_view key, std::string_view value);

  // Removes a key; returns true when it was present. The packID does not
  // change even when the smallest key is removed (paper §5.3).
  bool Erase(std::string_view key);

  // Splits deterministically: the first ceil(n/2) keys stay in the returned
  // left pack, the rest form the right pack (paper §5.2 requires that every
  // client splitting the same pack produces identical halves). This pack is
  // left unchanged. n must be >= 2.
  Result<std::pair<Pack, Pack>> SplitDeterministic() const;

 private:
  // Where a parse of a serialization stands. The buffer may grow between
  // calls (a point read's inflate output), so the parse resumes at `pos`.
  struct ParseState {
    std::optional<std::string_view> stop;
    size_t pos = 0;      // bytes consumed: the entry count, then whole entries
    uint64_t count = 0;  // declared entry count, once read
    std::vector<EntryView> entries;
  };

  // The one parser of the serialized form, with the count, length and order
  // checks. Consumes the whole entries of `bytes` past state->pos and returns
  // true once done: every declared entry parsed with nothing trailing, or the
  // entry holding the first key >= the stop key. False when `bytes` ends
  // first.
  static Result<bool> ParseEntries(std::string_view bytes, ParseState* state);

  // Bump allocator with stable addresses. Blocks are never reallocated, so
  // handed-out views stay valid for the Pack's lifetime; whole buffers can
  // be adopted without copying.
  class Arena {
   public:
    Arena() = default;
    Arena(Arena&&) noexcept = default;
    Arena& operator=(Arena&&) noexcept = default;
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    std::string_view Copy(std::string_view s);
    // Takes ownership of the buffer; the returned view covers all of it.
    std::string_view Adopt(std::string&& s);
    // Pre-sizes the next block so bulk builders pay for exactly the bytes
    // they hold (the cache charges ArenaBytes; small packs stay small).
    void Reserve(size_t n);
    size_t TotalBytes() const { return total_; }

   private:
    std::vector<std::unique_ptr<char[]>> blocks_;
    std::vector<std::unique_ptr<std::string>> adopted_;
    char* cur_ = nullptr;
    size_t remaining_ = 0;
    size_t total_ = 0;
  };

  // Index of the first entry with entry.key >= key.
  size_t LowerBound(std::string_view key) const;

  Arena arena_;
  std::vector<EntryView> entries_;  // sorted by key, unique
};

// Follows a point read's inflate output as it grows.
class Pack::PointScan {
 public:
  explicit PointScan(std::string_view stop) { state_.stop = stop; }

  // `prefix` is the output so far; each call's extends the previous one's,
  // in the same buffer. True once it runs through the stop entry, or is
  // malformed (FromSerialized then says how).
  bool Reached(std::string_view prefix);

 private:
  ParseState state_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_CORE_PACK_H_
