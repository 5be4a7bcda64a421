#include "src/core/pack.h"

#include <algorithm>
#include <cstring>

#include "src/common/coding.h"

namespace minicrypt {

namespace {
constexpr size_t kMinArenaBlock = 4096;
}  // namespace

std::string_view Pack::Arena::Copy(std::string_view s) {
  if (s.empty()) {
    return {};
  }
  if (s.size() > remaining_) {
    Reserve(std::max(s.size(), kMinArenaBlock));
  }
  char* dst = cur_;
  std::memcpy(dst, s.data(), s.size());
  cur_ += s.size();
  remaining_ -= s.size();
  return std::string_view(dst, s.size());
}

void Pack::Arena::Reserve(size_t n) {
  if (n == 0 || n <= remaining_) {
    return;
  }
  // Any tail of the previous block is abandoned; callers reserve up front.
  blocks_.push_back(std::make_unique<char[]>(n));
  cur_ = blocks_.back().get();
  remaining_ = n;
  total_ += n;
}

std::string_view Pack::Arena::Adopt(std::string&& s) {
  adopted_.push_back(std::make_unique<std::string>(std::move(s)));
  total_ += adopted_.back()->size();
  return std::string_view(*adopted_.back());
}

namespace {

template <typename EntryRange>
size_t PayloadBytes(const EntryRange& entries) {
  size_t n = 0;
  for (const auto& e : entries) {
    n += e.key.size() + e.value.size();
  }
  return n;
}

}  // namespace

Pack::Pack(const Pack& other) {
  arena_.Reserve(PayloadBytes(other.entries_));
  entries_.reserve(other.entries_.size());
  for (const EntryView& e : other.entries_) {
    entries_.push_back(EntryView{arena_.Copy(e.key), arena_.Copy(e.value)});
  }
}

Pack& Pack::operator=(const Pack& other) {
  if (this != &other) {
    Pack copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Result<Pack> Pack::FromSorted(std::vector<Entry> entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].key >= entries[i].key) {
      return Status::InvalidArgument("pack entries not sorted/unique");
    }
  }
  Pack p;
  p.arena_.Reserve(PayloadBytes(entries));
  p.entries_.reserve(entries.size());
  for (const Entry& e : entries) {
    p.entries_.push_back(EntryView{p.arena_.Copy(e.key), p.arena_.Copy(e.value)});
  }
  return p;
}

std::string Pack::Serialize() const {
  std::string out;
  PutVarint64(&out, entries_.size());
  for (const auto& e : entries_) {
    PutLengthPrefixed(&out, e.key);
    PutLengthPrefixed(&out, e.value);
  }
  return out;
}

Result<bool> Pack::ParseEntries(std::string_view bytes, ParseState* state) {
  std::string_view in = bytes.substr(state->pos);
  if (state->pos == 0) {
    auto n = GetVarint64(&in);
    if (!n.ok()) {
      return false;
    }
    if (*n > (1u << 24)) {
      return Status::Corruption("pack declares absurd entry count");
    }
    state->count = *n;
    // Every entry takes at least two bytes, so garbage cannot reserve more
    // than its own size.
    state->entries.reserve(std::min<uint64_t>(*n, bytes.size() / 2));
    state->pos = bytes.size() - in.size();
  }
  while (state->entries.size() < state->count) {
    auto key = GetLengthPrefixed(&in);
    if (!key.ok()) {
      return false;
    }
    auto value = GetLengthPrefixed(&in);
    if (!value.ok()) {
      return false;
    }
    if (!state->entries.empty() && state->entries.back().key >= *key) {
      return Status::Corruption("pack entries out of order");
    }
    state->entries.push_back(EntryView{*key, *value});
    state->pos = bytes.size() - in.size();
    if (state->stop.has_value() && *key >= *state->stop) {
      return true;
    }
  }
  if (!in.empty()) {
    return Status::Corruption("trailing bytes after pack entries");
  }
  return true;
}

Result<Pack> Pack::FromSerialized(std::string&& bytes, std::optional<std::string_view> stop) {
  Pack p;
  const std::string_view stable = p.arena_.Adopt(std::move(bytes));
  // Parse after adoption: the views below point into the arena-owned buffer,
  // never into a caller temporary.
  ParseState state;
  state.stop = stop;
  MC_ASSIGN_OR_RETURN(const bool done, ParseEntries(stable, &state));
  if (!done) {
    return Status::Corruption("pack entries truncated");
  }
  p.entries_ = std::move(state.entries);
  return p;
}

bool Pack::PointScan::Reached(std::string_view prefix) {
  auto done = ParseEntries(prefix, &state_);
  return !done.ok() || *done;
}

size_t Pack::LowerBound(std::string_view key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const EntryView& e, std::string_view k) { return e.key < k; });
  return static_cast<size_t>(it - entries_.begin());
}

std::optional<std::string_view> Pack::Find(std::string_view key) const {
  const size_t i = LowerBound(key);
  if (i < entries_.size() && entries_[i].key == key) {
    return entries_[i].value;
  }
  return std::nullopt;
}

std::optional<std::string_view> Pack::MinKey() const {
  if (entries_.empty()) {
    return std::nullopt;
  }
  return entries_.front().key;
}

bool Pack::Upsert(std::string_view key, std::string_view value) {
  const size_t i = LowerBound(key);
  if (i < entries_.size() && entries_[i].key == key) {
    entries_[i].value = arena_.Copy(value);
    return false;
  }
  entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(i),
                  EntryView{arena_.Copy(key), arena_.Copy(value)});
  return true;
}

bool Pack::Erase(std::string_view key) {
  const size_t i = LowerBound(key);
  if (i < entries_.size() && entries_[i].key == key) {
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
    return true;
  }
  return false;
}

Result<std::pair<Pack, Pack>> Pack::SplitDeterministic() const {
  if (entries_.size() < 2) {
    return Status::InvalidArgument("cannot split a pack with fewer than 2 keys");
  }
  const size_t left_count = (entries_.size() + 1) / 2;  // ceil(n/2)
  Pack left;
  Pack right;
  left.entries_.reserve(left_count);
  right.entries_.reserve(entries_.size() - left_count);
  size_t left_bytes = 0;
  for (size_t i = 0; i < left_count; ++i) {
    left_bytes += entries_[i].key.size() + entries_[i].value.size();
  }
  left.arena_.Reserve(left_bytes);
  right.arena_.Reserve(PayloadBytes(entries_) - left_bytes);
  for (size_t i = 0; i < left_count; ++i) {
    left.entries_.push_back(EntryView{left.arena_.Copy(entries_[i].key),
                                      left.arena_.Copy(entries_[i].value)});
  }
  for (size_t i = left_count; i < entries_.size(); ++i) {
    right.entries_.push_back(EntryView{right.arena_.Copy(entries_[i].key),
                                       right.arena_.Copy(entries_[i].value)});
  }
  return std::make_pair(std::move(left), std::move(right));
}

}  // namespace minicrypt
