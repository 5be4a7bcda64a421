// Canonical row-value layout for secondary-indexable rows.
//
// The secondary index orders rows by a 64-bit attribute carried inside the
// (encrypted) row value. The canonical layout keeps the attribute extractable
// without schema machinery: an 8-byte big-endian attribute prefix followed by
// the opaque payload. Workload generators, benches, and the index's
// attribute extraction all agree on this layout; rows whose values don't
// decode are not indexed.
//
// Header-only on purpose: the workload library uses it without linking the
// index protocol engine.

#ifndef MINICRYPT_SRC_INDEX_INDEXED_VALUE_H_
#define MINICRYPT_SRC_INDEX_INDEXED_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/coding.h"

namespace minicrypt {

// attr (8 bytes, big-endian) || payload.
inline std::string EncodeIndexedValue(uint64_t attr, std::string_view payload) {
  std::string out = EncodeKey64(attr);
  out.append(payload);
  return out;
}

// The attribute prefix, or nullopt for values shorter than the prefix
// (such values are simply not indexed).
inline std::optional<uint64_t> DecodeIndexedAttr(std::string_view value) {
  if (value.size() < 8) {
    return std::nullopt;
  }
  auto attr = DecodeKey64(value.substr(0, 8));
  if (!attr.ok()) {
    return std::nullopt;
  }
  return *attr;
}

inline std::string_view DecodeIndexedPayload(std::string_view value) {
  return value.size() < 8 ? value : value.substr(8);
}

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_INDEX_INDEXED_VALUE_H_
